"""Bit-exact wire formats for the five protocol messages.

Layout: 1 tag byte, then fixed-layout fields. Integers are 4-byte
little-endian (u32); a public key is its 32 bytes (`keyagree.KEY_LEN`) with
no length prefix; field elements travel bit-packed in element blocks. Every
modulus FieldParams admits is below 2^32, so an element takes at most 32
bits and decodes into int64. `serialize` and `deserialize` take the run's
RampParams: lists need n, element blocks need the field.

- ClientHello: tag, u32 sender, key.
- KeyBroadcast: tag, one list of keys.
- ShareUpload: tag, u32 sender, one list of ciphertexts by recipient.
- ShareDelivery: tag, two lists: first the senders that sealed a ciphertext
  for the recipient, then the senders that designate it, whose entries are
  empty. In memory they are one ascending tuple, a designating sender's
  entry being b"".
- SumShares: tag, u32 sender, u32 count, one element block.

A list is a bitmap over [1, n] of the indices present, a u32 entry size,
then one entry of that size for each set bit, in ascending index order;
an empty list has entry size 0.
Index i is bit (i-1) % 8 of byte (i-1) // 8 of the ceil(n/8)-byte bitmap,
LSB-first as in the element blocks, and the pad bits above n are zero: at
n = 10 the indices {1, 3, 10} give the bitmap 05 02. The bitmap costs
ceil(n/8) bytes where a (u32 index, u32 length) header per entry costs 8
bytes each, so it is smaller for any list of more than n/64 entries.

What the layout cannot carry, `serialize` refuses: an index outside
[1, n], indices that are not strictly ascending, two entry sizes in one
list, and a key that is not 32 bytes. `deserialize` refuses a set pad bit
and an empty list of nonzero entry size, so that each list has exactly one
encoding, a body that is short or long, and a delivery that names a sender
in both lists, so no decoded list repeats an index. Given the type its
receiver expects, it also refuses a message whose tag names another type.
An entry the layout carries
but the protocol does not allow (a key of another size, a non-empty entry
from a designating sender) is the receiving client's to refuse.

An element block packs its elements LSB-first at b = bits(q-1) bits each
(`FieldParams.bit_width`): bit j of element i is stream bit i*b + j, and
stream bit p is bit p % 8 of byte p // 8. A block of count elements takes
ceil(count*b / 8) bytes (`block_size`), and its pad bits above count*b are
zero. At q = 257 (b = 9), (256, 3) sets stream bits 8, 9 and 10 and packs
to 00 07 00; at q = 11 (b = 4), (9, 3) packs to 39. When b is a multiple of
8 the block is the elements as b/8-byte little-endian integers back to back.

A SumShares body is one block, and so is a share plaintext, the AEAD
plaintext that carries a sender's chunk shares to one recipient. Every
block goes through one packer (`encode_elems`) and one unpacker
(`decode_elems`, which Round 2 calls as `decode_share_plaintext`). The
unpacker refuses a block of the wrong length, one with a nonzero pad bit,
so that each block has exactly one encoding, and one holding an element
>= q, which b bits can hold.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MalformedPlaintext
from .field import FieldParams
from .keyagree import KEY_LEN
from .ramp import RampParams

TAG_CLIENT_HELLO = 0
TAG_KEY_BROADCAST = 1
TAG_SHARE_UPLOAD = 2
TAG_SHARE_DELIVERY = 3
TAG_SUM_SHARES = 4

_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class ClientHello:
    u: int
    public_key: bytes


@dataclass(frozen=True)
class KeyBroadcast:
    keys: tuple  # ((u, public_key), ...) ascending u


@dataclass(frozen=True)
class ShareUpload:
    u: int
    ciphertexts: tuple  # ((v, ct_bytes), ...) ascending v, for every peer u seals for


@dataclass(frozen=True)
class ShareDelivery:
    ciphertexts: tuple  # ((v, ct_bytes), ...) ascending v, routed to one recipient; b"" if v designates it


@dataclass(frozen=True, eq=False)
class SumShares:
    u: int
    sums: np.ndarray  # one summed share per chunk, int64; any int sequence is converted

    def __post_init__(self):
        sums = np.asarray(self.sums)
        # A non-integer entry is refused, not truncated; Server.round2 leaves
        # out a message with any entry outside [0, q).
        if sums.size and sums.dtype.kind not in "iu":
            raise InvalidArgument(f"sum shares must be integers, got {sums.dtype}")
        if sums.ndim != 1:
            raise InvalidArgument(f"sum shares must be one per chunk, got shape {sums.shape}")
        object.__setattr__(self, "sums", sums.astype(np.int64, copy=False))

    def __eq__(self, other):
        if not isinstance(other, SumShares):
            return NotImplemented
        return self.u == other.u and np.array_equal(self.sums, other.sums)


_TYPE_OF_TAG = {
    TAG_CLIENT_HELLO: ClientHello,
    TAG_KEY_BROADCAST: KeyBroadcast,
    TAG_SHARE_UPLOAD: ShareUpload,
    TAG_SHARE_DELIVERY: ShareDelivery,
    TAG_SUM_SHARES: SumShares,
}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, k: int) -> int:
        """Move past the next k bytes; returns where they start."""
        start = self.pos
        if start + k > len(self.data):
            raise InvalidArgument("truncated message")
        self.pos = start + k
        return start

    def take(self, k: int) -> bytes:
        start = self.skip(k)
        return self.data[start : self.pos]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def done(self):
        if self.pos != len(self.data):
            raise InvalidArgument("trailing bytes after message")


def _entries(pairs, n: int) -> tuple:
    """(indices, payloads) of (index, payload) pairs, the indices as an array.

    The indices must ascend strictly within [1, n]. Like the rest of the
    packer, raises ValueError or TypeError, which `serialize` reports under
    the message type.
    """
    if not pairs:
        return np.zeros(0, dtype=np.int64), ()
    indices, payloads = zip(*pairs)
    a = np.array(indices)
    if a.dtype.kind not in "iu":
        raise TypeError(f"list indices must be integers, got {a.dtype}")
    ascending = a[1:] > a[:-1]
    if not ascending.all():
        raise ValueError(f"indices not strictly ascending at {a[1:][~ascending][0]}")
    if a[0] < 1 or a[-1] > n:
        raise ValueError(f"index {a[0] if a[0] < 1 else a[-1]} outside [1, {n}]")
    return a, payloads


def _pack_list(indices, payloads, n: int, size: int | None = None) -> list[bytes]:
    """The list layout of `payloads` at `indices`, as `_entries` returns
    them, as parts to join.

    Every payload must be `size` bytes long or, without `size`, as long as
    the first. An empty list has entry size 0.
    """
    sizes = set(map(len, payloads))
    if size is None:
        size = len(payloads[0]) if payloads else 0
    if sizes - {size}:
        raise ValueError(f"a {max(sizes - {size})}-byte entry in a list of {size}-byte entries")
    bits = np.zeros((n + 7) // 8 * 8, dtype=np.uint8)
    bits[indices - 1] = 1
    bitmap = np.packbits(bits, bitorder="little").tobytes()
    return [bitmap, _U32.pack(size if payloads else 0), *payloads]


def _read_list(r: _Reader, n: int) -> tuple:
    """The list at the reader's position as ((index, payload), ...), ascending."""
    bits = np.unpackbits(np.frombuffer(r.take((n + 7) // 8), dtype=np.uint8), bitorder="little")
    if bits[n:].any():
        raise InvalidArgument("list bitmap has nonzero pad bits")
    indices = (np.flatnonzero(bits) + 1).tolist()
    size = r.u32()
    if size and not indices:
        raise InvalidArgument("empty list has nonzero entry size")
    pos = r.skip(len(indices) * size)
    # One unpack cuts every entry, where a slice per entry costs twice as much.
    return tuple(zip(indices, struct.unpack_from(f"{size}s" * len(indices), r.data, pos)))


def serialize(msg, params: RampParams) -> bytes:
    """The wire bytes of `msg` in a run of `params` (its n and field).

    InvalidArgument refuses what does not fit the layout: an index that is
    not a u32, a list index outside [1, n] or out of ascending order, two
    entry sizes in one list, a key that is not 32 bytes, a key or
    ciphertext that is not bytes, a list entry that is not an (index,
    bytes) pair (all of these named with the message type), or an element
    outside [0, q)."""
    n = params.n
    try:
        if isinstance(msg, ClientHello):
            if len(msg.public_key) != KEY_LEN:
                raise ValueError(f"{len(msg.public_key)}-byte key, not {KEY_LEN}")
            parts = [struct.pack("<BI", TAG_CLIENT_HELLO, msg.u), msg.public_key]
        elif isinstance(msg, KeyBroadcast):
            parts = [bytes([TAG_KEY_BROADCAST]), *_pack_list(*_entries(msg.keys, n), n, KEY_LEN)]
        elif isinstance(msg, ShareUpload):
            head = struct.pack("<BI", TAG_SHARE_UPLOAD, msg.u)
            parts = [head, *_pack_list(*_entries(msg.ciphertexts, n), n)]
        elif isinstance(msg, ShareDelivery):
            indices, payloads = _entries(msg.ciphertexts, n)
            sealed = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads)) > 0
            parts = [
                bytes([TAG_SHARE_DELIVERY]),
                *_pack_list(indices[sealed], [p for p in payloads if p], n),
                *_pack_list(indices[~sealed], [p for p in payloads if not p], n, 0),
            ]
        elif isinstance(msg, SumShares):
            head = struct.pack("<BII", TAG_SUM_SHARES, msg.u, len(msg.sums))
            parts = [head, encode_elems(msg.sums, params.fp)]
        else:
            raise InvalidArgument(f"unknown message type {type(msg).__name__}")
        return b"".join(parts)
    except InvalidArgument:
        raise
    except (struct.error, TypeError, ValueError) as e:
        raise InvalidArgument(f"{type(msg).__name__} does not fit the wire layout: {e}") from None


def deserialize(data: bytes, params: RampParams, expected: type | None = None):
    """The message `data` encodes in a run of `params`.

    InvalidArgument if it does not decode, or if `expected` is given and the
    tag names another message type: a receiver reads the fields of the type
    its stage carries, and a message of another type has none of them."""
    n = params.n
    r = _Reader(data)
    tag = r.u8()
    kind = _TYPE_OF_TAG.get(tag)
    if expected is not None and kind is not None and kind is not expected:
        raise InvalidArgument(f"{kind.__name__} where {expected.__name__} was expected")
    if tag == TAG_CLIENT_HELLO:
        msg = ClientHello(u=r.u32(), public_key=r.take(KEY_LEN))
    elif tag == TAG_KEY_BROADCAST:
        msg = KeyBroadcast(keys=_read_list(r, n))
    elif tag == TAG_SHARE_UPLOAD:
        msg = ShareUpload(u=r.u32(), ciphertexts=_read_list(r, n))
    elif tag == TAG_SHARE_DELIVERY:
        sealed, designating = _read_list(r, n), _read_list(r, n)
        if {v for v, _ in sealed} & {v for v, _ in designating}:
            raise InvalidArgument("duplicate client index in ShareDelivery")
        msg = ShareDelivery(ciphertexts=tuple(sorted(sealed + designating)))
    elif tag == TAG_SUM_SHARES:
        u, count = r.u32(), r.u32()
        fp = params.fp
        msg = SumShares(u=u, sums=decode_elems([r.take(block_size(count, fp))], count, fp)[0])
    else:
        raise InvalidArgument(f"unknown message tag {tag}")
    r.done()
    return msg


def block_size(count: int, fp: FieldParams) -> int:
    """The bytes of an element block of `count` elements: ceil(count * bit_width / 8)."""
    return (count * fp.bit_width + 7) // 8


def encode_elems(values, fp: FieldParams) -> bytes:
    """The packer: elements in [0, q) as bit-packed blocks, vectorized.

    A 1-d `values` is one block; each row of a 2-d one is a block of its
    own, and the blocks are returned back to back. Eight elements fill b
    bytes, so each group of 8 is built as ceil(b / 8) little-endian u64
    words, each word a few shifts and ORs of strided columns, and the first
    b bytes of each group's words are the packed group.
    """
    a = np.asarray(values, dtype=np.int64)
    if a.ndim == 1:
        a = a[None]
    # A negative entry reads as >= 2^63 here; packing it, or any value >= q,
    # would send another element than the one given.
    u = a.view(np.uint64)
    if u.size and u.max() >= fp.q:
        raise InvalidArgument(f"field element outside [0, {fp.q})")
    k, count = u.shape
    b = fp.bit_width
    size = block_size(count, fp)
    if not k or not size:
        return b""
    groups = -(-count // 8)
    if count % 8:
        padded = np.zeros((k, groups * 8), dtype=np.uint64)
        padded[:, :count] = u
        u = padded
    nwords = -(-b // 8)
    words = np.empty((k, groups, nwords), dtype="<u8")
    part = np.empty((k, groups), dtype=np.uint64)
    for w in range(nwords):
        word = words[:, :, w]
        first = True
        for r in range(8):
            # Element r of a group starts at bit r*b - 64w of word w.
            shift = r * b - 64 * w
            if shift >= 64 or shift + b <= 0:
                continue
            out = word if first else part
            if shift >= 0:
                np.left_shift(u[:, r::8], np.uint64(shift), out=out)
            else:
                np.right_shift(u[:, r::8], np.uint64(-shift), out=out)
            if not first:
                np.bitwise_or(word, part, out=word)
            first = False
    packed = words.view(np.uint8).reshape(k, groups, 8 * nwords)[:, :, :b]
    if size < groups * b:
        # The last group runs past the block; what it holds there is zero.
        packed = packed.reshape(k, groups * b)[:, :size]
    return packed.tobytes()


def decode_elems(blocks, count: int, fp: FieldParams) -> np.ndarray:
    """The unpacker: k blocks of `count` elements each as one (k, count) int64 array.

    A block of the wrong length, with a nonzero pad bit or holding an
    element >= q raises MalformedPlaintext with its position. Element i
    starts at stream bit i*b, so the little-endian u64 at byte i*b // 8 of
    its block holds it from bit i*b % 8 (at most 7 + 32 bits): one gather
    from a view with a u64 at every byte, one shift and one mask. Seven
    zero bytes after the last block keep every load inside the buffer;
    what a load reads past its block is masked off.
    """
    b = fp.bit_width
    size = block_size(count, fp)
    for i, block in enumerate(blocks):
        if len(block) != size:
            raise MalformedPlaintext(i, "element block has wrong length")
    k = len(blocks)
    if not k or not size:
        return np.zeros((k, count), dtype=np.int64)
    data = b"".join([*blocks, bytes(7)])
    pad = 8 * size - count * b
    if pad:
        last = np.frombuffer(data, dtype=np.uint8, count=k * size)[size - 1 :: size]
        bad = np.flatnonzero(last >> (8 - pad))
        if bad.size:
            raise MalformedPlaintext(int(bad[0]), "element block has nonzero pad bits")
    loads = np.ndarray((k, size), dtype="<u8", buffer=data, strides=(size, 1))
    bit = np.arange(count, dtype=np.uint64) * np.uint64(b)
    vals = loads[:, bit >> np.uint64(3)]
    vals >>= bit & np.uint64(7)
    vals &= np.uint64((1 << b) - 1)
    bad = np.flatnonzero(vals.max(axis=1) >= fp.q)
    if bad.size:
        raise MalformedPlaintext(int(bad[0]), "element encoding out of range")
    return vals.view("<i8")


# A share plaintext holds the sender's chunk shares for one recipient and
# nothing else, one block of block_size(chunk_count) bytes. The AEAD binds
# its direction: it is sealed with share_ad(sender, recipient) as
# associated data.

def share_ad(sender: int, recipient: int) -> bytes:
    """The associated data of a share ciphertext: sender and recipient as u32s."""
    return struct.pack("<II", sender, recipient)


def encode_share_plaintext(shares, fp: FieldParams) -> list[bytes]:
    """One share plaintext per column of the (chunk count, k) matrix `shares`, in order."""
    shares = np.asarray(shares)
    count, k = shares.shape
    flat = encode_elems(shares.T, fp)
    size = block_size(count, fp)
    return [flat[i * size : (i + 1) * size] for i in range(k)]


# The unpacker itself under the name Round 2 calls, which perfbench traces.
decode_share_plaintext = decode_elems
