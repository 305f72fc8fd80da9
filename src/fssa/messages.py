"""Bit-exact wire formats for the five protocol messages.

Layout: 1 tag byte, then fixed-layout fields. Integers are 4-byte
little-endian (u32); a public key carries a u32 length prefix; field elements
use the field's fixed byte width, little-endian. Every modulus FieldParams
admits is below 2^32, so an element takes at most 4 bytes and decodes into
int64.

The key roster, an upload's ciphertexts and a delivery's ciphertexts share
one list layout: a u32 count, then per entry a u32 client index, a u32 length
and that many bytes. The indices of one list must be distinct.

Elements travel in element blocks, fixed-width elements back to back. A
SumShares body is one block, and so is a share plaintext, the AEAD plaintext
that carries a sender's chunk shares to one recipient. Every block goes
through one packer (`encode_elems`) and one unpacker (`decode_elems`, which
Round 2 calls as `decode_share_plaintext`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MalformedPlaintext
from .field import FieldParams

TAG_CLIENT_HELLO = 0
TAG_KEY_BROADCAST = 1
TAG_SHARE_UPLOAD = 2
TAG_SHARE_DELIVERY = 3
TAG_SUM_SHARES = 4

_U32 = struct.Struct("<I")
_ENTRY = struct.Struct("<II")  # list entry: client index, length


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
    ciphertexts: tuple  # ((v, ct_bytes), ...) for every other roster member


@dataclass(frozen=True)
class ShareDelivery:
    ciphertexts: tuple  # ((v, ct_bytes), ...) routed to one recipient; b"" if v designates it


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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise InvalidArgument("truncated message")
        out = self.data[self.pos : self.pos + k]
        self.pos += k
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self):
        if self.pos != len(self.data):
            raise InvalidArgument("trailing bytes after message")


def _check_unique(indices, what):
    if len(set(indices)) != len(indices):
        raise InvalidArgument(f"duplicate client index in {what}")


def _pack_list(pairs, what) -> list[bytes]:
    """The list layout of (index, bytes) pairs, as parts to join."""
    _check_unique([i for i, _ in pairs], what)
    parts = [_U32.pack(len(pairs))]
    for i, b in pairs:
        parts += (_ENTRY.pack(i, len(b)), b)
    return parts


def _read_list(r: _Reader, what) -> tuple:
    """The list at the reader's position, one `unpack_from` per entry header."""
    count = r.u32()
    data, pos, end = r.data, r.pos, len(r.data)
    unpack = _ENTRY.unpack_from
    pairs = []
    try:
        for _ in range(count):
            i, size = unpack(data, pos)
            pos += _ENTRY.size
            if pos + size > end:
                raise InvalidArgument("truncated message")
            pairs.append((i, data[pos : pos + size]))
            pos += size
    except struct.error:
        raise InvalidArgument("truncated message") from None
    r.pos = pos
    _check_unique([i for i, _ in pairs], what)
    return tuple(pairs)


def serialize(msg, fp: FieldParams) -> bytes:
    """The wire bytes of `msg`. InvalidArgument refuses what does not fit the
    layout: an index that is not a u32, a key or ciphertext that is not
    bytes, a list entry that is not an (index, bytes) pair (these three
    named with the message type), a repeated index, or an element outside
    [0, q)."""
    try:
        if isinstance(msg, ClientHello):
            parts = [struct.pack("<BII", TAG_CLIENT_HELLO, msg.u, len(msg.public_key)), msg.public_key]
        elif isinstance(msg, KeyBroadcast):
            parts = [bytes([TAG_KEY_BROADCAST]), *_pack_list(msg.keys, "KeyBroadcast")]
        elif isinstance(msg, ShareUpload):
            head = struct.pack("<BI", TAG_SHARE_UPLOAD, msg.u)
            parts = [head, *_pack_list(msg.ciphertexts, "ShareUpload")]
        elif isinstance(msg, ShareDelivery):
            parts = [bytes([TAG_SHARE_DELIVERY]), *_pack_list(msg.ciphertexts, "ShareDelivery")]
        elif isinstance(msg, SumShares):
            head = struct.pack("<BII", TAG_SUM_SHARES, msg.u, len(msg.sums))
            parts = [head, encode_elems(msg.sums, fp)]
        else:
            raise InvalidArgument(f"unknown message type {type(msg).__name__}")
        return b"".join(parts)
    except InvalidArgument:
        raise
    except (struct.error, TypeError, ValueError) as e:
        raise InvalidArgument(f"{type(msg).__name__} does not fit the wire layout: {e}") from None


def deserialize(data: bytes, fp: FieldParams):
    r = _Reader(data)
    tag = r.u8()
    if tag == TAG_CLIENT_HELLO:
        msg = ClientHello(u=r.u32(), public_key=r.blob())
    elif tag == TAG_KEY_BROADCAST:
        msg = KeyBroadcast(keys=_read_list(r, "KeyBroadcast"))
    elif tag == TAG_SHARE_UPLOAD:
        msg = ShareUpload(u=r.u32(), ciphertexts=_read_list(r, "ShareUpload"))
    elif tag == TAG_SHARE_DELIVERY:
        msg = ShareDelivery(ciphertexts=_read_list(r, "ShareDelivery"))
    elif tag == TAG_SUM_SHARES:
        u, count = r.u32(), r.u32()
        msg = SumShares(u=u, sums=decode_elems([r.take(count * fp.byte_width)], count, fp)[0])
    else:
        raise InvalidArgument(f"unknown message tag {tag}")
    r.done()
    return msg


def encode_elems(values, fp: FieldParams) -> bytes:
    """The packer: elements in [0, q) as one fixed-width little-endian block, vectorized."""
    a = np.asarray(values, dtype=np.int64)
    # Truncating to byte_width bytes would send another value than the one given.
    if a.size and (a.min() < 0 or a.max() >= fp.q):
        raise InvalidArgument(f"field element outside [0, {fp.q})")
    a = np.ascontiguousarray(a, dtype="<u8")
    return a.view(np.uint8).reshape(-1, 8)[:, : fp.byte_width].tobytes()


def decode_elems(blocks, count: int, fp: FieldParams) -> np.ndarray:
    """The unpacker: k blocks of `count` elements each as one (k, count) int64 array.

    A block of the wrong length or holding an element >= q raises
    MalformedPlaintext with its position.
    """
    bw = fp.byte_width
    for i, block in enumerate(blocks):
        if len(block) != count * bw:
            raise MalformedPlaintext(i, "element block has wrong length")
    k = len(blocks)
    padded = np.zeros((k * count, 8), dtype=np.uint8)
    padded[:, :bw] = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, bw)
    vals = padded.reshape(-1).view("<u8").reshape(k, count)
    bad = np.flatnonzero(vals.max(axis=1, initial=0) >= fp.q)
    if bad.size:
        raise MalformedPlaintext(int(bad[0]), "element encoding out of range")
    return vals.astype(np.int64)


# A share plaintext holds the sender's chunk shares for one recipient and
# nothing else, chunk_count * byte_width bytes. The AEAD binds its direction:
# it is sealed with share_ad(sender, recipient) as associated data.

def share_ad(sender: int, recipient: int) -> bytes:
    """The associated data of a share ciphertext: sender and recipient as u32s."""
    return struct.pack("<II", sender, recipient)


def encode_share_plaintext(shares, fp: FieldParams) -> list[bytes]:
    """One share plaintext per column of the (chunk count, k) matrix `shares`, in order."""
    shares = np.asarray(shares)
    count, k = shares.shape
    flat = encode_elems(shares.T, fp)
    size = count * fp.byte_width
    return [flat[i * size : (i + 1) * size] for i in range(k)]


# The unpacker itself under the name Round 2 calls, which perfbench traces.
decode_share_plaintext = decode_elems
