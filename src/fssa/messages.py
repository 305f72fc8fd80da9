"""Bit-exact wire formats for the five protocol messages.

Layout: 1 tag byte, then fixed-layout fields. Integers are 4-byte
little-endian (u32); a public key carries a u32 length prefix; field elements
use the field's fixed byte width, little-endian. Every modulus FieldParams
admits is below 2^32, so an element takes at most 4 bytes and decodes into
int64.

The key roster, an upload's ciphertexts and a delivery's ciphertexts share
one list layout: a u32 count, then per entry a u32 client index, a u32 length
and that many bytes. The indices of one list must be distinct.
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
        # A non-integer entry is refused, not truncated; Server.round2 refuses
        # any entry outside [0, q).
        if sums.size and sums.dtype.kind not in "iu":
            raise InvalidArgument(f"sum shares must be integers, got {sums.dtype}")
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
        msg = SumShares(u=u, sums=decode_elems(r.take(count * fp.byte_width), count, fp))
    else:
        raise InvalidArgument(f"unknown message tag {tag}")
    r.done()
    return msg


def encode_elems(values, fp: FieldParams) -> bytes:
    """Pack many field elements as fixed-width little-endian, vectorized."""
    a = np.ascontiguousarray(values, dtype="<u8")
    return a.view(np.uint8).reshape(-1, 8)[:, : fp.byte_width].tobytes()


def _unpack(data: bytes, count: int, bw: int) -> np.ndarray:
    """`count` fixed-width little-endian elements as uint64, unchecked."""
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, :bw] = np.frombuffer(data, dtype=np.uint8).reshape(count, bw)
    return padded.reshape(-1).view("<u8")


def decode_elems(data: bytes, count: int, fp: FieldParams) -> np.ndarray:
    """Unpack `count` fixed-width elements into an int64 array; each must be below q."""
    if len(data) != count * fp.byte_width:
        raise InvalidArgument("element block has wrong length")
    vals = _unpack(data, count, fp.byte_width)
    if count and int(vals.max()) >= fp.q:
        raise InvalidArgument("element encoding out of range")
    return vals.astype(np.int64)


# A share plaintext is the sender's chunk shares for one recipient and nothing
# else, chunk_count * byte_width bytes. The AEAD binds its direction: it is
# sealed with share_ad(sender, recipient) as associated data.

def share_ad(sender: int, recipient: int) -> bytes:
    """The associated data of a share ciphertext: sender and recipient as u32s."""
    return struct.pack("<II", sender, recipient)


def encode_share_plaintexts(shares, fp: FieldParams) -> list[bytes]:
    """One share plaintext per column of the (chunk count, k) matrix `shares`, in order."""
    shares = np.asarray(shares)
    count, k = shares.shape
    flat = encode_elems(shares.T, fp)
    size = count * fp.byte_width
    return [flat[i * size : (i + 1) * size] for i in range(k)]


def decode_share_plaintexts(plaintexts, count: int, fp: FieldParams) -> np.ndarray:
    """The (k, count) chunk shares of k share plaintexts, in one decode.

    The mirror of encode_share_plaintexts. A plaintext of the wrong length or
    holding an element >= q raises MalformedPlaintext with its position.
    """
    size = count * fp.byte_width
    for i, pt in enumerate(plaintexts):
        if len(pt) != size:
            raise MalformedPlaintext(i, "element block has wrong length")
    k = len(plaintexts)
    vals = _unpack(b"".join(plaintexts), k * count, fp.byte_width).reshape(k, count)
    bad = np.flatnonzero(vals.max(axis=1, initial=0) >= fp.q)
    if bad.size:
        raise MalformedPlaintext(int(bad[0]), "element encoding out of range")
    return vals.astype(np.int64)


def encode_share_plaintext(shares, fp: FieldParams) -> bytes:
    return encode_elems(shares, fp)


def decode_share_plaintext(data: bytes, count: int, fp: FieldParams) -> np.ndarray:
    """The `count` chunk shares of one plaintext; refuses a wrong length or an element >= q."""
    return decode_elems(data, count, fp)
