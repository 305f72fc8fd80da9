"""Bit-exact wire formats for the five protocol messages.

Layout: 1 tag byte, then fixed-layout fields. Client indices are 4-byte
little-endian; list lengths are 4-byte little-endian counts; public keys and
ciphertexts carry a 4-byte little-endian length prefix; field elements use
the field's fixed byte width, little-endian. Every modulus FieldParams admits
is below 2^32, so an element takes at most 4 bytes and decodes into int64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .field import FieldParams

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
    ciphertexts: tuple  # ((v, ct_bytes), ...) for every other roster member


@dataclass(frozen=True)
class ShareDelivery:
    ciphertexts: tuple  # ((v, ct_bytes), ...) routed to one recipient


@dataclass(frozen=True, eq=False)
class SumShares:
    u: int
    sums: np.ndarray  # one summed share per chunk, int64; any int sequence is converted

    def __post_init__(self):
        object.__setattr__(self, "sums", np.asarray(self.sums, dtype=np.int64))

    def __eq__(self, other):
        if not isinstance(other, SumShares):
            return NotImplemented
        return self.u == other.u and np.array_equal(self.sums, other.sums)


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v):
        self.parts.append(bytes([v]))

    def u32(self, v):
        self.parts.append(_U32.pack(v))

    def blob(self, b):
        self.u32(len(b))
        self.parts.append(bytes(b))

    def getvalue(self):
        return b"".join(self.parts)


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


def serialize(msg, fp: FieldParams) -> bytes:
    w = _Writer()
    if isinstance(msg, ClientHello):
        w.u8(TAG_CLIENT_HELLO)
        w.u32(msg.u)
        w.blob(msg.public_key)
    elif isinstance(msg, KeyBroadcast):
        _check_unique([u for u, _ in msg.keys], "KeyBroadcast")
        w.u8(TAG_KEY_BROADCAST)
        w.u32(len(msg.keys))
        for u, pk in msg.keys:
            w.u32(u)
            w.blob(pk)
    elif isinstance(msg, ShareUpload):
        _check_unique([v for v, _ in msg.ciphertexts], "ShareUpload")
        w.u8(TAG_SHARE_UPLOAD)
        w.u32(msg.u)
        w.u32(len(msg.ciphertexts))
        for v, ct in msg.ciphertexts:
            w.u32(v)
            w.blob(ct)
    elif isinstance(msg, ShareDelivery):
        _check_unique([v for v, _ in msg.ciphertexts], "ShareDelivery")
        w.u8(TAG_SHARE_DELIVERY)
        w.u32(len(msg.ciphertexts))
        for v, ct in msg.ciphertexts:
            w.u32(v)
            w.blob(ct)
    elif isinstance(msg, SumShares):
        w.u8(TAG_SUM_SHARES)
        w.u32(msg.u)
        w.u32(len(msg.sums))
        w.parts.append(encode_elems(msg.sums, fp))
    else:
        raise InvalidArgument(f"unknown message type {type(msg).__name__}")
    return w.getvalue()


def deserialize(data: bytes, fp: FieldParams):
    r = _Reader(data)
    tag = r.u8()
    if tag == TAG_CLIENT_HELLO:
        msg = ClientHello(u=r.u32(), public_key=r.blob())
    elif tag == TAG_KEY_BROADCAST:
        count = r.u32()
        keys = tuple((r.u32(), r.blob()) for _ in range(count))
        _check_unique([u for u, _ in keys], "KeyBroadcast")
        msg = KeyBroadcast(keys=keys)
    elif tag == TAG_SHARE_UPLOAD:
        u = r.u32()
        count = r.u32()
        cts = tuple((r.u32(), r.blob()) for _ in range(count))
        _check_unique([v for v, _ in cts], "ShareUpload")
        msg = ShareUpload(u=u, ciphertexts=cts)
    elif tag == TAG_SHARE_DELIVERY:
        count = r.u32()
        cts = tuple((r.u32(), r.blob()) for _ in range(count))
        _check_unique([v for v, _ in cts], "ShareDelivery")
        msg = ShareDelivery(ciphertexts=cts)
    elif tag == TAG_SUM_SHARES:
        u = r.u32()
        count = r.u32()
        msg = SumShares(u=u, sums=decode_elems(r.take(count * fp.byte_width), count, fp))
    else:
        raise InvalidArgument(f"unknown message tag {tag}")
    r.done()
    return msg


# Share plaintext: sender u, recipient v, chunk count, then the chunk shares.

def encode_elems(values, fp: FieldParams) -> bytes:
    """Pack many field elements as fixed-width little-endian, vectorized."""
    a = np.ascontiguousarray(values, dtype="<u8")
    return a.view(np.uint8).reshape(-1, 8)[:, : fp.byte_width].tobytes()


def decode_elems(data: bytes, count: int, fp: FieldParams) -> np.ndarray:
    """Unpack `count` fixed-width elements into an int64 array; each must be below q."""
    bw = fp.byte_width
    if len(data) != count * bw:
        raise InvalidArgument("element block has wrong length")
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, :bw] = np.frombuffer(data, dtype=np.uint8).reshape(count, bw)
    vals = padded.reshape(-1).view("<u8")
    if count and int(vals.max()) >= fp.q:
        raise InvalidArgument("element encoding out of range")
    return vals.astype(np.int64)


def encode_share_plaintexts(u: int, recipients, shares, fp: FieldParams) -> list[bytes]:
    """The share plaintexts from u to many recipients, encoded in one pass.

    Column i of the (chunk count, len(recipients)) matrix `shares` holds the
    chunk shares for recipients[i]; the result holds one plaintext per
    recipient, in order.
    """
    shares = np.asarray(shares)
    count, k = shares.shape
    size = 12 + count * fp.byte_width
    buf = np.empty((k, size), dtype=np.uint8)
    header = buf[:, :12].view("<u4")
    header[:, 0] = u
    header[:, 1] = recipients
    header[:, 2] = count
    buf[:, 12:] = np.frombuffer(encode_elems(shares.T, fp), dtype=np.uint8).reshape(k, size - 12)
    flat = buf.tobytes()
    return [flat[i : i + size] for i in range(0, k * size, size)]


def encode_share_plaintext(u: int, v: int, shares, fp: FieldParams) -> bytes:
    return encode_share_plaintexts(u, [v], np.reshape(shares, (-1, 1)), fp)[0]


def decode_share_plaintext(data: bytes, fp: FieldParams):
    r = _Reader(data)
    u = r.u32()
    v = r.u32()
    count = r.u32()
    shares = decode_elems(r.take(count * fp.byte_width), count, fp)
    r.done()
    return u, v, shares
