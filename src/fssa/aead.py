"""Authenticated encryption: AES-256-GCM with a nonce derived from the associated data,
and a keystream sampler of field elements under the same pair keys.

A ciphertext is the sealed plaintext followed by its 16-byte tag; no nonce is
sent. Both ends derive the 96-bit nonce from the associated data `ad`, which
is authenticated but not sent either: `ad` zero-padded to 11 bytes, then its
length, so distinct `ad` values give distinct nonces.

The rule: a (key, ad) pair seals at most one plaintext. GCM under a repeated
(key, nonce) leaks the XOR of the two plaintexts and lets the tag be forged.
In the protocol every pairwise key comes from key pairs drawn fresh in
Round 0, so it lives for one run; key agreement is symmetric, so the key of
u and v seals at most two messages in that run, one per direction, under
share_ad(u, v) and share_ad(v, u).

`derive_elems` draws field elements that both ends of a pair compute alike.
Its AES key is SHA-256(_PRG_LABEL || ad || pair key): one key per direction,
never a GCM key, so its counter blocks never meet a sealing's.
"""

from __future__ import annotations

import hashlib

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import InvalidArgument, Rejected

NONCE_LEN = 12
TAG_LEN = 16
_MAX_PLAINTEXT = 2**31
_PRG_LABEL = b"fssa share prg"
_PRG_NONCE = bytes(NONCE_LEN)
_WORD = 8


def _nonce(ad: bytes) -> bytes:
    if len(ad) >= NONCE_LEN:
        raise InvalidArgument(f"associated data must be under {NONCE_LEN} bytes")
    return ad.ljust(NONCE_LEN - 1, b"\0") + bytes([len(ad)])


def ae_enc(key: bytes, plaintext: bytes, ad: bytes) -> bytes:
    """Seal plaintext under `ad`; returns body + tag. Seal each (key, ad) at most once."""
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    if len(plaintext) > _MAX_PLAINTEXT:
        raise InvalidArgument("plaintext too large")
    return AESGCM(key).encrypt(_nonce(ad), plaintext, ad)


def ae_dec(key: bytes, ct: bytes, ad: bytes) -> bytes:
    """Open body + tag under `ad`; raises Rejected if authentication fails."""
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    if len(ct) < TAG_LEN:
        raise InvalidArgument("ciphertext too short")
    try:
        return AESGCM(key).decrypt(_nonce(ad), ct, ad)
    except InvalidTag as e:
        raise Rejected("authentication failed") from e


def _keystream(key: bytes, size: int) -> bytes:
    """The first `size` bytes of the AES-256-CTR keystream under `key`.

    It is the GCM body of `size` zero bytes under a fixed nonce, which is
    cheaper to set up than a separate CTR cipher. A longer stream extends a
    shorter one.
    """
    return AESGCM(key).encrypt(_PRG_NONCE, bytes(size), None)[:-TAG_LEN]


def _accepted_words(key: bytes, count: int, limit: int) -> np.ndarray:
    """The first `count` keystream words below `limit`, reading as far as it takes."""
    size = count
    while True:
        size *= 2
        words = np.frombuffer(_keystream(key, _WORD * size), dtype="<u8")
        words = words[words < limit]
        if words.size >= count:
            return words[:count]


def derive_elems(streams, count: int, q: int) -> np.ndarray:
    """`count` elements uniform in [0, q) per (pair key, ad) stream; shape (streams, count).

    Both ends of a pair draw identical values from (key, ad), and a different
    `ad` gives independent ones. Elements are 8-byte little-endian keystream
    words; a word >= floor(2^64/q)*q (probability below q/2^64 < 2^-32) is
    skipped and the next word is taken, so every element is exactly uniform.
    """
    limit = (2**64 // q) * q
    keys = []
    for key, ad in streams:
        if len(key) != 32:
            raise InvalidArgument("key must be 32 bytes")
        keys.append(hashlib.sha256(_PRG_LABEL + ad + key).digest())
    blob = b"".join(_keystream(k, _WORD * count) for k in keys)
    words = np.frombuffer(blob, dtype="<u8").reshape(len(keys), count)
    if words.max(initial=0) >= limit:
        words = words.copy()
        for i in np.flatnonzero((words >= limit).any(axis=1)):
            words[i] = _accepted_words(keys[i], count, limit)
    # Every element is below q < 2^63, so the int64 view is exact.
    return (words % np.uint64(q)).view(np.int64)
