"""Authenticated encryption: AES-256-GCM with a nonce derived from the associated data.

A ciphertext is the sealed plaintext followed by its 16-byte tag; no nonce is
sent. Both ends derive the 96-bit nonce from the associated data `ad`, which
is authenticated but not sent either: `ad` zero-padded to 11 bytes, then its
length, so distinct `ad` values give distinct nonces.

The rule: a (key, ad) pair seals at most one plaintext. GCM under a repeated
(key, nonce) leaks the XOR of the two plaintexts and lets the tag be forged.
In the protocol every pairwise key comes from key pairs drawn fresh in
Round 0, so it lives for one run; key agreement is symmetric, so the key of
u and v seals exactly two messages in that run, one per direction, under
share_ad(u, v) and share_ad(v, u).
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import InvalidArgument, Rejected

NONCE_LEN = 12
TAG_LEN = 16
_MAX_PLAINTEXT = 2**31


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
