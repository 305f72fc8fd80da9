"""Authenticated encryption: AES-256-GCM with a random 96-bit nonce.

A ciphertext is the bytes nonce + body, where body is the sealed plaintext
followed by its 16-byte tag, so the wire form is self-contained. The
associated data `ad` is authenticated but not sent. Key agreement is
symmetric, so each pairwise key seals two messages per protocol run, one per
direction, told apart by their `ad`; with so few messages per key, random
nonces are collision-safe.
"""

from __future__ import annotations

import os

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import InvalidArgument, Rejected

NONCE_LEN = 12
TAG_LEN = 16
_MAX_PLAINTEXT = 2**31


def ae_enc(key: bytes, plaintext: bytes, ad: bytes, rng=None) -> bytes:
    """Seal plaintext under `ad`; returns nonce + body. `rng` supplies the nonce when given."""
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    if len(plaintext) > _MAX_PLAINTEXT:
        raise InvalidArgument("plaintext too large")
    nonce = rng.randbytes(NONCE_LEN) if rng is not None else os.urandom(NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, ad)


def ae_dec(key: bytes, ct: bytes, ad: bytes) -> bytes:
    """Open nonce + body under `ad`; raises Rejected if authentication fails."""
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    if len(ct) < NONCE_LEN + TAG_LEN:
        raise InvalidArgument("ciphertext too short")
    try:
        return AESGCM(key).decrypt(ct[:NONCE_LEN], ct[NONCE_LEN:], ad)
    except InvalidTag as e:
        raise Rejected("authentication failed") from e
