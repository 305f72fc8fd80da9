"""Authenticated encryption envelope: AES-256-GCM with a random 96-bit nonce.

The nonce is prefixed to the authenticated body so the wire form is
self-contained. Key agreement is symmetric, so each pairwise key seals two
messages per protocol run, one in each direction; with so few messages per
key, random nonces are collision-safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import InvalidArgument, Rejected

NONCE_LEN = 12
TAG_LEN = 16
_MAX_PLAINTEXT = 2**31


@dataclass(frozen=True)
class AeCiphertext:
    nonce: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeCiphertext":
        if len(data) < NONCE_LEN + TAG_LEN:
            raise InvalidArgument("ciphertext too short")
        return cls(nonce=data[:NONCE_LEN], body=data[NONCE_LEN:])


def ae_enc(key: bytes, plaintext: bytes, rng=None) -> AeCiphertext:
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    if len(plaintext) > _MAX_PLAINTEXT:
        raise InvalidArgument("plaintext too large")
    nonce = rng.randbytes(NONCE_LEN) if rng is not None else os.urandom(NONCE_LEN)
    body = AESGCM(key).encrypt(nonce, plaintext, None)
    return AeCiphertext(nonce, body)


def ae_dec(key: bytes, ct: AeCiphertext) -> bytes:
    if len(key) != 32:
        raise InvalidArgument("key must be 32 bytes")
    try:
        return AESGCM(key).decrypt(ct.nonce, ct.body, None)
    except InvalidTag as e:
        raise Rejected("authentication failed") from e
