"""Elliptic-curve Diffie-Hellman on NIST P-256 with hashed key derivation.

A public key is the compressed P-256 point (33 bytes on the wire), made with
the `cryptography` package. The 32-byte pairwise key is SHA-256 of the
standard ECDH output, the shared point's x coordinate as 32 bytes
big-endian. A peer's public key is input from outside and is validated when
it is decoded.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

from .errors import InvalidArgument

_P256 = ec.SECP256R1()
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


@dataclass(frozen=True)
class KeyPair:
    public: bytes  # compressed point, as sent on the wire
    private_key: ec.EllipticCurvePrivateKey = field(compare=False, repr=False)


def encode_public(key: ec.EllipticCurvePublicKey) -> bytes:
    return key.public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
    )


def decode_public(data: bytes) -> ec.EllipticCurvePublicKey:
    """Decode and validate a public key; raises InvalidArgument if malformed."""
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_P256, data)
    except ValueError as e:
        raise InvalidArgument(f"invalid P-256 point: {e}") from e


def ka_gen(rng=None) -> KeyPair:
    """Fresh keypair; the secret scalar is uniform in [1, order)."""
    if rng is None:
        rng = random.SystemRandom()
    sk = ec.derive_private_key(rng.randrange(1, _P256_ORDER), _P256)
    return KeyPair(encode_public(sk.public_key()), sk)


def ka_agree(keypair: KeyPair, peer_public: bytes) -> bytes:
    """32-byte shared key: SHA-256 of the ECDH shared secret with the peer."""
    peer = decode_public(peer_public)
    return hashlib.sha256(keypair.private_key.exchange(ec.ECDH(), peer)).digest()
