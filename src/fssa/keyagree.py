"""Diffie-Hellman key agreement with hashed key derivation.

Two instantiations share one interface: the production group is NIST P-256
(via the `cryptography` package) with SHA-256, and the test group is the
multiplicative group modulo a small prime, small enough for exhaustive
checks. Both derive the 32-byte symmetric key by hashing a canonical
big-endian encoding of the shared group element.
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
class GroupParams:
    """Group descriptor: either the P-256 curve or a small multiplicative group."""

    kind: str                 # "p256" or "mod"
    modulus: int = 0          # mod groups only
    generator: int = 0        # mod groups only
    order: int = 0

    @property
    def elem_bytes(self) -> int:
        if self.kind == "p256":
            return 33  # compressed point
        return (self.modulus.bit_length() + 7) // 8


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: bytes  # canonical encoding, as sent on the wire
    # The P-256 private key object, which `ka_agree` uses; None in the test group.
    handle: object = field(default=None, compare=False, repr=False)


def ka_setup(security_level: str) -> GroupParams:
    if security_level == "production":
        return GroupParams(kind="p256", order=_P256_ORDER)
    if security_level == "test":
        # 5 generates the full group of order 22 modulo 23.
        return GroupParams(kind="mod", modulus=23, generator=5, order=22)
    raise InvalidArgument(f"unknown security level {security_level!r}")


def encode_public(gp: GroupParams, value) -> bytes:
    if gp.kind == "p256":
        return value.public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
        )
    return int(value).to_bytes(gp.elem_bytes, "big")


def decode_public(gp: GroupParams, data: bytes):
    """Decode and validate a public key; raises InvalidArgument if malformed."""
    if gp.kind == "p256":
        try:
            return ec.EllipticCurvePublicKey.from_encoded_point(_P256, data)
        except ValueError as e:
            raise InvalidArgument(f"invalid P-256 point: {e}") from e
    if len(data) != gp.elem_bytes:
        raise InvalidArgument("public key has wrong length")
    v = int.from_bytes(data, "big")
    if not 1 <= v < gp.modulus:
        raise InvalidArgument("public key outside the group")
    return v


def ka_gen(gp: GroupParams, rng=None) -> KeyPair:
    """Fresh keypair; the secret scalar is uniform in [1, order)."""
    if rng is None:
        rng = random.SystemRandom()
    x = rng.randrange(1, gp.order)
    if gp.kind == "p256":
        sk = ec.derive_private_key(x, _P256)
        return KeyPair(secret=x, public=encode_public(gp, sk.public_key()), handle=sk)
    pub = pow(gp.generator, x, gp.modulus)
    return KeyPair(secret=x, public=encode_public(gp, pub))


def ka_agree(keypair: KeyPair, peer_public: bytes, gp: GroupParams) -> bytes:
    """32-byte shared key: SHA-256 of the shared group element's encoding.

    For P-256 the hashed encoding is the standard ECDH output (the shared
    point's x coordinate, 32 bytes big-endian), computed with the curve key
    `ka_gen` keeps in `keypair.handle`; for the test group it is the
    fixed-width big-endian shared element.
    """
    peer = decode_public(gp, peer_public)
    if gp.kind == "p256":
        return hashlib.sha256(keypair.handle.exchange(ec.ECDH(), peer)).digest()
    shared = pow(peer, keypair.secret, gp.modulus)
    return hashlib.sha256(shared.to_bytes(gp.elem_bytes, "big")).digest()
