"""X25519 Diffie-Hellman (RFC 7748) with hashed key derivation.

A public key is the 32-byte little-endian u coordinate, made with the
`cryptography` package. The 32-byte pairwise key is SHA-256 of the X25519
shared secret. A peer's public key is input from outside and is validated:
only the canonical encoding (u < 2^255 - 19, top bit clear) is accepted, so
that no peer can re-encode another client's key as a different byte string,
and a low-order point, whose shared secret with any key is all zero, is
refused at decode, so the server can leave its hello out.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from .errors import InvalidArgument

_KEY_LEN = 32
_P25519 = 2**255 - 19
# The canonical u-coordinates of the low-order points; their other
# encodings, u + p, are refused as non-canonical.
_LOW_ORDER = frozenset({
    0,
    1,
    _P25519 - 1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
})


@dataclass(frozen=True)
class KeyPair:
    public: bytes  # u coordinate, as sent on the wire
    private_key: X25519PrivateKey = field(compare=False, repr=False)


def encode_public(key: X25519PublicKey) -> bytes:
    return key.public_bytes_raw()


def decode_public(data: bytes) -> X25519PublicKey:
    """Decode a canonical public key of large order; raises InvalidArgument otherwise."""
    if len(data) != _KEY_LEN:
        raise InvalidArgument(f"X25519 public key is {len(data)} bytes, not {_KEY_LEN}")
    u = int.from_bytes(data, "little")
    if u >= _P25519:
        raise InvalidArgument("non-canonical X25519 public key")
    if u in _LOW_ORDER:
        raise InvalidArgument("low-order X25519 public key")
    return X25519PublicKey.from_public_bytes(data)


def ka_gen(rng=None) -> KeyPair:
    """Fresh keypair from one 32-byte draw of `rng`, clamped per RFC 7748.

    The private key is secret only when `rng` is a CSPRNG (the default is
    `random.SystemRandom()`); a seeded `random.Random`, as the simulator
    passes, makes reproducible keys that are not secret.
    """
    if rng is None:
        rng = random.SystemRandom()
    sk = X25519PrivateKey.from_private_bytes(rng.randbytes(_KEY_LEN))
    return KeyPair(encode_public(sk.public_key()), sk)


def ka_agree(keypair: KeyPair, peer_public: bytes) -> bytes:
    """32-byte shared key: SHA-256 of the X25519 shared secret with the peer.

    Raises InvalidArgument for a malformed or low-order peer key.
    """
    peer = decode_public(peer_public)
    try:
        secret = keypair.private_key.exchange(peer)
    except ValueError as e:
        raise InvalidArgument(f"low-order X25519 public key: {e}") from e
    return hashlib.sha256(secret).digest()
