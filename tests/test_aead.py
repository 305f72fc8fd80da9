import os
import random

import pytest

from fssa.aead import NONCE_LEN, TAG_LEN, ae_dec, ae_enc
from fssa.errors import InvalidArgument, Rejected

KEY = bytes(range(32))


def test_roundtrip():
    ct = ae_enc(KEY, b"hello shares")
    assert ae_dec(KEY, ct) == b"hello shares"


def test_empty_plaintext():
    assert ae_dec(KEY, ae_enc(KEY, b"")) == b""


def test_randomized_encryption():
    a = ae_enc(KEY, b"same message")
    b = ae_enc(KEY, b"same message")
    assert a[:NONCE_LEN] != b[:NONCE_LEN] and a[NONCE_LEN:] != b[NONCE_LEN:]


def test_wrong_key_rejected():
    ct = ae_enc(KEY, b"secret")
    with pytest.raises(Rejected):
        ae_dec(os.urandom(32), ct)


def test_bad_key_length():
    with pytest.raises(InvalidArgument):
        ae_enc(b"short", b"m")


def test_wire_form():
    # nonce + sealed plaintext + tag; the nonce comes from the rng when given.
    ct = ae_enc(KEY, b"abc", random.Random(9))
    assert len(ct) == NONCE_LEN + 3 + TAG_LEN
    assert ct[:NONCE_LEN] == random.Random(9).randbytes(NONCE_LEN)
    for short in (b"", ct[: NONCE_LEN + TAG_LEN - 1]):
        with pytest.raises(InvalidArgument, match="too short"):
            ae_dec(KEY, short)


def test_roundtrip_many_random():
    rng = random.Random(77)
    for _ in range(1000):
        key = rng.randbytes(32)
        msg = rng.randbytes(rng.randrange(0, 64))
        assert ae_dec(key, ae_enc(key, msg, rng)) == msg


def test_every_bit_flip_rejected():
    ct = ae_enc(KEY, b"x", random.Random(5))
    blob = bytearray(ct)
    for i in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[i // 8] ^= 1 << (i % 8)
        with pytest.raises(Rejected):
            ae_dec(KEY, bytes(mutated))
