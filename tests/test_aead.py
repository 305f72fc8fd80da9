import os
import random

import pytest

from fssa.aead import NONCE_LEN, TAG_LEN, ae_dec, ae_enc
from fssa.errors import InvalidArgument, Rejected
from fssa.messages import share_ad

KEY = bytes(range(32))
AD = share_ad(1, 2)


def test_roundtrip():
    ct = ae_enc(KEY, b"hello shares", AD)
    assert ae_dec(KEY, ct, AD) == b"hello shares"


def test_empty_plaintext():
    assert ae_dec(KEY, ae_enc(KEY, b"", AD), AD) == b""


def test_randomized_encryption():
    a = ae_enc(KEY, b"same message", AD)
    b = ae_enc(KEY, b"same message", AD)
    assert a[:NONCE_LEN] != b[:NONCE_LEN] and a[NONCE_LEN:] != b[NONCE_LEN:]


def test_wrong_key_rejected():
    ct = ae_enc(KEY, b"secret", AD)
    with pytest.raises(Rejected):
        ae_dec(os.urandom(32), ct, AD)


@pytest.mark.parametrize("ad", [share_ad(2, 1), share_ad(1, 3), b""],
                         ids=["swapped", "other-pair", "empty"])
def test_wrong_associated_data_rejected(ad):
    # The associated data names the direction; a ciphertext sealed from 1 to
    # 2 opens under no other.
    ct = ae_enc(KEY, b"secret", AD)
    with pytest.raises(Rejected):
        ae_dec(KEY, ct, ad)


def test_associated_data_required():
    with pytest.raises(TypeError):
        ae_enc(KEY, b"m")
    with pytest.raises(TypeError):
        ae_dec(KEY, ae_enc(KEY, b"m", AD))


def test_bad_key_length():
    with pytest.raises(InvalidArgument):
        ae_enc(b"short", b"m", AD)


def test_wire_form():
    # nonce + sealed plaintext + tag; the associated data is not sent, and
    # the nonce comes from the rng when given.
    ct = ae_enc(KEY, b"abc", AD, random.Random(9))
    assert len(ct) == NONCE_LEN + 3 + TAG_LEN
    assert ct[:NONCE_LEN] == random.Random(9).randbytes(NONCE_LEN)
    for short in (b"", ct[: NONCE_LEN + TAG_LEN - 1]):
        with pytest.raises(InvalidArgument, match="too short"):
            ae_dec(KEY, short, AD)


def test_roundtrip_many_random():
    rng = random.Random(77)
    for _ in range(1000):
        key = rng.randbytes(32)
        msg = rng.randbytes(rng.randrange(0, 64))
        ad = share_ad(rng.randrange(1, 500), rng.randrange(1, 500))
        assert ae_dec(key, ae_enc(key, msg, ad, rng), ad) == msg


def test_every_bit_flip_rejected():
    ct = ae_enc(KEY, b"x", AD, random.Random(5))
    blob = bytearray(ct)
    for i in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[i // 8] ^= 1 << (i % 8)
        with pytest.raises(Rejected):
            ae_dec(KEY, bytes(mutated), AD)
