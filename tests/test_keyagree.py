import random

import pytest

from fssa.errors import InvalidArgument
from fssa.keyagree import decode_public, encode_public, ka_agree, ka_gen

# Compressed encodings of G and 2G on P-256, and SHA-256 of x(2G).
PUB_1 = "036b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
PUB_2 = "037cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
KEY_1_2 = "23775201799b2234a18e8071e409cec80d42632fe77534180afdc533c9b76f81"


class Fixed:
    """Stand-in rng whose one draw is a chosen scalar."""

    def __init__(self, x):
        self.x = x

    def randrange(self, lo, hi):
        assert lo <= self.x < hi
        return self.x


def test_gen_forced_scalar():
    assert ka_gen(Fixed(1)).public.hex() == PUB_1
    assert ka_gen(Fixed(2)).public.hex() == PUB_2


def test_gen_distinct_keys():
    rng = random.Random(0)
    keys = {ka_gen(rng).public for _ in range(20)}
    assert len(keys) == 20


def test_agree_hand_trace():
    a, b = ka_gen(Fixed(1)), ka_gen(Fixed(2))
    # Scalars 1 and 2 share the point 1 * 2G = 2 * G.
    assert ka_agree(a, b.public).hex() == KEY_1_2
    assert ka_agree(b, a.public).hex() == KEY_1_2


def test_symmetry_production_random_pairs():
    rng = random.Random(1)
    for _ in range(100):
        a, b = ka_gen(rng), ka_gen(rng)
        assert ka_agree(a, b.public) == ka_agree(b, a.public)


def test_public_key_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        kp = ka_gen(rng)
        assert encode_public(decode_public(kp.public)) == kp.public


def test_invalid_public_keys_rejected():
    kp = ka_gen(Fixed(1))
    for data in [
        b"",
        b"\x00",                                  # the point at infinity
        b"\x02" + (1).to_bytes(32, "big"),        # not on the curve
        bytes.fromhex(PUB_1)[:-1],                # wrong length
        b"\x05" + bytes.fromhex(PUB_1)[1:],       # unknown point format
    ]:
        with pytest.raises(InvalidArgument):
            decode_public(data)
        with pytest.raises(InvalidArgument):
            ka_agree(kp, data)
