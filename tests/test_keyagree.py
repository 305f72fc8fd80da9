import hashlib
import itertools
import random

import pytest

from fssa.errors import InvalidArgument
from fssa.keyagree import KeyPair, decode_public, encode_public, ka_agree, ka_gen, ka_setup


def test_setup_production_is_p256():
    gp = ka_setup("production")
    assert gp.kind == "p256"
    assert gp.elem_bytes == 33


def test_setup_test_group():
    gp = ka_setup("test")
    assert (gp.modulus, gp.generator) == (23, 5)
    # 5 has full order 22 modulo 23 (verified by enumeration).
    order = next(k for k in range(1, 23) if pow(5, k, 23) == 1)
    assert order == 22 == gp.order


def test_setup_unknown_level():
    with pytest.raises(InvalidArgument):
        ka_setup("bogus")


def test_gen_forced_scalar():
    gp = ka_setup("test")

    class Fixed:
        def __init__(self, x):
            self.x = x

        def randrange(self, lo, hi):
            return self.x

    kp = ka_gen(gp, Fixed(6))
    assert int.from_bytes(kp.public, "big") == pow(5, 6, 23) == 8
    assert int.from_bytes(ka_gen(gp, Fixed(1)).public, "big") == 5


def test_gen_distinct_keys():
    gp = ka_setup("production")
    rng = random.Random(0)
    keys = {ka_gen(gp, rng).public for _ in range(20)}
    assert len(keys) == 20


def test_agree_hand_trace():
    gp = ka_setup("test")
    # x_u = 6, x_v = 15: shared element 5^90 = 5^(90 mod 22) = 5^2 = 2 mod 23.
    pk_u = encode_public(gp, pow(5, 6, 23))
    pk_v = encode_public(gp, pow(5, 15, 23))
    k_uv = ka_agree(KeyPair(6, pk_u), pk_v, gp)
    k_vu = ka_agree(KeyPair(15, pk_v), pk_u, gp)
    assert k_uv == k_vu == hashlib.sha256((2).to_bytes(1, "big")).digest()


def test_agree_same_scalar():
    gp = ka_setup("test")
    pk = encode_public(gp, pow(5, 9, 23))
    assert ka_agree(KeyPair(9, pk), pk, gp) == ka_agree(KeyPair(9, pk), pk, gp)


def test_symmetry_exhaustive_test_group():
    gp = ka_setup("test")
    for xu, xv in itertools.product(range(1, 22), repeat=2):
        pku = encode_public(gp, pow(5, xu, 23))
        pkv = encode_public(gp, pow(5, xv, 23))
        assert ka_agree(KeyPair(xu, pku), pkv, gp) == ka_agree(KeyPair(xv, pkv), pku, gp)


def test_symmetry_production_random_pairs():
    gp = ka_setup("production")
    rng = random.Random(1)
    for _ in range(100):
        a, b = ka_gen(gp, rng), ka_gen(gp, rng)
        assert ka_agree(a, b.public, gp) == ka_agree(b, a.public, gp)


def test_public_key_roundtrip():
    for level in ("test", "production"):
        gp = ka_setup(level)
        rng = random.Random(3)
        for _ in range(100):
            kp = ka_gen(gp, rng)
            assert encode_public(gp, decode_public(gp, kp.public)) == kp.public


def test_invalid_public_keys_rejected():
    gp = ka_setup("test")
    with pytest.raises(InvalidArgument):
        decode_public(gp, b"\x00")  # zero is outside the group
    with pytest.raises(InvalidArgument):
        decode_public(gp, b"\x01\x02")  # wrong length
    gpp = ka_setup("production")
    with pytest.raises(InvalidArgument):
        decode_public(gpp, b"\x02" + (1).to_bytes(32, "big"))  # not on the curve
