import random

import pytest

from fssa.errors import InvalidArgument
from fssa.keyagree import decode_public, encode_public, ka_agree, ka_gen

# RFC 7748 section 6.1: Alice's and Bob's private and public keys, and
# SHA-256 of their shared secret 4a5d9d5b...1e161742.
PRIV_A = "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
PUB_A = "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
PRIV_B = "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
PUB_B = "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
KEY_A_B = "dead45a1d43d6902aa9240b43c0d75a0b5fc750660590d6d45461cbfc4010684"

P25519 = 2**255 - 19
# A point of order 8 on Curve25519.
ORDER_8 = "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"


def u_bytes(u):
    return u.to_bytes(32, "little")


class Fixed:
    """Stand-in rng whose one draw is a chosen private key."""

    def __init__(self, hex_key):
        self.key = bytes.fromhex(hex_key)
        self.draws = 0

    def randbytes(self, n):
        assert n == 32
        self.draws += 1
        return self.key


def test_gen_forced_scalar():
    rng = Fixed(PRIV_A)
    assert ka_gen(rng).public.hex() == PUB_A
    assert rng.draws == 1
    assert ka_gen(Fixed(PRIV_B)).public.hex() == PUB_B


def test_gen_distinct_keys():
    rng = random.Random(0)
    keys = {ka_gen(rng).public for _ in range(20)}
    assert len(keys) == 20


def test_agree_hand_trace():
    a, b = ka_gen(Fixed(PRIV_A)), ka_gen(Fixed(PRIV_B))
    assert ka_agree(a, b.public).hex() == KEY_A_B
    assert ka_agree(b, a.public).hex() == KEY_A_B


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
    kp = ka_gen(Fixed(PRIV_A))
    pub_b = bytes.fromhex(PUB_B)
    for data in [
        b"",
        pub_b[:-1],                               # 31 bytes
        b"\x02" + pub_b,                          # 33 bytes, the old compressed length
        pub_b[:-1] + bytes([pub_b[-1] | 0x80]),   # top-bit alias of a valid key
        u_bytes(P25519),                          # u = p
        u_bytes(2**255 - 1),
    ]:
        with pytest.raises(InvalidArgument):
            decode_public(data)
        with pytest.raises(InvalidArgument):
            ka_agree(kp, data)


@pytest.mark.parametrize(
    "data", [u_bytes(0), u_bytes(1), u_bytes(P25519 - 1), bytes.fromhex(ORDER_8)],
    ids=["u=0", "u=1", "u=p-1", "order-8"],
)
def test_low_order_points_refused(data):
    kp = ka_gen(Fixed(PRIV_A))
    decode_public(data)  # canonical, so only the agreement can refuse it
    with pytest.raises(InvalidArgument, match="low-order"):
        ka_agree(kp, data)
