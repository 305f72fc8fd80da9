import os
import random

import numpy as np
import pytest

from fssa import aead
from fssa.aead import NONCE_LEN, TAG_LEN, ae_dec, ae_enc, derive_elems
from fssa.errors import InvalidArgument, Rejected
from fssa.messages import share_ad

KEY = bytes(range(32))
AD = share_ad(1, 2)


def test_roundtrip():
    ct = ae_enc(KEY, b"hello shares", AD)
    assert ae_dec(KEY, ct, AD) == b"hello shares"


def test_empty_plaintext():
    assert ae_dec(KEY, ae_enc(KEY, b"", AD), AD) == b""


def test_sealing_is_deterministic():
    # The nonce comes from the associated data, so one (key, plaintext, ad)
    # always seals to the same bytes.
    assert ae_enc(KEY, b"same message", AD) == ae_enc(KEY, b"same message", AD)


def test_directions_get_different_nonces():
    # u -> v and v -> u share one key; their nonces differ, so the same
    # plaintext seals to unrelated bodies, not only different tags.
    a = ae_enc(KEY, b"same message", share_ad(1, 2))
    b = ae_enc(KEY, b"same message", share_ad(2, 1))
    assert a[:-TAG_LEN] != b[:-TAG_LEN] and a[-TAG_LEN:] != b[-TAG_LEN:]


def test_associated_data_below_nonce_length():
    # Every ad under NONCE_LEN bytes maps to its own nonce; a longer one
    # would not fit and is refused.
    ae_enc(KEY, b"m", bytes(NONCE_LEN - 1))
    with pytest.raises(InvalidArgument, match="associated data"):
        ae_enc(KEY, b"m", bytes(NONCE_LEN))
    assert ae_enc(KEY, b"m", b"ab") != ae_enc(KEY, b"m", b"ab\0")


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


def test_open_with_short_key_refused():
    with pytest.raises(InvalidArgument, match="key must be 32 bytes"):
        ae_dec(KEY[:31], ae_enc(KEY, b"m", AD), AD)


def test_wire_form():
    # Sealed plaintext + tag; neither the nonce nor the associated data is sent.
    ct = ae_enc(KEY, b"abc", AD)
    assert len(ct) == 3 + TAG_LEN
    with pytest.raises(TypeError):
        ae_enc(KEY, b"abc", AD, random.Random(9))  # no rng: nothing is drawn


def test_short_body_rejected():
    for short in (b"", ae_enc(KEY, b"", AD)[: TAG_LEN - 1]):
        with pytest.raises(InvalidArgument, match="too short"):
            ae_dec(KEY, short, AD)


def test_roundtrip_many_random():
    rng = random.Random(77)
    for _ in range(1000):
        key = rng.randbytes(32)
        msg = rng.randbytes(rng.randrange(0, 64))
        ad = share_ad(rng.randrange(1, 500), rng.randrange(1, 500))
        assert ae_dec(key, ae_enc(key, msg, ad), ad) == msg


def test_every_bit_flip_rejected():
    ct = ae_enc(KEY, b"x", AD)
    blob = bytearray(ct)
    for i in range(len(blob) * 8):
        mutated = bytearray(blob)
        mutated[i // 8] ^= 1 << (i % 8)
        with pytest.raises(Rejected):
            ae_dec(KEY, bytes(mutated), AD)


Q = 13107007  # the modulus planned for n=200, B=2^16


def test_derive_same_at_both_ends():
    # Sender and recipient draw from (pair key, share_ad(sender, recipient)).
    a = derive_elems([(KEY, share_ad(1, 2)), (KEY, share_ad(1, 3))], 50, Q)
    b = derive_elems([(KEY, share_ad(1, 3))], 50, Q)
    assert a.shape == (2, 50) and a.dtype == np.int64
    assert (a[1] == b[0]).all()
    assert (a == derive_elems([(KEY, share_ad(1, 2)), (KEY, share_ad(1, 3))], 50, Q)).all()


def test_derive_depends_on_ad_and_key():
    base = derive_elems([(KEY, share_ad(1, 2))], 20, Q)[0]
    for key, ad in [(KEY, share_ad(2, 1)), (KEY, share_ad(1, 3)), (bytes(32), share_ad(1, 2))]:
        assert (derive_elems([(key, ad)], 20, Q)[0] != base).any()


def test_derive_prefix_stable_and_in_range():
    for q in (2, 5, 11, Q):
        vals = derive_elems([(KEY, AD)], 4000, q)[0]
        assert vals.min() >= 0 and vals.max() < q
        assert (derive_elems([(KEY, AD)], 100, q)[0] == vals[:100]).all()
    assert set(derive_elems([(KEY, AD)], 200, 5)[0].tolist()) == set(range(5))


def test_derive_is_not_the_gcm_keystream():
    # The sampler's AES key is hashed from a label, the ad and the pair key,
    # so its words are not the GCM body of zeros under the pair key.
    body = ae_enc(KEY, bytes(80), AD)[:-TAG_LEN]
    words = np.frombuffer(body, dtype="<u8")
    assert (derive_elems([(KEY, AD)], 10, Q)[0] != (words % np.uint64(Q)).astype(np.int64)).any()


def test_rejected_word_refilled_deterministically(monkeypatch):
    # A word at or above floor(2^64/q)*q is skipped and the next word of the
    # same stream is taken, so both ends still draw identical values.
    def stream(key, size):
        # 2^64 - 1 is rejected for every odd q; then the words 0, 1, 2, ...
        words = np.arange(-1, size // 8 - 1, dtype=np.int64).astype("<u8")
        words[0] = 2**64 - 1
        return words.tobytes()

    monkeypatch.setattr(aead, "_keystream", stream)
    got = derive_elems([(KEY, AD), (KEY, share_ad(2, 1))], 30, 11)
    assert got.tolist() == [[w % 11 for w in range(30)]] * 2
    assert (got == derive_elems([(KEY, AD), (KEY, share_ad(2, 1))], 30, 11)).all()


def test_derive_bad_key_length():
    with pytest.raises(InvalidArgument):
        derive_elems([(b"short", AD)], 3, Q)
