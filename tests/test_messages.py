import random

import numpy as np
import pytest

from fssa.errors import InvalidArgument, MalformedPlaintext
from fssa.field import FieldParams
from fssa.messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    decode_elems,
    decode_share_plaintext,
    decode_share_plaintexts,
    deserialize,
    encode_elems,
    encode_share_plaintext,
    encode_share_plaintexts,
    serialize,
    share_ad,
)

F257 = FieldParams(257)
F11 = FieldParams(11)


class TestGoldenBytes:
    """Frozen byte-for-byte wire vectors. Changing these breaks compatibility."""

    def test_client_hello(self):
        blob = serialize(ClientHello(u=3, public_key=b"\x05"), F11)
        assert blob == b"\x00\x03\x00\x00\x00\x01\x00\x00\x00\x05"

    def test_key_broadcast(self):
        blob = serialize(KeyBroadcast(keys=((1, b"\xaa"), (2, b"\xbb"))), F11)
        assert blob == (
            b"\x01\x02\x00\x00\x00"
            b"\x01\x00\x00\x00\x01\x00\x00\x00\xaa"
            b"\x02\x00\x00\x00\x01\x00\x00\x00\xbb"
        )

    def test_share_upload(self):
        blob = serialize(ShareUpload(u=1, ciphertexts=((2, b"\xcc\xdd"),)), F11)
        assert blob == (
            b"\x02\x01\x00\x00\x00\x01\x00\x00\x00"
            b"\x02\x00\x00\x00\x02\x00\x00\x00\xcc\xdd"
        )

    def test_share_delivery(self):
        blob = serialize(ShareDelivery(ciphertexts=((7, b"\xee"),)), F11)
        assert blob == b"\x03\x01\x00\x00\x00\x07\x00\x00\x00\x01\x00\x00\x00\xee"

    def test_sum_shares(self):
        # field elements are fixed-width little-endian: 256 -> 00 01 at width 2
        blob = serialize(SumShares(u=2, sums=(256, 3)), F257)
        assert blob == b"\x04\x02\x00\x00\x00\x02\x00\x00\x00\x00\x01\x03\x00"

    def test_share_plaintext(self):
        # The chunk shares alone; sender and recipient travel as AEAD data.
        blob = encode_share_plaintext([10, 0], F11)
        assert blob == b"\x0a\x00"
        assert decode_share_plaintext(blob, 2, F11).tolist() == [10, 0]

    def test_share_ad(self):
        assert share_ad(1, 2) == b"\x01\0\0\0\x02\0\0\0"


def _random_message(rng, fp):
    kind = rng.randrange(5)
    if kind == 0:
        return ClientHello(u=rng.randrange(1, 1000), public_key=rng.randbytes(rng.randrange(0, 40)))
    if kind == 1:
        us = rng.sample(range(1, 1000), rng.randrange(0, 8))
        return KeyBroadcast(keys=tuple((u, rng.randbytes(33)) for u in sorted(us)))
    if kind == 2:
        vs = rng.sample(range(1, 1000), rng.randrange(0, 8))
        return ShareUpload(
            u=rng.randrange(1, 1000),
            ciphertexts=tuple((v, rng.randbytes(rng.randrange(0, 60))) for v in vs),
        )
    if kind == 3:
        vs = rng.sample(range(1, 1000), rng.randrange(0, 8))
        return ShareDelivery(
            ciphertexts=tuple((v, rng.randbytes(rng.randrange(0, 60))) for v in vs)
        )
    return SumShares(
        u=rng.randrange(1, 1000),
        sums=tuple(rng.randrange(fp.q) for _ in range(rng.randrange(0, 12))),
    )


class TestRoundtrip:
    def test_many_random_messages(self):
        rng = random.Random(42)
        for fp in (F11, F257, FieldParams(33554467)):
            for _ in range(1000):
                msg = _random_message(rng, fp)
                assert deserialize(serialize(msg, fp), fp) == msg

    def test_sum_shares_from_int64_arrays(self):
        rng = np.random.default_rng(4)
        for fp in (F11, F257, FieldParams(33554467)):
            for count in (0, 1, 7, 300):
                sums = rng.integers(0, fp.q, size=count, dtype=np.int64)
                msg = SumShares(u=5, sums=sums)
                assert deserialize(serialize(msg, fp), fp) == msg
                assert msg == SumShares(u=5, sums=tuple(sums.tolist()))
                assert msg != SumShares(u=6, sums=sums)
                if count:
                    changed = sums.copy()
                    changed[-1] = (changed[-1] + 1) % fp.q
                    assert msg != SumShares(u=5, sums=changed)

    def test_share_plaintext_random(self):
        rng = random.Random(9)
        for _ in range(500):
            count, k = rng.randrange(0, 20), rng.randrange(1, 6)
            shares = np.array(
                [[rng.randrange(257) for _ in range(k)] for _ in range(count)], dtype=np.int64
            ).reshape(count, k)
            blobs = encode_share_plaintexts(shares, F257)
            assert len(blobs) == k
            for col, blob in zip(shares.T, blobs):
                assert len(blob) == count * F257.byte_width
                assert blob == encode_share_plaintext(col, F257)
                assert decode_share_plaintext(blob, count, F257).tolist() == col.tolist()
            assert decode_share_plaintexts(blobs, count, F257).tolist() == shares.T.tolist()


class TestValidation:
    def test_unknown_tag(self):
        with pytest.raises(InvalidArgument):
            deserialize(b"\x09", F11)

    def test_truncated(self):
        blob = serialize(ClientHello(u=3, public_key=b"\x05"), F11)
        with pytest.raises(InvalidArgument):
            deserialize(blob[:-1], F11)

    def test_trailing_bytes(self):
        blob = serialize(ClientHello(u=3, public_key=b"\x05"), F11)
        with pytest.raises(InvalidArgument):
            deserialize(blob + b"\x00", F11)

    def test_duplicate_recipient_rejected(self):
        msg = ShareUpload(u=1, ciphertexts=((2, b"a"), (2, b"b")))
        with pytest.raises(InvalidArgument):
            serialize(msg, F11)

    @pytest.mark.parametrize("make", [
        lambda pairs: KeyBroadcast(keys=pairs),
        lambda pairs: ShareUpload(u=9, ciphertexts=pairs),
        lambda pairs: ShareDelivery(ciphertexts=pairs),
    ], ids=["KeyBroadcast", "ShareUpload", "ShareDelivery"])
    def test_duplicate_key_owner_rejected_on_decode(self, make):
        good = serialize(make(((1, b"\xaa"), (2, b"\xbb"))), F11)
        bad = good.replace(b"\x02\x00\x00\x00\x01\x00\x00\x00\xbb", b"\x01\x00\x00\x00\x01\x00\x00\x00\xbb")
        assert len(bad) == len(good) and bad != good
        with pytest.raises(InvalidArgument, match="duplicate client index"):
            deserialize(bad, F11)

    def test_share_plaintext_truncated_or_trailing(self):
        blob = encode_share_plaintext([10, 0], F11)
        for bad in (blob[:-1], blob + b"\x00", b""):
            with pytest.raises(InvalidArgument, match="wrong length"):
                decode_share_plaintext(bad, 2, F11)
        with pytest.raises(InvalidArgument, match="out of range"):
            decode_share_plaintext(b"\x0a\x0b", 2, F11)  # 11 >= q

    def test_share_plaintexts_name_the_bad_one(self):
        good = encode_share_plaintext([10, 0], F11)
        assert decode_share_plaintexts([], 2, F11).shape == (0, 2)
        for bad, why in ((good[:-1], "wrong length"), (good + b"\x00", "wrong length"),
                         (b"\x0a\x0b", "out of range")):
            with pytest.raises(MalformedPlaintext, match=why) as caught:
                decode_share_plaintexts([good, good, bad, good], 2, F11)
            assert caught.value.index == 2

    def test_sum_shares_must_be_integers(self):
        for sums in ([1.5, 2.5], [True], [2**64], ["3"]):
            with pytest.raises(InvalidArgument, match="must be integers"):
                SumShares(u=1, sums=sums)
        assert SumShares(u=1, sums=[]).sums.dtype == np.int64

    def test_element_out_of_range(self):
        blob = serialize(SumShares(u=1, sums=(10,)), F11)
        bad = blob[:-1] + b"\x0b"  # 11 >= q
        with pytest.raises(InvalidArgument):
            deserialize(bad, F11)


class TestElementBlocks:
    def test_roundtrip_various_widths(self):
        rng = random.Random(1)
        for q in (11, 257, 65537, 33554467, 3037000493):
            fp = FieldParams(q)
            vals = [rng.randrange(q) for _ in range(100)] + [0, q - 1]
            blob = encode_elems(vals, fp)
            assert len(blob) == len(vals) * fp.byte_width
            assert decode_elems(blob, len(vals), fp).tolist() == vals

    def test_empty(self):
        assert encode_elems([], F11) == b""
        assert decode_elems(b"", 0, F11).tolist() == []

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidArgument):
            decode_elems(b"\x01\x02", 3, F11)
