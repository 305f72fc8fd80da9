import random
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fssa.errors import InvalidArgument, MalformedPlaintext
from fssa.field import FieldParams
from fssa.ramp import RampParams
from fssa.messages import (
    ClientHello,
    KeyBroadcast,
    ShareDelivery,
    ShareUpload,
    SumShares,
    block_size,
    decode_elems,
    decode_share_plaintext,
    deserialize,
    encode_elems,
    encode_share_plaintext,
    serialize,
    share_ad,
)

from _oracles import Q_MAX, pack_bits, pack_list

F257 = FieldParams(257)
F11 = FieldParams(11)
# The codec reads n (the bitmap's length) and the field from RampParams.
P11 = RampParams(t=2, d=1, n=10, fp=F11)
P257 = RampParams(t=2, d=1, n=10, fp=F257)
KEY = bytes(range(32))


class TestGoldenBytes:
    """Frozen byte-for-byte wire vectors. Changing these breaks compatibility."""

    def test_client_hello(self):
        # The key is always 32 bytes, so it carries no length.
        blob = serialize(ClientHello(u=3, public_key=b"\x05" * 32), P11)
        assert blob == b"\x00\x03\x00\x00\x00" + b"\x05" * 32

    def test_key_broadcast(self):
        # At n = 10 the bitmap is 2 bytes; indices 1 and 2 set bits 0 and 1.
        blob = serialize(KeyBroadcast(keys=((1, b"\xaa" * 32), (2, b"\xbb" * 32))), P11)
        assert blob == b"\x01\x03\x00\x20\x00\x00\x00" + b"\xaa" * 32 + b"\xbb" * 32

    def test_share_upload(self):
        # Indices {1, 3, 10} set bits 0 and 2 of byte 0 and bit 1 of byte 1.
        blob = serialize(ShareUpload(u=2, ciphertexts=((1, b"\xcc"), (3, b"\xdd"), (10, b"\xee"))), P11)
        assert blob == b"\x02\x02\x00\x00\x00\x05\x02\x01\x00\x00\x00\xcc\xdd\xee"

    def test_share_delivery(self):
        # The sealed list {7}, then the designating list {3, 10} of empty entries.
        blob = serialize(ShareDelivery(ciphertexts=((3, b""), (7, b"\xee"), (10, b""))), P11)
        assert blob == (
            b"\x03"
            b"\x40\x00\x01\x00\x00\x00\xee"
            b"\x04\x02\x00\x00\x00\x00"
        )

    def test_sum_shares(self):
        # Elements packed LSB-first at 9 bits: 256 sets stream bit 8 and 3
        # stream bits 9 and 10, so 18 bits -> 00 07 00.
        blob = serialize(SumShares(u=2, sums=(256, 3)), P257)
        assert blob == b"\x04\x02\x00\x00\x00\x02\x00\x00\x00\x00\x07\x00"

    def test_sum_shares_24_bit(self):
        # At a 24-bit q the packing is the elements as 3-byte little-endian
        # integers back to back.
        fp = FieldParams(13107007)
        assert fp.bit_width == 24
        sums = (0x123456, 1, fp.q - 1)
        blob = serialize(SumShares(u=2, sums=sums), RampParams(t=2, d=1, n=10, fp=fp))
        body = b"\x56\x34\x12\x01\x00\x00\x3e\xff\xc7"
        assert body == b"".join(v.to_bytes(3, "little") for v in sums)
        assert blob == b"\x04\x02\x00\x00\x00\x03\x00\x00\x00" + body

    def test_share_plaintext(self):
        # The chunk shares alone; sender and recipient travel as AEAD data.
        # Two 4-bit elements fill one byte.
        assert encode_share_plaintext([[10], [0]], F11) == [b"\x0a"]
        assert decode_share_plaintext([b"\x0a"], 2, F11).tolist() == [[10, 0]]

    def test_share_ad(self):
        assert share_ad(1, 2) == b"\x01\0\0\0\x02\0\0\0"


def _random_message(rng, params):
    kind = rng.randrange(5)

    def indices():
        return sorted(rng.sample(range(1, params.n + 1), rng.randrange(0, min(8, params.n) + 1)))

    if kind == 0:
        return ClientHello(u=rng.randrange(1, 1000), public_key=rng.randbytes(32))
    if kind == 1:
        return KeyBroadcast(keys=tuple((u, rng.randbytes(32)) for u in indices()))
    size = rng.randrange(1, 60)
    if kind == 2:
        return ShareUpload(
            u=rng.randrange(1, 1000),
            ciphertexts=tuple((v, rng.randbytes(size)) for v in indices()),
        )
    if kind == 3:
        return ShareDelivery(
            ciphertexts=tuple((v, rng.randbytes(rng.choice([0, size]))) for v in indices())
        )
    return SumShares(
        u=rng.randrange(1, 1000),
        sums=tuple(rng.randrange(params.fp.q) for _ in range(rng.randrange(0, 12))),
    )


class TestRoundtrip:
    def test_many_random_messages(self):
        rng = random.Random(42)
        for n, q in ((10, 11), (256, 257), (999, 33554467)):
            params = RampParams(t=2, d=1, n=n, fp=FieldParams(q))
            for _ in range(1000):
                msg = _random_message(rng, params)
                assert deserialize(serialize(msg, params), params) == msg

    def test_sum_shares_from_int64_arrays(self):
        rng = np.random.default_rng(4)
        for fp in (F11, F257, FieldParams(33554467)):
            params = RampParams(t=2, d=1, n=10, fp=fp)
            for count in (0, 1, 7, 300):
                sums = rng.integers(0, fp.q, size=count, dtype=np.int64)
                msg = SumShares(u=5, sums=sums)
                assert deserialize(serialize(msg, params), params) == msg
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
            blobs = encode_share_plaintext(shares, F257)
            assert len(blobs) == k
            for col, blob in zip(shares.T, blobs):
                assert len(blob) == (count * 9 + 7) // 8
                assert blob == encode_elems(col, F257)
            assert decode_share_plaintext(blobs, count, F257).tolist() == shares.T.tolist()

    def test_share_plaintext_layout_independent(self):
        # rss_share_batch returns the transposed view of a (points, chunks)
        # block; the encoder reads it as the same (chunks, points) matrix.
        fp = FieldParams(3276773)
        block = np.random.default_rng(3).integers(0, fp.q, size=(35, 512))
        view = block.T
        assert not view.flags.c_contiguous
        contiguous = np.ascontiguousarray(view)
        assert encode_share_plaintext(view, fp) == encode_share_plaintext(contiguous, fp)
        assert len(encode_share_plaintext(view, fp)) == 35


class TestValidation:
    def test_unknown_tag(self):
        with pytest.raises(InvalidArgument):
            deserialize(b"\x09", P11)

    def test_truncated(self):
        hello = serialize(ClientHello(u=3, public_key=KEY), P11)
        upload = serialize(ShareUpload(u=1, ciphertexts=((2, b"abc"),)), P11)
        # A short key, a list entry that runs past the end, and a message
        # cut inside the bitmap.
        for cut in (hello[:-1], upload[:-1], upload[: 1 + 4 + 1]):
            with pytest.raises(InvalidArgument, match="truncated message"):
                deserialize(cut, P11)

    def test_trailing_bytes(self):
        blob = serialize(ClientHello(u=3, public_key=KEY), P11)
        with pytest.raises(InvalidArgument):
            deserialize(blob + b"\x00", P11)

    @pytest.mark.parametrize("msg", [
        ClientHello(u=1.5, public_key=KEY),
        ClientHello(u=-1, public_key=KEY),
        ClientHello(u=2**32, public_key=KEY),
        ClientHello(u=1, public_key="k" * 32),
        KeyBroadcast(keys=((-1, KEY),)),
        ShareUpload(u=1, ciphertexts=((2.5, b"c"),)),
        ShareUpload(u=1, ciphertexts=((2, "c"),)),
        ShareUpload(u=1, ciphertexts=((2, b"c", 3),)),
        ShareDelivery(ciphertexts=((1, None),)),
        SumShares(u=2**32, sums=[1]),
    ], ids=[
        "hello-float-index", "hello-negative-index", "hello-index-over-u32", "hello-str-key",
        "broadcast-negative-index", "upload-float-entry", "upload-str-ciphertext", "upload-triple",
        "delivery-none-ciphertext", "sums-index-over-u32",
    ])
    def test_field_that_does_not_fit_refused(self, msg):
        # An index outside u32, a payload that is not bytes or an entry that
        # is not a pair is refused as InvalidArgument, never a bare
        # struct.error, TypeError or ValueError.
        why = f"{type(msg).__name__} does not fit the wire layout"
        with pytest.raises(InvalidArgument, match=why):
            serialize(msg, P11)

    def test_unknown_message_type_refused(self):
        with pytest.raises(InvalidArgument, match="unknown message type object"):
            serialize(object(), P11)

    def test_duplicate_recipient_rejected(self):
        msg = ShareUpload(u=1, ciphertexts=((2, b"a"), (2, b"b")))
        with pytest.raises(InvalidArgument):
            serialize(msg, P11)

    # A bitmap cannot name an index twice; a delivery's two lists can.
    @pytest.mark.parametrize("make", [
        lambda pairs: ShareDelivery(ciphertexts=pairs),
    ], ids=["ShareDelivery"])
    def test_duplicate_key_owner_rejected_on_decode(self, make):
        good = serialize(make(((1, b"\xaa"), (2, b""))), P11)
        # Sender 2 moves from the designating list to the sealed one.
        bad = good.replace(b"\x01\x00\x01\x00\x00\x00\xaa\x02", b"\x03\x00\x01\x00\x00\x00\xaa\xbb\x02")
        assert len(bad) == len(good) + 1
        with pytest.raises(InvalidArgument, match="duplicate client index"):
            deserialize(bad, P11)

    def test_share_plaintext_truncated_or_trailing(self):
        blob = encode_elems([10, 0], F11)
        for bad in (blob[:-1], blob + b"\x00", b""):
            with pytest.raises(InvalidArgument, match="wrong length"):
                decode_share_plaintext([bad], 2, F11)
        with pytest.raises(InvalidArgument, match="out of range"):
            decode_share_plaintext([b"\x0b"], 2, F11)  # 11 >= q

    def test_share_plaintexts_name_the_bad_one(self):
        good = encode_elems([10, 0], F11)
        assert decode_share_plaintext([], 2, F11).shape == (0, 2)
        for bad, why in ((good[:-1], "wrong length"), (good + b"\x00", "wrong length"),
                         (b"\x0b", "out of range")):
            with pytest.raises(MalformedPlaintext, match=why) as caught:
                decode_share_plaintext([good, good, bad, good], 2, F11)
            assert caught.value.index == 2

    def test_sum_shares_must_be_integers(self):
        for sums in ([1.5, 2.5], [True], [2**64], ["3"]):
            with pytest.raises(InvalidArgument, match="must be integers"):
                SumShares(u=1, sums=sums)
        assert SumShares(u=1, sums=[]).sums.dtype == np.int64

    def test_encode_refuses_element_outside_field(self):
        # At 4 bits, 261 = 256 + 5 and an int64 -251 would both go out as 5.
        for sums in ([261, 3], np.array([-251, 3], dtype=np.int64), [11, 3], [-1, 3]):
            with pytest.raises(InvalidArgument, match=r"outside \[0, 11\)"):
                serialize(SumShares(u=1, sums=sums), P11)
        with pytest.raises(InvalidArgument, match=r"outside \[0, 257\)"):
            encode_share_plaintext(np.array([[3, 0], [257, 1]]), F257)
        assert deserialize(serialize(SumShares(u=1, sums=[10, 0]), P11), P11).sums.tolist() == [10, 0]

    def test_element_out_of_range(self):
        blob = serialize(SumShares(u=1, sums=(10,)), P11)
        bad = blob[:-1] + b"\x0b"  # 11 >= q
        with pytest.raises(InvalidArgument, match="^element encoding out of range$"):
            deserialize(bad, P11)


class TestElementBlocks:
    def test_roundtrip_various_widths(self):
        rng = random.Random(1)
        for q in (11, 257, 65537, 33554467, 3037000493):
            fp = FieldParams(q)
            vals = [rng.randrange(q) for _ in range(100)] + [0, q - 1]
            blob = encode_elems(vals, fp)
            assert len(blob) == (len(vals) * fp.bit_width + 7) // 8
            assert decode_elems([blob], len(vals), fp).tolist() == [vals]

    def test_empty(self):
        assert encode_elems([], F11) == b""
        assert decode_elems([b""], 0, F11).tolist() == [[]]
        assert decode_elems([], 0, F11).shape == (0, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidArgument):
            decode_elems([b"\x01\x02"], 5, F11)  # 20 bits take 3 bytes


# One prime per bit width b = bits(q-1) from 1 to 32, the field's top q, the
# primes at byte boundaries, and the q of each perfbench workload (wide,
# churn and cohort: n = 50, 100 and 200 at B = 2^16).
_WIDTH_PRIMES = [2] + [sympy.nextprime(2 ** (b - 1)) for b in range(2, 33)]
_PACK_PRIMES = sorted({*_WIDTH_PRIMES, 11, 257, 65537, 3276773, 6553511, 13107007, Q_MAX})


def _layout(a: np.ndarray, layout: str) -> np.ndarray:
    """The same (rows, count) matrix as a C-contiguous, transposed or strided array."""
    if layout == "transposed":
        return np.ascontiguousarray(a.T).T
    if layout == "strided":
        big = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
        big[::2, ::3] = a
        return big[::2, ::3]
    return np.ascontiguousarray(a)


class TestBitPacking:
    def test_prime_per_bit_width(self):
        assert [FieldParams(q).bit_width for q in _WIDTH_PRIMES] == list(range(1, 33))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(q=st.sampled_from(_PACK_PRIMES), count=st.sampled_from([0, 1, 7, 8, 9, 5000]),
           rows=st.integers(1, 3), layout=st.sampled_from(["contiguous", "transposed", "strided"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_inverts(self, q, count, rows, layout, seed):
        fp = FieldParams(q)
        a = np.random.default_rng(seed).integers(0, q, size=(rows, count), dtype=np.int64)
        if count:
            a[0, 0], a[-1, -1] = q - 1, 0
        view = _layout(a, layout)
        blocks = [pack_bits(row, fp.bit_width) for row in a]
        assert all(len(blk) == block_size(count, fp) for blk in blocks)
        assert encode_elems(view, fp) == b"".join(blocks)
        assert encode_share_plaintext(view.T, fp) == blocks
        assert encode_elems(view[0], fp) == blocks[0]
        decoded = decode_elems(blocks, count, fp)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, a)

    # q = 257 packs at 9 bits, so 3 elements take 4 bytes with 5 pad bits;
    # each test first decodes the well-formed block.
    def test_pad_bit_refused(self):
        good = pack_bits([5, 256, 0], 9)
        assert len(good) == 4
        assert decode_elems([good], 3, F257).tolist() == [[5, 256, 0]]
        for bit in range(3, 8):
            bad = good[:-1] + bytes([good[-1] | 1 << bit])
            with pytest.raises(MalformedPlaintext, match="nonzero pad bits") as caught:
                decode_elems([good, bad], 3, F257)
            assert caught.value.index == 1
        wire = serialize(SumShares(u=1, sums=[5, 256, 0]), P257)
        with pytest.raises(InvalidArgument, match="nonzero pad bits"):
            deserialize(wire[:-1] + bytes([wire[-1] | 0x80]), P257)

    @pytest.mark.parametrize("value", [257, 300, 511])
    def test_element_at_or_above_q_refused(self, value):
        good = pack_bits([5, 256, 0], 9)
        assert decode_elems([good], 3, F257).tolist() == [[5, 256, 0]]
        bad = pack_bits([5, value, 0], 9)
        assert len(bad) == len(good)
        with pytest.raises(MalformedPlaintext, match="out of range") as caught:
            decode_elems([good, good, bad], 3, F257)
        assert caught.value.index == 2

    def test_byte_short_or_long_refused(self):
        good = pack_bits([5, 256, 0], 9)
        assert decode_elems([good], 3, F257).tolist() == [[5, 256, 0]]
        for bad in (good[:-1], good + b"\x00"):
            with pytest.raises(MalformedPlaintext, match="wrong length") as caught:
                decode_elems([bad, good], 3, F257)
            assert caught.value.index == 0


def _list_params(n: int):
    # The codec reads only n and fp, and RampParams needs n >= t >= 2, so the
    # one-client bitmap is reached through a stand-in.
    return SimpleNamespace(n=n, fp=FieldParams(65537))


# Each list-bearing message, built from (index, payload) pairs, and the
# offset of its first list.
_LIST_MESSAGES = {
    "KeyBroadcast": (lambda pairs: KeyBroadcast(keys=pairs), 1),
    "ShareUpload": (lambda pairs: ShareUpload(u=4, ciphertexts=pairs), 5),
    "ShareDelivery": (lambda pairs: ShareDelivery(ciphertexts=pairs), 1),
}


class TestListLayout:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(n=st.sampled_from([1, 7, 8, 9, 200, 500]),
           subset=st.sampled_from(["empty", "first", "last", "all", "random"]),
           size=st.sampled_from([0, 1, 32, 91]), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_inverts(self, n, subset, size, seed):
        rng = random.Random(seed)
        indices = {
            "empty": [],
            "first": [1],
            "last": [n],
            "all": list(range(1, n + 1)),
            "random": sorted(rng.sample(range(1, n + 1), rng.randrange(n + 1))),
        }[subset]
        pairs = tuple((i, rng.randbytes(size)) for i in indices)
        params = _list_params(n)
        blob = pack_list(pairs, n, size if pairs else 0)
        assert len(blob) == (n + 7) // 8 + 4 + len(pairs) * size
        msg = ShareUpload(u=7, ciphertexts=pairs)
        wire = serialize(msg, params)
        assert wire == b"\x02\x07\x00\x00\x00" + blob
        assert deserialize(wire, params) == msg
        if size == 32:
            assert serialize(KeyBroadcast(keys=pairs), params) == b"\x01" + blob
        # A delivery splits its entries: sealed (non-empty) first, then designating.
        delivery = ShareDelivery(ciphertexts=tuple((i, p if i % 2 else b"") for i, p in pairs))
        sealed = [(i, p) for i, p in delivery.ciphertexts if p]
        designating = [(i, p) for i, p in delivery.ciphertexts if not p]
        wire = serialize(delivery, params)
        assert wire == (b"\x03" + pack_list(sealed, n, size if sealed else 0)
                        + pack_list(designating, n, 0))
        assert deserialize(wire, params) == delivery

    # n = 9 leaves 7 pad bits in the bitmap's second byte; index 9 is its bit 0.
    @pytest.mark.parametrize("kind", list(_LIST_MESSAGES))
    def test_pad_bit_refused(self, kind):
        make, at = _LIST_MESSAGES[kind]
        params = _list_params(9)
        good = serialize(make(((2, KEY), (9, KEY))), params)
        assert good[at : at + 2] == b"\x02\x01"
        for bit in range(1, 8):
            bad = bytearray(good)
            bad[at + 1] |= 1 << bit
            with pytest.raises(InvalidArgument, match="nonzero pad bits"):
                deserialize(bytes(bad), params)

    # An empty list has entry size 0, so that it has one encoding.
    @pytest.mark.parametrize("kind", list(_LIST_MESSAGES))
    def test_empty_list_of_nonzero_size_refused(self, kind):
        make, at = _LIST_MESSAGES[kind]
        params = _list_params(9)
        good = serialize(make(()), params)
        assert good[at : at + 6] == bytes(6)
        assert deserialize(good, params) == make(())
        bad = bytearray(good)
        bad[at + 2] = 32
        with pytest.raises(InvalidArgument, match="empty list has nonzero entry size"):
            deserialize(bytes(bad), params)

    @pytest.mark.parametrize("kind", list(_LIST_MESSAGES))
    def test_body_short_or_long_refused(self, kind):
        make, _ = _LIST_MESSAGES[kind]
        params = _list_params(9)
        good = serialize(make(((2, KEY), (9, KEY))), params)
        assert deserialize(good, params) == make(((2, KEY), (9, KEY)))
        with pytest.raises(InvalidArgument, match="truncated message"):
            deserialize(good[:-1], params)
        with pytest.raises(InvalidArgument, match="trailing bytes"):
            deserialize(good + b"\x00", params)

    @pytest.mark.parametrize("kind", list(_LIST_MESSAGES))
    @pytest.mark.parametrize("pairs, why", [
        (((0, KEY), (2, KEY)), r"index 0 outside \[1, 9\]"),
        (((2, KEY), (10, KEY)), r"index 10 outside \[1, 9\]"),
        (((5, KEY), (2, KEY)), "indices not strictly ascending at 2"),
        (((2, KEY), (2, KEY)), "indices not strictly ascending at 2"),
        (((2, KEY), (3, KEY + b"\x00")), "a 33-byte entry in a list of 32-byte entries"),
    ], ids=["index-0", "index-n+1", "descending", "repeated", "two-sizes"])
    def test_refused_on_encode(self, kind, pairs, why):
        make, _ = _LIST_MESSAGES[kind]
        params = _list_params(9)
        with pytest.raises(InvalidArgument, match=f"{kind} does not fit the wire layout: {why}"):
            serialize(make(pairs), params)

    def test_key_must_be_32_bytes(self):
        for key in (KEY[:-1], KEY + b"\x00"):
            with pytest.raises(InvalidArgument, match=f"{len(key)}-byte key, not 32"):
                serialize(ClientHello(u=1, public_key=key), P11)
            with pytest.raises(InvalidArgument, match=f"a {len(key)}-byte entry in a list of 32"):
                serialize(KeyBroadcast(keys=((1, KEY), (2, key))), P11)
