import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssa.errors import InsufficientShares, InvalidArgument
from fssa.field import FieldParams, build_recon_matrix, find_field_modulus, mod_matmul, poly_eval
from fssa.protocol import chunk_vector
from fssa.ramp import (
    RampParams,
    naive_aggregate_oracle,
    rss_recon,
    rss_share_batch,
    share_view_histogram,
)

from _sharing import share_everywhere

F5 = FieldParams(5)
F11 = FieldParams(11)


def textbook_shamir_recon(shares, q):
    """Independent reference reconstruction (Lagrange at zero)."""
    pts = list(shares)
    total = 0
    for p in pts:
        lam = 1
        for r in pts:
            if r != p:
                lam = lam * ((-r) % q) % q * pow((p - r) % q, -1, q) % q
        total = (total + lam * shares[p]) % q
    return total


class TestRampParams:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidArgument, match="no random coefficient"):
            RampParams(t=3, d=3, n=4, fp=F11)

    def test_too_many_parties(self):
        with pytest.raises(InvalidArgument):
            RampParams(t=2, d=1, n=11, fp=F11)  # n must be <= q - 1

    def test_outside_kernel_range(self):
        # At q = 2^31 - 1 the exact kernel serves inner length t < 32 only:
        # a larger t is refused here, not later inside mod_matmul.
        RampParams(t=31, d=1, n=64, fp=FieldParams(2147483647))
        with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
            RampParams(t=64, d=1, n=64, fp=FieldParams(2147483647))


class TestShare:
    def test_hand_polynomial(self):
        # The value 2 pinned at point 3 makes f(x) = 5 + 7x + x^2.
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        assert rss_share_batch(rp, [[5, 7]], [1, 2], [3], [[2]]).tolist() == [[2, 1]]

    def test_zero_polynomial(self):
        rp = RampParams(t=2, d=1, n=3, fp=F11)
        assert rss_share_batch(rp, [[0]], [1, 2], [3], [[0]]).tolist() == [[0, 0]]

    def test_mod_five_line(self):
        # f(x) = 3 + 2x mod 5, pinned by f(4) = 1 or by f(2) = 2.
        rp = RampParams(t=2, d=1, n=4, fp=F5)
        assert rss_share_batch(rp, [[3]], [1, 2, 3], [4], [[1]]).tolist() == [[0, 2, 4]]
        assert rss_share_batch(rp, [[3]], [1, 3, 4], [2], [[2]]).tolist() == [[0, 4, 1]]

    def test_secret_too_long(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        with pytest.raises(InvalidArgument, match="secrets must be a"):
            rss_share_batch(rp, [[1, 2, 3]], [1, 2], [3], [[0]])

    def test_wrong_coefficient_count(self):
        # One designated value per high coefficient: none for t - d = 1 is refused.
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        with pytest.raises(InvalidArgument, match=r"\(1, 1\) array"):
            rss_share_batch(rp, [[5, 7]], [1, 2], [3], [[]])

    def test_short_secret_zero_padded(self):
        # chunk_vector pads the last chunk; the padding reconstructs as zeros.
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        shares = share_everywhere(rp, chunk_vector([5], rp.d, 11), [2], random.Random(1))
        assert rss_recon(rp, {p: s[0] for p, s in shares.items()}) == [5, 0]

    def test_batch_agrees_with_scalar(self):
        rp = RampParams(t=4, d=2, n=6, fp=F11)
        secrets = np.array([[1, 2], [3, 4], [0, 10]])
        designated, points = [5, 6], [1, 2, 3, 4]
        values = np.random.default_rng(0).integers(0, 11, size=(3, 2))
        mat = rss_share_batch(rp, secrets, points, designated, values)
        for i, secret in enumerate(secrets):
            shares = {p: int(mat[i, j]) for j, p in enumerate(points)}
            assert rss_recon(rp, shares) == list(secret)
            shares.update({p: int(values[i, j]) for j, p in enumerate(designated)})
            assert rss_recon(rp, {p: shares[p] for p in (1, 2, 5, 6)}) == list(secret)

    def test_batch_pinned_coeffs(self):
        # Designated values pinned to those of known high coefficients: the
        # solve recovers exactly that polynomial.
        rp = RampParams(t=4, d=2, n=6, fp=F11)
        secrets = np.array([[1, 2], [3, 4]])
        pinned = [[5, 6], [7, 8]]
        designated, points = [2, 5], [1, 3, 4, 6]
        polys = [secrets[i].tolist() + high for i, high in enumerate(pinned)]
        values = [[poly_eval(poly, x, F11) for x in designated] for poly in polys]
        mat = rss_share_batch(rp, secrets, points, designated, values)
        for i, poly in enumerate(polys):
            assert mat[i].tolist() == [poly_eval(poly, x, F11) for x in points]

    @pytest.mark.parametrize("bad", [0, 11, -22])
    def test_batch_point_zero_mod_q_rejected(self, bad):
        # The share at point 0 is the chunk's first secret element in the clear.
        rp = RampParams(t=3, d=2, n=4, fp=F11)
        with pytest.raises(InvalidArgument, match="nonzero"):
            rss_share_batch(rp, np.array([[7, 8]]), [1, 2, bad], [4], [[3]])
        with pytest.raises(InvalidArgument, match="nonzero"):
            rss_share_batch(rp, np.array([[7, 8]]), [1, 2], [bad], [[3]])

    @pytest.mark.parametrize("points, designated, values, why", [
        ([1, 2, 4], [4], [[3]], "overlap"),
        ([1, 2, 3], [4, 15], [[3, 3]], "1 designated points"),
        ([1, 2, 3], [4], [[3, 3]], r"\(1, 1\) array"),
        ([1, 2, 3], [4], [[11]], r"lie in \[0, 11\)"),
        ([1, 2, 3.0], [4], [[3]], "points must be integers"),
        ([1, 2, 3], [np.float64(4)], [[3]], "points must be integers"),
    ], ids=["overlap", "designated-count", "values-shape", "values-range", "float-point",
            "float-designated"])
    def test_batch_bad_designated_rejected(self, points, designated, values, why):
        rp = RampParams(t=3, d=2, n=4, fp=F11)
        with pytest.raises(InvalidArgument, match=why):
            rss_share_batch(rp, np.array([[7, 8]]), points, designated, values)

    def test_batch_matches_poly_eval_at_desk_shape(self):
        # The n=100, rho=gamma=0.3, B=2^16 plan: t=70, d=40, t-d=30 designated.
        fp = find_field_modulus(100, 2**16)
        rp = RampParams(t=70, d=40, n=100, fp=fp)
        rng = np.random.default_rng(5)
        secrets = rng.integers(0, 2**16, size=(250, rp.d))
        high = rng.integers(0, fp.q, size=(250, rp.t - rp.d))
        designated = list(range(31, 61))
        points = [p for p in rp.default_points() if p not in designated]
        polys = [secrets[i].tolist() + high[i].tolist() for i in range(250)]
        values = [[poly_eval(poly, x, fp) for x in designated] for poly in polys]
        mat = rss_share_batch(rp, secrets, points, designated, values)
        pick = random.Random(7)
        for _ in range(300):
            i, j = pick.randrange(250), pick.randrange(len(points))
            assert int(mat[i, j]) == poly_eval(polys[i], points[j], fp)
        # Points given as numpy integers share exactly as the same Python ints.
        as_arrays = rss_share_batch(rp, secrets, np.array(points), np.array(designated), values)
        assert np.array_equal(as_arrays, mat)

    def test_designated_plus_any_sent_points_reconstruct(self):
        # The t-d designated shares and any d sent ones fix the polynomial:
        # its secret is the input, and it evaluates bit-exactly to every share.
        fp = find_field_modulus(20, 2**16)
        rp = RampParams(t=14, d=8, n=20, fp=fp)
        rng = np.random.default_rng(9)
        secrets = rng.integers(0, 2**16, size=(12, rp.d))
        values = rng.integers(0, fp.q, size=(12, rp.t - rp.d))
        designated = [6, 7, 8, 9, 10, 11]
        points = [p for p in rp.default_points() if p not in designated]
        mat = rss_share_batch(rp, secrets, points, designated, values)
        pick = random.Random(3)
        for i in range(12):
            sent = pick.sample(range(len(points)), rp.t - len(designated))
            pts = designated + [points[j] for j in sent]
            shares = values[i].tolist() + [int(mat[i, j]) for j in sent]
            coeffs = mod_matmul(
                build_recon_matrix(pts, rp.t, fp), np.array(shares).reshape(-1, 1), fp.q
            )[:, 0].tolist()
            assert coeffs[: rp.d] == secrets[i].tolist()
            assert [poly_eval(coeffs, p, fp) for p in points] == mat[i].tolist()
            assert [poly_eval(coeffs, p, fp) for p in designated] == values[i].tolist()


class TestRecon:
    def test_inverse_of_share(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        assert rss_recon(rp, {1: 2, 2: 1, 3: 2}) == [5, 7]

    def test_all_zero(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        assert rss_recon(rp, {1: 0, 2: 0, 3: 0}) == [0, 0]

    def test_insufficient_shares(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        with pytest.raises(InsufficientShares):
            rss_recon(rp, {1: 2, 2: 1})

    def test_numpy_integer_keys(self):
        # Shares keyed by numpy integers, at the n=200 plan's t = 140.
        rp = RampParams(t=140, d=80, n=200, fp=find_field_modulus(200, 2**16))
        rng = random.Random(8)
        secret = [rng.randrange(rp.fp.q) for _ in range(rp.d)]
        shares = share_everywhere(rp, [secret], rp.default_points()[-rp.k:], rng)
        assert rss_recon(rp, {np.int64(p): int(s[0]) for p, s in shares.items()}) == secret

    def test_points_equal_mod_q_rejected(self):
        rp = RampParams(t=3, d=2, n=10, fp=F11)
        with pytest.raises(InvalidArgument, match="distinct"):
            rss_recon(rp, {1: 2, 12: 1, 3: 2})

    def test_threshold_exhaustive(self):
        # Every t-subset of the n shares, designated points included,
        # reconstructs the same secret.
        rng = random.Random(7)
        for q in (11, 101):
            fp = FieldParams(q)
            for n in range(2, 7):
                for t in range(2, n + 1):
                    for d in range(1, t):
                        rp = RampParams(t=t, d=d, n=n, fp=fp)
                        secret = [rng.randrange(q) for _ in range(d)]
                        designated = rng.sample(rp.default_points(), rp.k)
                        shares = share_everywhere(rp, [secret], designated, rng)
                        for subset in itertools.combinations(rp.default_points(), t):
                            assert rss_recon(rp, {p: shares[p][0] for p in subset}) == secret

    def test_shamir_embedding(self):
        # d = 1 ramp sharing is exactly threshold sharing; cross-check against
        # an independently coded textbook implementation. The designated
        # values are pinned to those of known high coefficients.
        rng = random.Random(5)
        fp = FieldParams(101)
        for _ in range(500):
            n = rng.randrange(3, 8)
            t = rng.randrange(2, n + 1)
            rp = RampParams(t=t, d=1, n=n, fp=fp)
            secret = rng.randrange(101)
            coeffs = [rng.randrange(101) for _ in range(t - 1)]
            ref = {
                p: sum(
                    c * pow(p, i, 101) for i, c in enumerate([secret] + coeffs)
                ) % 101
                for p in rp.default_points()
            }
            designated = rng.sample(rp.default_points(), rp.k)
            points = [p for p in rp.default_points() if p not in designated]
            values = [ref[p] for p in designated]
            sent = rss_share_batch(rp, [[secret]], points, designated, [values])[0].tolist()
            ours = dict(zip(designated, values)) | dict(zip(points, sent))
            assert ours == ref
            pick = dict(rng.sample(sorted(ours.items()), t))
            assert rss_recon(rp, pick) == [secret]
            assert textbook_shamir_recon(pick, 101) == secret


class TestNaiveOracle:
    def test_two_clients(self):
        assert naive_aggregate_oracle([[1, 2], [3, 4]], t=2, fp=F11) == [4, 6]

    def test_single_client(self):
        assert naive_aggregate_oracle([[7, 0, 3]], t=1, fp=F11) == [7, 0, 3]

    def test_all_zero(self):
        assert naive_aggregate_oracle([[0, 0], [0, 0], [0, 0]], t=2, fp=F11) == [0, 0]

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            naive_aggregate_oracle([[1, 2], [3]], t=1, fp=F11)

class TestPerfectSecurity:
    def test_uniform_single_view(self):
        rp = RampParams(t=2, d=1, n=4, fp=F5)
        hist = share_view_histogram(rp, [0], [1])
        assert hist == {(v,): 1 for v in [(0 + a) % 5 for a in range(5)]}
        assert all(c == 1 for c in hist.values()) and len(hist) == 5

    def test_secret_independence(self):
        rp = RampParams(t=2, d=1, n=4, fp=F5)
        assert share_view_histogram(rp, [0], [1]) == share_view_histogram(rp, [3], [1])

    def test_oversized_view_rejected(self):
        rp = RampParams(t=2, d=1, n=4, fp=F5)
        with pytest.raises(InvalidArgument):
            share_view_histogram(rp, [0], [1, 2])

    def test_enumeration_cap(self):
        fp = FieldParams(101)
        rp = RampParams(t=5, d=1, n=6, fp=fp)
        with pytest.raises(InvalidArgument):
            share_view_histogram(rp, [0], [1])  # 101^4 > 1e6

    def test_designated_views_identical_across_secrets(self):
        # Every vector of designated values is enumerated; every view of at
        # most t-d points, designated or not, sees the same distribution
        # for two secrets.
        rng = random.Random(4)
        for q in (5, 7):
            fp = FieldParams(q)
            n = q - 1
            for t in range(2, min(4, n) + 1):
                for d in range(1, t):
                    k = t - d
                    rp = RampParams(t=t, d=d, n=n, fp=fp)
                    for designated in itertools.combinations(rp.default_points(), k):
                        for size in range(1, k + 1):
                            for view in itertools.combinations(rp.default_points(), size):
                                s1, s2 = ([rng.randrange(q) for _ in range(d)] for _ in range(2))
                                h1 = share_view_histogram(rp, s1, view, designated)
                                assert h1 == share_view_histogram(rp, s2, view, designated)
                                assert sum(h1.values()) == q**k

    def test_histograms_identical_across_secrets(self):
        rng = random.Random(3)
        for q in (3, 5, 7):
            fp = FieldParams(q)
            n = q - 1
            for t in range(2, min(4, n) + 1):
                for d in range(1, t):
                    rp = RampParams(t=t, d=d, n=n, fp=fp)
                    for size in range(1, t - d + 1):
                        for view in itertools.combinations(rp.default_points(), size):
                            ref = None
                            for _ in range(10):
                                s1 = [rng.randrange(q) for _ in range(d)]
                                h = share_view_histogram(rp, s1, view)
                                if ref is None:
                                    ref = h
                                assert h == ref


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_share_recon_roundtrip_property(data):
    # Designated values pinned to those of drawn high coefficients: the shares
    # at every point are that polynomial's, and all n reconstruct the secret.
    q = data.draw(st.sampled_from([11, 13, 101]))
    fp = FieldParams(q)
    n = data.draw(st.integers(2, 6))
    t = data.draw(st.integers(2, n))
    d = data.draw(st.integers(1, t - 1))
    secret = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=t - d, max_size=t - d))
    rp = RampParams(t=t, d=d, n=n, fp=fp)
    order = data.draw(st.permutations(rp.default_points()))
    designated, points = order[: rp.k], order[rp.k :]
    poly = secret + coeffs
    values = [[poly_eval(poly, x, fp) for x in designated]]
    sent = rss_share_batch(rp, [secret], points, designated, values)[0].tolist()
    assert sent == [poly_eval(poly, x, fp) for x in points]
    shares = dict(zip(designated, values[0])) | dict(zip(points, sent))
    assert rss_recon(rp, shares) == secret
