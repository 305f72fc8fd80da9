import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssa.errors import InsufficientShares, InvalidArgument
from fssa.field import FieldParams, build_recon_matrix, find_field_modulus, mod_matmul, poly_eval
from fssa.ramp import (
    RampParams,
    ShareBundle,
    naive_aggregate_oracle,
    rss_recon,
    rss_share,
    rss_share_batch,
    share_sum,
    share_view_histogram,
)

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


class TestShare:
    def test_hand_polynomial(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        b = rss_share(rp, [5, 7], coeffs=[1])  # f(x) = 5 + 7x + x^2
        assert b.shares == {1: 2, 2: 1, 3: 2}

    def test_zero_polynomial(self):
        rp = RampParams(t=2, d=1, n=3, fp=F11)
        b = rss_share(rp, [0], coeffs=[0])
        assert all(s == 0 for s in b.shares.values())

    def test_mod_five_line(self):
        rp = RampParams(t=2, d=1, n=4, fp=F5)
        b = rss_share(rp, [3], coeffs=[2])  # f(x) = 3 + 2x mod 5
        assert b.shares == {1: 0, 2: 2, 3: 4, 4: 1}

    def test_secret_too_long(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        with pytest.raises(InvalidArgument):
            rss_share(rp, [1, 2, 3], coeffs=[0])

    def test_wrong_coefficient_count(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        with pytest.raises(InvalidArgument):
            rss_share(rp, [5, 7], coeffs=[])

    def test_short_secret_zero_padded(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        b = rss_share(rp, [5], coeffs=[0])
        assert rss_recon(rp, b.shares) == [5, 0]

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
    ], ids=["overlap", "designated-count", "values-shape", "values-range"])
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

    def test_points_equal_mod_q_rejected(self):
        rp = RampParams(t=3, d=2, n=10, fp=F11)
        with pytest.raises(InvalidArgument, match="distinct"):
            rss_recon(rp, {1: 2, 12: 1, 3: 2})

    def test_threshold_exhaustive(self):
        # Every t-subset of the n shares reconstructs the same secret.
        rng = random.Random(7)
        for q in (11, 101):
            fp = FieldParams(q)
            for n in range(2, 7):
                for t in range(2, n + 1):
                    for d in range(1, t):
                        rp = RampParams(t=t, d=d, n=n, fp=fp)
                        secret = [rng.randrange(q) for _ in range(d)]
                        b = rss_share(rp, secret, rng=rng)
                        for subset in itertools.combinations(b.shares, t):
                            sub = {p: b.shares[p] for p in subset}
                            assert rss_recon(rp, sub) == secret

    def test_linearity(self):
        rng = random.Random(99)
        fp = FieldParams(101)
        rp = RampParams(t=4, d=2, n=5, fp=fp)
        for _ in range(1000):
            s1 = [rng.randrange(101) for _ in range(2)]
            s2 = [rng.randrange(101) for _ in range(2)]
            a, b = rng.randrange(101), rng.randrange(101)
            b1 = rss_share(rp, s1, rng=rng)
            b2 = rss_share(rp, s2, rng=rng)
            combo = {p: (a * b1.shares[p] + b * b2.shares[p]) % 101 for p in b1.shares}
            want = [(a * x + b * y) % 101 for x, y in zip(s1, s2)]
            assert rss_recon(rp, combo) == want

    def test_shamir_embedding(self):
        # d = 1 ramp sharing is exactly threshold sharing; cross-check against
        # an independently coded textbook implementation.
        rng = random.Random(5)
        fp = FieldParams(101)
        for _ in range(500):
            n = rng.randrange(3, 8)
            t = rng.randrange(2, n + 1)
            rp = RampParams(t=t, d=1, n=n, fp=fp)
            secret = rng.randrange(101)
            coeffs = [rng.randrange(101) for _ in range(t - 1)]
            ours = rss_share(rp, [secret], coeffs=coeffs)
            ref = {
                p: sum(
                    c * pow(p, i, 101) for i, c in enumerate([secret] + coeffs)
                ) % 101
                for p in rp.default_points()
            }
            assert ours.shares == ref
            pick = dict(rng.sample(sorted(ours.shares.items()), t))
            assert rss_recon(rp, pick) == [secret]
            assert textbook_shamir_recon(pick, 101) == secret


class TestShareSum:
    def test_sum_then_recon_wraps(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        b1 = rss_share(rp, [5, 7], coeffs=[1])
        b2 = rss_share(rp, [6, 4], coeffs=[3])
        summed = {u: share_sum([b1, b2], u) for u in (1, 2, 3)}
        assert rss_recon(rp, summed) == [0, 0]  # 5+6 = 7+4 = 11 = 0 mod 11
        # direct polynomial-sum oracle
        fsum = [(5 + 6) % 11, (7 + 4) % 11, (1 + 3) % 11]
        assert summed == {u: poly_eval(fsum, u, F11) for u in (1, 2, 3)}

    def test_single_bundle_identity(self):
        rp = RampParams(t=2, d=1, n=3, fp=F11)
        b = rss_share(rp, [4], coeffs=[2])
        assert {u: share_sum([b], u) for u in b.shares} == b.shares

    def test_zero_bundle_is_identity(self):
        rp = RampParams(t=2, d=1, n=3, fp=F11)
        b = rss_share(rp, [4], coeffs=[2])
        z = rss_share(rp, [0], coeffs=[0])
        assert {u: share_sum([b, z], u) for u in b.shares} == b.shares

    def test_mismatched_params(self):
        b1 = rss_share(RampParams(t=2, d=1, n=3, fp=F11), [1], coeffs=[0])
        b2 = rss_share(RampParams(t=3, d=1, n=3, fp=F11), [1], coeffs=[0, 0])
        with pytest.raises(InvalidArgument):
            share_sum([b1, b2], 1)


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

    def test_chunked_pipeline_equivalence(self):
        # share -> sum -> recon with any d equals the per-element oracle.
        rng = random.Random(11)
        for trial in range(30):
            n = rng.randrange(2, 9)
            m = rng.randrange(1, 11)
            B = 8
            import sympy

            fp = FieldParams(int(sympy.nextprime(n * (B - 1))))
            t = rng.randrange(2, n + 1)
            d = rng.randrange(1, t)
            rp = RampParams(t=t, d=d, n=n, fp=fp)
            inputs = [[rng.randrange(B) for _ in range(m)] for _ in range(n)]
            chunked_out = []
            n_chunks = -(-m // d)
            per_chunk_sums = []
            for i in range(n_chunks):
                bundles = []
                for v in inputs:
                    chunk = v[i * d : (i + 1) * d]
                    bundles.append(rss_share(rp, chunk + [0] * (d - len(chunk)), rng=rng))
                summed = {u: share_sum(bundles, u) for u in rp.default_points()}
                per_chunk_sums.append(rss_recon(rp, summed))
            for vals in per_chunk_sums:
                chunked_out.extend(vals)
            chunked_out = chunked_out[:m]
            assert chunked_out == naive_aggregate_oracle(inputs, t, fp)


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
    q = data.draw(st.sampled_from([11, 13, 101]))
    fp = FieldParams(q)
    n = data.draw(st.integers(2, 6))
    t = data.draw(st.integers(2, n))
    d = data.draw(st.integers(1, t - 1))
    secret = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=t - d, max_size=t - d))
    rp = RampParams(t=t, d=d, n=n, fp=fp)
    bundle = rss_share(rp, secret, coeffs=coeffs)
    assert rss_recon(rp, bundle.shares) == [s % q for s in secret]
