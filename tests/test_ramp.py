import hashlib
import itertools
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fssa.errors import InvalidArgument
from fssa.field import (
    FieldParams,
    build_recon_matrix,
    find_field_modulus,
    lazy_steps,
)
from fssa.protocol import chunk_vector
from fssa.ramp import RampParams, rss_share_batch

from _oracles import (
    Q_MAX,
    all_points,
    apply,
    naive_aggregate_oracle,
    poly_eval,
    rss_recon,
    share_everywhere,
    share_view_histogram,
    textbook_shamir_recon,
)

F5 = FieldParams(5)
F11 = FieldParams(11)


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

    def test_batch_secret_outside_field_rejected(self):
        rp = RampParams(t=3, d=2, n=4, fp=F11)
        with pytest.raises(InvalidArgument, match=r"secrets must lie in \[0, 11\)"):
            rss_share_batch(rp, np.array([[7, 11]]), [1, 2, 3], [4], [[3]])

    def test_batch_matches_poly_eval_at_desk_shape(self):
        # The n=100, rho=gamma=0.3, B=2^16 plan: t=70, d=40, t-d=30 designated.
        fp = find_field_modulus(100, 2**16)
        rp = RampParams(t=70, d=40, n=100, fp=fp)
        rng = np.random.default_rng(5)
        secrets = rng.integers(0, 2**16, size=(250, rp.d))
        high = rng.integers(0, fp.q, size=(250, rp.t - rp.d))
        designated = list(range(31, 61))
        points = [p for p in all_points(rp) if p not in designated]
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

    def test_batch_reads_int64_secrets_in_place(self):
        # An int64 secrets array is read in place: the shares match a pinned
        # digest and those from int32 or list input, and the caller's array,
        # here read-only, is left as it was.
        fp = find_field_modulus(100, 2**16)
        rp = RampParams(t=70, d=40, n=100, fp=fp)
        rng = np.random.default_rng(29)
        secrets = rng.integers(0, 2**16, size=(64, rp.d))
        values = rng.integers(0, fp.q, size=(64, rp.k))
        designated = list(range(31, 61))
        points = [p for p in all_points(rp) if p not in designated]
        before = secrets.copy()
        secrets.setflags(write=False)
        mat = rss_share_batch(rp, secrets, points, designated, values)
        assert np.array_equal(secrets, before)
        assert not np.shares_memory(mat, secrets)
        digest = hashlib.sha256(np.ascontiguousarray(mat, dtype="<i8").tobytes()).hexdigest()
        assert digest == "49ed9ba0dd6f37a0375e9c925d9f869316de29fd49cc0d74ab1cdd5f8892c589"
        for other in (before.astype(np.int32), before.tolist()):
            assert np.array_equal(rss_share_batch(rp, other, points, designated, values), mat)

    def test_designated_plus_any_sent_points_reconstruct(self):
        # The t-d designated shares and any d sent ones fix the polynomial:
        # its secret is the input, and it evaluates bit-exactly to every share.
        fp = find_field_modulus(20, 2**16)
        rp = RampParams(t=14, d=8, n=20, fp=fp)
        rng = np.random.default_rng(9)
        secrets = rng.integers(0, 2**16, size=(12, rp.d))
        values = rng.integers(0, fp.q, size=(12, rp.t - rp.d))
        designated = [6, 7, 8, 9, 10, 11]
        points = [p for p in all_points(rp) if p not in designated]
        mat = rss_share_batch(rp, secrets, points, designated, values)
        pick = random.Random(3)
        for i in range(12):
            sent = pick.sample(range(len(points)), rp.t - len(designated))
            pts = designated + [points[j] for j in sent]
            shares = values[i].tolist() + [int(mat[i, j]) for j in sent]
            coeffs = apply(build_recon_matrix(pts, rp.t, fp), shares, fp.q)
            assert coeffs[: rp.d] == secrets[i].tolist()
            assert [poly_eval(coeffs, p, fp) for p in points] == mat[i].tolist()
            assert [poly_eval(coeffs, p, fp) for p in designated] == values[i].tolist()


def shares_match_pinned(rp, polys, points, designated):
    """rss_share_batch on polynomials pinned through their designated values
    evaluates each one exactly at every share point."""
    fp = rp.fp
    values = [[poly_eval(poly, x, fp) for x in designated] for poly in polys]
    secrets = np.array([poly[: rp.d] for poly in polys], dtype=np.int64)
    mat = rss_share_batch(rp, secrets, points, designated, values)
    return mat.tolist() == [[poly_eval(poly, x, fp) for x in points] for poly in polys]


class TestLazyHorner:
    """Horner's overflow bound: s unreduced steps from a reduced accumulator
    stay below 2^63 at every (t, q) that RampParams admits.

    The accumulator is point-major, (points, secrets), and the result its
    transposed view. Its first step loads c_{t-1} and the bound still counts
    it, so the reductions fall at steps s, 2s, ... of t, as with a step from
    zero.
    """

    def test_chunks_far_outnumber_points(self):
        # The wide-n50-m100k plan (t=35, d=20, 15 designated, 35 share points
        # at q = 3276773) over 512 chunks: the accumulator is 35 x 512, and
        # lazy_steps = 7 divides t, so the last reduction is inside the loop.
        fp = find_field_modulus(50, 2**16)
        rp = RampParams(t=35, d=20, n=50, fp=fp)
        rng = random.Random(11)
        polys = [[fp.q - 1] * rp.t] + [
            [rng.randrange(fp.q) for _ in range(rp.t)] for _ in range(511)
        ]
        designated = list(range(1, 16))
        points = list(range(16, 51))
        assert fp.q == 3276773 and lazy_steps(fp.q, 50, rp.t) == 7
        assert shares_match_pinned(rp, polys, points, designated)

    def test_largest_q_at_top_points(self):
        # Points q-1 and q-2 at the largest q leave room for one step between
        # reductions, and t = 15 is the largest t the kernel admits there.
        rp = RampParams(t=15, d=8, n=15, fp=FieldParams(Q_MAX))
        rng = random.Random(1)
        polys = [[Q_MAX - 1] * 15] + [[rng.randrange(Q_MAX) for _ in range(15)] for _ in range(4)]
        assert lazy_steps(Q_MAX, Q_MAX - 1, rp.t) == 1
        assert shares_match_pinned(rp, polys, [Q_MAX - 1, Q_MAX - 2, 1, 2], list(range(3, 10)))

    def test_paper_scale(self):
        # t = 350, d = 200 at the n=500, B=2^16 modulus: 150 designated points
        # and the rest of the roster 1..500 as share points.
        fp = find_field_modulus(500, 2**16)
        rp = RampParams(t=350, d=200, n=500, fp=fp)
        rng = random.Random(3)
        polys = [[rng.randrange(fp.q) for _ in range(350)] for _ in range(3)]
        polys.append([fp.q - 1] * 350)
        designated = rng.sample(range(1, 501), rp.k)
        points = [p for p in range(1, 501) if p not in designated]
        assert shares_match_pinned(rp, polys, points, designated)

    def test_steps_capped_at_points_up_to_one(self):
        # At points <= 1 the bound never reaches 2^63: the count is capped at t.
        for t in (1, 2, 7, 15):
            assert lazy_steps(Q_MAX, 1, t) == lazy_steps(Q_MAX, 0, t) == t
        rp = RampParams(t=15, d=8, n=15, fp=FieldParams(Q_MAX))
        rng = random.Random(2)
        polys = [[rng.randrange(Q_MAX) for _ in range(15)] for _ in range(3)]
        assert shares_match_pinned(rp, polys, [1], list(range(Q_MAX - 7, Q_MAX)))


def admitted_t_max(q: int) -> int:
    """The largest t (at most 40) that RampParams admits at q: t <= q-1 and
    an inner length the exact kernel serves."""
    qb = (q - 1).bit_length()
    return min(q - 1, 40, (1 << ((104 - 3 * qb) // 2)) - 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lazy_horner_property(data):
    # Primes from 3 up to the largest admitted q, with every admitted t, and
    # points and coefficients weighted to the edges of the field.
    q = data.draw(st.integers(4, Q_MAX + 1).map(sympy.prevprime))
    t = data.draw(st.integers(2, admitted_t_max(q)))
    d = data.draw(st.integers(1, t - 1))
    rp = RampParams(t=t, d=d, n=t, fp=FieldParams(q))
    element = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    point = st.one_of(st.sampled_from([1, 2, q - 1, q - 2]), st.integers(1, q - 1))
    count = data.draw(st.integers(rp.k + 1, min(rp.k + 6, q - 1)))
    pts = data.draw(st.lists(point, min_size=count, max_size=count, unique=True))
    row = st.lists(element, min_size=t, max_size=t)
    polys = data.draw(st.lists(row, min_size=1, max_size=3))
    assert shares_match_pinned(rp, polys, pts[rp.k :], pts[: rp.k])


class TestRecon:
    def test_inverse_of_share(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        assert rss_recon(rp, {1: 2, 2: 1, 3: 2}) == [5, 7]

    def test_all_zero(self):
        rp = RampParams(t=3, d=2, n=3, fp=F11)
        assert rss_recon(rp, {1: 0, 2: 0, 3: 0}) == [0, 0]

    def test_numpy_integer_keys(self):
        # Shares keyed by numpy integers, at the n=200 plan's t = 140.
        rp = RampParams(t=140, d=80, n=200, fp=find_field_modulus(200, 2**16))
        rng = random.Random(8)
        secret = [rng.randrange(rp.fp.q) for _ in range(rp.d)]
        shares = share_everywhere(rp, [secret], all_points(rp)[-rp.k:], rng)
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
                        designated = rng.sample(all_points(rp), rp.k)
                        shares = share_everywhere(rp, [secret], designated, rng)
                        for subset in itertools.combinations(all_points(rp), t):
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
                for p in all_points(rp)
            }
            designated = rng.sample(all_points(rp), rp.k)
            points = [p for p in all_points(rp) if p not in designated]
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
                    for designated in itertools.combinations(all_points(rp), k):
                        for size in range(1, k + 1):
                            for view in itertools.combinations(all_points(rp), size):
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
                        for view in itertools.combinations(all_points(rp), size):
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
    order = data.draw(st.permutations(all_points(rp)))
    designated, points = order[: rp.k], order[rp.k :]
    poly = secret + coeffs
    values = [[poly_eval(poly, x, fp) for x in designated]]
    sent = rss_share_batch(rp, [secret], points, designated, values)[0].tolist()
    assert sent == [poly_eval(poly, x, fp) for x in points]
    shares = dict(zip(designated, values[0])) | dict(zip(points, sent))
    assert rss_recon(rp, shares) == secret
