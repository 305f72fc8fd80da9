import math
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
    fe_inv,
    find_field_modulus,
    mod_matmul,
    poly_eval,
    poly_eval_batch,
    split_bit,
)

F11 = FieldParams(11)


def gaussian_solve(matrix, rhs, q):
    """Independent oracle: solve a linear system over GF(q) by elimination."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] % q != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] % q != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def interpolate_coeffs(points, values, q):
    """Solve the Vandermonde system for the polynomial coefficients."""
    vm = [[pow(p, j, q) for j in range(len(points))] for p in points]
    return gaussian_solve(vm, values, q)


class TestFieldParams:
    def test_byte_width(self):
        assert FieldParams(11).byte_width == 1
        assert FieldParams(257).byte_width == 2
        assert FieldParams(33554467).byte_width == 4  # ~2^25
        assert FieldParams(3037000493).byte_width == 4  # largest q with (q-1)^2 < 2^63

    def test_rejects_composite(self):
        with pytest.raises(InvalidArgument):
            FieldParams(2**25)  # not prime

    def test_rejects_tiny(self):
        with pytest.raises(InvalidArgument):
            FieldParams(1)

    def test_rejects_past_int64_range(self):
        with pytest.raises(InvalidArgument, match=r"2\^63"):
            FieldParams(3037000507)  # the next prime

    def test_primality_matches_oracle(self):
        def accepted(q):
            try:
                FieldParams(q)
            except InvalidArgument:
                return False
            return True

        # Composites whose least factor sits at the top of the trial range.
        p = sympy.prevprime(math.isqrt(3037000493))
        top = [3037000493, p * p, p * sympy.prevprime(p)]
        for q in [*range(20001), *top]:
            assert accepted(q) == sympy.isprime(q), q


class TestInverse:
    def test_identity(self):
        assert fe_inv(1, F11) == 1

    def test_two(self):
        assert fe_inv(2, F11) == 6  # 2*6 = 12 = 1 mod 11

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            fe_inv(0, F11)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 97, 101])
    def test_exhaustive_small_fields(self, q):
        fp = FieldParams(q)
        for a in range(1, q):
            assert fe_inv(a, fp) * a % q == 1


class TestPolyEval:
    def test_constant_term(self):
        assert poly_eval([5, 7, 1], 0, F11) == 5

    def test_hand_value(self):
        assert poly_eval([5, 7, 1], 2, F11) == 1  # 5 + 14 + 4 = 23 = 1 mod 11

    def test_zero_poly(self):
        assert poly_eval([0, 0, 0], 9, F11) == 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            poly_eval([], 3, F11)

    def test_against_power_sum(self):
        rng = random.Random(2024)
        fp = FieldParams(101)
        for _ in range(1000):
            deg = rng.randrange(1, 8)
            coeffs = [rng.randrange(101) for _ in range(deg)]
            x = rng.randrange(101)
            naive = sum(c * pow(x, i, 101) for i, c in enumerate(coeffs)) % 101
            assert poly_eval(coeffs, x, fp) == naive


Q_MAX = 3037000493  # largest q with (q-1)^2 < 2^63


def batch_matches_scalar(coeffs, xs, fp):
    """poly_eval_batch agrees with poly_eval at every (polynomial, point)."""
    out = poly_eval_batch(np.array(coeffs, dtype=np.int64), np.array(xs, dtype=np.int64), fp)
    assert out.shape == (len(coeffs), len(xs))
    return out.tolist() == [[poly_eval(row, x, fp) for x in xs] for row in coeffs]


class TestPolyEvalBatch:
    def test_largest_q_at_top_point(self):
        # x = q-1 at the largest q leaves room for one step between reductions.
        fp = FieldParams(Q_MAX)
        rng = random.Random(1)
        coeffs = [[Q_MAX - 1] * 9] + [[rng.randrange(Q_MAX) for _ in range(9)] for _ in range(4)]
        assert batch_matches_scalar(coeffs, [Q_MAX - 1, Q_MAX - 2, 1, 0], fp)

    def test_points_zero_and_one(self):
        # max(xs) <= 1 never reaches 2^63: the step count is capped at t.
        fp = FieldParams(Q_MAX)
        rng = random.Random(2)
        for t in (1, 2, 7, 40):
            coeffs = [[rng.randrange(Q_MAX) for _ in range(t)] for _ in range(3)]
            assert batch_matches_scalar(coeffs, [0, 1], fp)
            assert batch_matches_scalar(coeffs, [0], fp)

    def test_single_coefficient(self):
        assert poly_eval_batch(np.array([[5], [0]]), np.array([0, 3, 10]), F11).tolist() == [
            [5, 5, 5],
            [0, 0, 0],
        ]

    def test_empty_points(self):
        out = poly_eval_batch(np.array([[1, 2, 3], [4, 5, 6]]), np.array([], dtype=np.int64), F11)
        assert out.shape == (2, 0)

    def test_paper_scale(self):
        # t = 350 at the n=500, B=2^16 modulus, over the roster 1..500.
        fp = find_field_modulus(500, 2**16)
        rng = random.Random(3)
        coeffs = [[rng.randrange(fp.q) for _ in range(350)] for _ in range(3)]
        coeffs.append([fp.q - 1] * 350)
        assert batch_matches_scalar(coeffs, list(range(1, 501)), fp)

    @pytest.mark.parametrize("x", [-1, 11, 2**40])
    def test_point_outside_field_rejected(self, x):
        with pytest.raises(InvalidArgument, match="points"):
            poly_eval_batch(np.array([[1, 2]]), np.array([1, x]), F11)

    @pytest.mark.parametrize("c", [-1, 11])
    def test_coefficient_outside_field_rejected(self, c):
        with pytest.raises(InvalidArgument, match="coefficients"):
            poly_eval_batch(np.array([[1, c]]), np.array([1, 2]), F11)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_poly_eval_batch_property(data):
    # Primes from 2 up to the largest admitted q, points weighted to the edges.
    q = data.draw(st.integers(3, Q_MAX + 1).map(sympy.prevprime))
    fp = FieldParams(q)
    element = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    t = data.draw(st.integers(1, 40))
    rows = data.draw(st.integers(1, 3))
    row = st.lists(element, min_size=t, max_size=t)
    coeffs = data.draw(st.lists(row, min_size=rows, max_size=rows))
    xs = data.draw(st.lists(element, max_size=6))
    assert batch_matches_scalar(coeffs, xs, fp)


def python_recon_matrix(points, d, q):
    """Oracle: the coefficient-extraction matrix built one Python int at a time."""
    t = len(points)
    master = [1]  # P(x) = prod (x - p_k), ascending coefficients
    for p in points:
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i] = (nxt[i] - c * p) % q
            nxt[i + 1] = (nxt[i + 1] + c) % q
        master = nxt
    cols = []
    for p in points:
        quot = [0] * t  # Q(x) = P(x) / (x - p) by synthetic division
        carry = master[t]
        for i in range(t - 1, -1, -1):
            quot[i] = carry
            carry = (master[i] + carry * p) % q
        scale = pow(sum(c * pow(p, i, q) for i, c in enumerate(quot)) % q, -1, q)
        cols.append([(c * scale) % q for c in quot[:d]])
    return [list(row) for row in zip(*cols)]


def apply(matrix, shares, q):
    """Recover the first d coefficients from shares at the matrix's points."""
    return mod_matmul(matrix, np.array(shares, dtype=np.int64).reshape(-1, 1), q)[:, 0].tolist()


class TestReconMatrix:
    def test_lagrange_at_zero_pair(self):
        m = build_recon_matrix([1, 2], 1, F11)
        assert isinstance(m, np.ndarray) and m.dtype == np.int64
        assert m.tolist() == [[2, 10]]

    def test_two_coefficients(self):
        # f(x) = 5 + 7x + x^2, evaluated at 1, 2, 3.
        shares = [poly_eval([5, 7, 1], x, F11) for x in (1, 2, 3)]
        assert shares == [2, 1, 2]
        m = build_recon_matrix([1, 2, 3], 2, F11)
        assert apply(m, shares, 11) == [5, 7]
        assert apply(m, shares, 11) == interpolate_coeffs([1, 2, 3], shares, 11)[:2]

    def test_zero_polynomial(self):
        m = build_recon_matrix([2, 5, 7], 3, F11)
        assert apply(m, [0, 0, 0], 11) == [0, 0, 0]

    def test_duplicate_points_rejected(self):
        with pytest.raises(InvalidArgument):
            build_recon_matrix([1, 1], 1, F11)

    def test_zero_point_rejected(self):
        with pytest.raises(InvalidArgument):
            build_recon_matrix([0, 1], 1, F11)

    def test_d_exceeds_t_rejected(self):
        with pytest.raises(InvalidArgument):
            build_recon_matrix([1, 2], 3, F11)

    @pytest.mark.parametrize("q", [11, 13, 101])
    def test_matches_gaussian_oracle(self, q):
        rng = random.Random(q)
        fp = FieldParams(q)
        for t in range(1, 7):
            for d in range(1, t + 1):
                points = rng.sample(range(1, q), t)
                coeffs = [rng.randrange(q) for _ in range(t)]
                shares = [poly_eval(coeffs, p, fp) for p in points]
                m = build_recon_matrix(points, d, fp)
                assert apply(m, shares, q) == interpolate_coeffs(points, shares, q)[:d]
                assert apply(m, shares, q) == coeffs[:d]


    @pytest.mark.parametrize("n, t, d", [(10, 7, 4), (50, 35, 20), (100, 70, 40), (200, 140, 80)])
    def test_matches_python_build(self, n, t, d):
        # The planned shapes at B = 2^16, rho = gamma = 0.3: the server's
        # (d, t) matrix and a sender's square one on its t-d designated
        # points, on shuffled points.
        fp = find_field_modulus(n, 2**16)
        rng = random.Random(n)
        for size, rows in [(t, d), (t - d, t - d)]:
            points = rng.sample(range(1, n + 1), size)
            m = build_recon_matrix(points, rows, fp)
            assert m.shape == (rows, size) and m.dtype == np.int64 and m.flags.c_contiguous
            assert m.tolist() == python_recon_matrix(points, rows, fp.q)


    def test_points_near_q_match_python_build(self):
        # The largest admitted modulus with points near it: every lazy
        # reduction step in the build must still fit int64.
        fp = FieldParams(3037000493)
        assert (fp.q + 7) ** 2 > 2**63  # no larger prime is admitted
        points = [fp.q - 1, fp.q - 2, 5, fp.q - 7, 11, 2**31]
        m = build_recon_matrix(points, 4, fp)
        assert m.tolist() == python_recon_matrix(points, 4, fp.q)


def object_matmul_mod(a, b, q):
    """Oracle: (a @ b) % q in Python integers, in blocks of the inner length."""
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=object)
    for lo in range(0, a.shape[1], 1 << 16):
        acc += a[:, lo : lo + (1 << 16)].astype(object) @ b[lo : lo + (1 << 16)].astype(object)
    return (acc % q).astype(np.int64)


def kernel_operands(rows, t, cols, q, seed):
    """Random reduced entries, with rows of a and columns of b drawn within
    1024 of (q-1)/2, (q+1)/2 and q-1: the residues on either side of q/2 and
    the largest residue, which gives the largest dot products."""
    gen = np.random.default_rng(seed)
    a = gen.integers(0, q, size=(rows, t), dtype=np.int64)
    b = gen.integers(0, q, size=(t, cols), dtype=np.int64)
    h = (q - 1) // 2
    for i, (edge, step) in enumerate(((h, -1), (h + 1, 1), (q - 1, -1))):
        a[i] = edge + step * gen.integers(0, 1024, size=t)
        b[:, i] = edge + step * gen.integers(0, 1024, size=t)
    return a, b


class TestModMatmul:
    @pytest.mark.parametrize("t, q", [
        # largest t with 3*bits(q-1) + 2*bits(t) <= 104
        pytest.param(16383, 32767513, id="split-16383-32767513"),
    ])
    def test_each_path_exact_at_its_largest_shape(self, t, q):
        split_bit(t, q)
        with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
            split_bit(t + 1, q)
        a, b = kernel_operands(3, t, 3, q, seed=t)
        assert np.array_equal(mod_matmul(a, b, q), object_matmul_mod(a, b, q))

    @pytest.mark.parametrize("t, q", [
        (35, 3276773), (140, 13107007), (350, 32767513), (3355, 3276773),
    ])
    def test_benchmark_shapes(self, t, q):
        # (t, q) of the wide, cohort and n=500 paper-scale plans, and the
        # largest t with t*q^2 <= 2^55 - 4q at the wide plan's q.
        a, b = kernel_operands(20, t, 30, q, seed=q)
        assert np.array_equal(mod_matmul(a, b, q), object_matmul_mod(a, b, q))

    def test_split_covers_former_float_range(self):
        # For each bit length of q-1, the smallest such q at the largest t
        # (up to q-1) with t*q^2 <= 2^55 - 4q, the range of the balanced float
        # product the split replaced; both bounds are monotone in t and q.
        for bits in range(2, 33):
            q = 2 ** (bits - 1) + 1
            t = min(q - 1, (2**55 - 4 * q) // (q * q))
            split_bit(t, q)

    def test_refuses_past_its_range(self):
        q = 32767513
        a = np.zeros((1, 16384), dtype=np.int64)
        with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
            mod_matmul(a, a.T, q)
        for t in (2097172, 2097173):  # the largest int64 shape is refused too
            with pytest.raises(InvalidArgument, match="no exact mod-q matmul"):
                split_bit(t, 2097143)
        with pytest.raises(InvalidArgument, match="2\\^63"):
            split_bit(1, 3037000501)  # (q-1)^2 just past 2^63


class TestFindFieldModulus:
    def test_minimal(self):
        assert find_field_modulus(1, 2).q == 2

    @pytest.mark.parametrize("n", [50, 100, 200, 500, 2047])
    def test_paper_scale(self, n):
        # The smallest prime >= n(B-1)+1: nothing prime in between.
        R = n * (2**16 - 1) + 1
        assert find_field_modulus(n, 2**16).q == sympy.nextprime(R - 1)

    def test_hundred_clients(self):
        fp = find_field_modulus(100, 2**16)
        assert fp.q >= 100 * 65535 + 1

    def test_overflow_rejected(self):
        with pytest.raises(InvalidArgument):
            find_field_modulus(2**40, 2**40)


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([11, 13, 17, 101]),
    data=st.data(),
)
def test_recon_matrix_property(q, data):
    fp = FieldParams(q)
    t = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, t))
    points = data.draw(
        st.lists(st.integers(1, q - 1), min_size=t, max_size=t, unique=True)
    )
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t))
    shares = [poly_eval(coeffs, p, fp) for p in points]
    assert apply(build_recon_matrix(points, d, fp), shares, q) == coeffs[:d]
