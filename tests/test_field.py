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
    find_field_modulus,
    mod_matmul,
    reduce_mod,
    split_bit,
)

from _oracles import Q_MAX, apply, poly_eval, python_recon_matrix

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
    def test_bit_width(self):
        # bits(q-1): the bits one element takes on the wire.
        assert FieldParams(2).bit_width == 1
        assert FieldParams(11).bit_width == 4
        assert FieldParams(257).bit_width == 9  # q - 1 = 2^8
        assert FieldParams(13107007).bit_width == 24
        assert FieldParams(33554467).bit_width == 26  # just above 2^25
        assert FieldParams(3037000493).bit_width == 32  # largest q with (q-1)^2 < 2^63

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

    def test_more_points_than_nonzero_elements_rejected(self):
        with pytest.raises(InvalidArgument, match="more points than nonzero field elements"):
            build_recon_matrix([1, 2, 3, 4, 5], 1, FieldParams(5))

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
        # points, on shuffled points. Points given as numpy integers build
        # the same matrix: the lazy-step bounds must not wrap on them.
        fp = find_field_modulus(n, 2**16)
        rng = random.Random(n)
        for size, rows in [(t, d), (t - d, t - d)]:
            points = rng.sample(range(1, n + 1), size)
            m = build_recon_matrix(points, rows, fp)
            assert m.shape == (rows, size) and m.dtype == np.int64 and m.flags.c_contiguous
            assert m.tolist() == python_recon_matrix(points, rows, fp.q)
            for pts in (np.array(points), [np.int64(p) for p in points], np.uint16(points)):
                assert np.array_equal(build_recon_matrix(pts, rows, fp), m)


    @pytest.mark.parametrize(
        "bad", [2.0, np.float64(2), "2", None], ids=["float", "float64", "str", "None"]
    )
    def test_non_integer_point_rejected(self, bad):
        with pytest.raises(InvalidArgument, match="points must be integers"):
            build_recon_matrix([1, bad], 1, F11)

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

    @pytest.mark.parametrize("n, B", [(0, 16), (3, 1)], ids=["no-clients", "one-value"])
    def test_degenerate_bound_rejected(self, n, B):
        with pytest.raises(InvalidArgument, match="need n >= 1 and B >= 2"):
            find_field_modulus(n, B)


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_reduce_mod_property(data):
    # Primes from 2 up to the largest admitted q. int64 entries at the edges
    # of [0, 2^63), and negative ones down to -2^63, as the sender's solve
    # reduces (values - s(x_D)) * x_D^-d; uint64 entries up to 2^64 - 1, as
    # the keystream words are. The array is contiguous, a transposed view or
    # a strided view of a larger array.
    q = data.draw(st.integers(3, Q_MAX + 1).map(sympy.prevprime))
    dtype = data.draw(st.sampled_from([np.int64, np.uint64]))
    lo, hi = (-(2**63), 2**63 - 1) if dtype is np.int64 else (0, 2**64 - 1)
    edges = [0, 1, q - 1, q, q + 1, 2**63 - 1]
    if dtype is np.int64:
        edges += [-1, -(q - 1), -q, -(q - 1) ** 2, -(2**63)]
    else:
        edges += [2**64 - 1, (2**64 // q) * q - 1]
    element = st.one_of(st.sampled_from(edges), st.integers(lo, hi))
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(element, min_size=rows * cols, max_size=rows * cols))
    layout = data.draw(st.sampled_from(["contiguous", "transposed", "strided"]))
    want = np.array(entries, dtype=dtype).reshape(rows, cols)
    if layout == "contiguous":
        a = want.copy()
    elif layout == "transposed":
        a = np.ascontiguousarray(want.T).T
    else:
        base = np.full((2 * rows, 3 * cols), 7, dtype=dtype)
        a = base[1::2, ::3]
        a[...] = want
    expected = np.remainder(want, dtype(q))
    assert reduce_mod(a, q) is a
    assert a.dtype == dtype and np.array_equal(a, expected)
    if layout == "strided":
        # Entries outside the view are left as they were.
        untouched = np.ones(base.shape, dtype=bool)
        untouched[1::2, ::3] = False
        assert (base[untouched] == 7).all()
