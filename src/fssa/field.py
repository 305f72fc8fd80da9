"""Prime-field arithmetic, polynomial evaluation, the exact mod-q matrix product,
and reconstruction matrices as plain (d, t) int64 arrays.

One modulus range is supported: a prime q with (q-1)^2 < 2^63, so that
every element fits 4 bytes and every elementwise product fits int64.
`FieldParams` refuses any other q. Primality is decided by trial division,
exact for every n and a few milliseconds at most in this range. Scalar
helpers work on plain Python ints kept fully reduced in [0, q); they are the
reference the batch code is tested against. Batch data are numpy int64
arrays of reduced elements.

Sharing evaluates polynomials by Horner's rule (`poly_eval_batch`) with lazy
reduction. From an accumulator below q, i multiply-adds at points up to X
stay at most b_i, where b_0 = q-1 and b_{i+1} = b_i*X + (q-1); the
accumulator is reduced only every s steps, s being the largest count (capped
at the coefficient count) with b_s < 2^63. s >= 1 at every admitted q, since
(q-1)^2 + (q-1) < 2^63.

Every matrix product over the field goes through `mod_matmul`, which has one
evaluation: it splits the right operand into low and high bits so that each
half's float64 product is exact. `split_bit` states its range (inner length t
and modulus q with 3*bits(q-1) + 2*bits(t) <= 104) and raises InvalidArgument
for any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument


def _check_modulus_range(q: int):
    if (q - 1) ** 2 >= 2**63:
        raise InvalidArgument(
            f"modulus {q} too large: (q-1)^2 must stay below 2^63 so that "
            "elementwise products fit int64"
        )


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class FieldParams:
    """A prime modulus q with (q-1)^2 < 2^63, and the byte width of one element."""

    q: int
    byte_width: int = field(init=False)

    def __post_init__(self):
        if self.q < 2:
            raise InvalidArgument(f"modulus must be >= 2, got {self.q}")
        _check_modulus_range(self.q)
        if not _is_prime(self.q):
            raise InvalidArgument(f"modulus {self.q} is not prime")
        object.__setattr__(self, "byte_width", (self.q.bit_length() + 7) // 8)


def fe_inv(a: int, fp: FieldParams) -> int:
    """Multiplicative inverse of a modulo q."""
    a %= fp.q
    if a == 0:
        raise InvalidArgument("zero has no multiplicative inverse")
    return pow(a, -1, fp.q)


def poly_eval(coeffs, x: int, fp: FieldParams) -> int:
    """Evaluate a polynomial (ascending-degree coefficients) at x by Horner's rule."""
    if len(coeffs) == 0:
        raise InvalidArgument("empty coefficient list")
    q = fp.q
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _lazy_steps(q: int, x_max: int, num_coeffs: int) -> int:
    """Horner steps that stay below 2^63 from a reduced accumulator, at most num_coeffs.

    An accumulator bounded by b becomes at most b*x_max + (q-1) after one step;
    starting from b = q-1, count the steps before that bound reaches 2^63.
    """
    s, b = 0, q - 1
    while s < num_coeffs:
        b = b * x_max + (q - 1)
        if b >= 2**63:
            break
        s += 1
    return s


def poly_eval_batch(coeff_matrix: np.ndarray, xs: np.ndarray, fp: FieldParams) -> np.ndarray:
    """Evaluate many polynomials at many points at once.

    coeff_matrix has shape (num_polys, num_coeffs), ascending degree;
    xs has shape (num_points,). Returns shape (num_polys, num_points).
    Coefficients and points must be reduced into [0, q); anything else raises
    InvalidArgument, since the overflow bound assumes it. Horner's rule runs
    in place and reduces mod q only every s steps and once at the end, with s
    from `_lazy_steps` at X = max(xs): s unreduced steps from an accumulator
    below q stay under 2^63. s >= 1 for every q FieldParams admits, since
    (q-1)^2 + (q-1) < 2^63.
    """
    if coeff_matrix.ndim != 2 or coeff_matrix.shape[1] == 0:
        raise InvalidArgument("coefficient matrix must be 2-D and nonempty")
    q = fp.q
    c = np.asarray(coeff_matrix, dtype=np.int64)
    x = np.asarray(xs, dtype=np.int64)
    if c.min(initial=0) < 0 or c.max(initial=0) >= q:
        raise InvalidArgument(f"coefficients must lie in [0, {q})")
    if x.min(initial=0) < 0 or x.max(initial=0) >= q:
        raise InvalidArgument(f"evaluation points must lie in [0, {q})")
    num_coeffs = c.shape[1]
    s = _lazy_steps(q, int(x.max(initial=0)), num_coeffs)
    acc = np.zeros((c.shape[0], x.shape[0]), dtype=np.int64)
    for step, k in enumerate(range(num_coeffs - 1, -1, -1), start=1):
        acc *= x
        acc += c[:, k : k + 1]
        if step % s == 0:
            acc %= q
    if num_coeffs % s:
        acc %= q
    return acc


def split_bit(t: int, q: int) -> int:
    """Bit k at which `mod_matmul` splits the right operand for inner length t mod q.

    Every float dot product must stay below 2^52, so qb + k + lt <= 52 (low
    half) and 2*qb - k + lt <= 52 (high half), with qb and lt the bit lengths
    of q-1 and t, for a left operand reduced into [0, q): some k exists while
    3*bits(q-1) + 2*bits(t) <= 104. A (t, q) past that raises InvalidArgument,
    as does any q with (q-1)^2 >= 2^63, whose elementwise products would
    overflow int64.
    """
    _check_modulus_range(q)
    qb = (q - 1).bit_length()
    lt = max(t, 1).bit_length()
    k_min = max(1, 2 * qb + lt - 52)
    k_max = 52 - qb - lt
    if k_min > k_max:
        raise InvalidArgument(
            f"no exact mod-q matmul for inner length t={t} at q={q}: the kernel "
            "needs 3*bits(q-1) + 2*bits(t) <= 104"
        )
    return min(max(qb // 2, k_min), k_max)


def mod_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """(a @ b) % q, exactly, for int64 matrices of elements reduced into [0, q).

    b is split at `split_bit` into low and high bits, and each half's float64
    product is exact; a (t, q) outside that range raises InvalidArgument.
    """
    t = a.shape[1]
    k = split_bit(t, q)
    low = (1 << k) - 1
    af = a.astype(np.float64)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    # Tile over columns: untiled, a wide product goes to multithreaded BLAS,
    # whose p90 on 2 cores was 16 ms against 0.47 ms tiled (80x140 @ 140x250).
    block = max(1, 4096 // max(t, 1))
    for lo in range(0, b.shape[1], block):
        bb = b[:, lo : lo + block]
        cols = bb.shape[1]
        halves = np.concatenate([bb & low, bb >> k], axis=1)
        parts = (af @ halves.astype(np.float64)).astype(np.int64)
        out[:, lo : lo + cols] = ((parts[:, cols:] % q) * (1 << k) + parts[:, :cols]) % q
    return out


def build_recon_matrix(points, d: int, fp: FieldParams) -> np.ndarray:
    """The (d, t) int64 coefficient-extraction matrix for t evaluation points.

    Row j holds the degree-j coefficients of the Lagrange basis polynomials for
    the given points, so row j dotted with (f(p_1), ..., f(p_t)) yields the
    coefficient of x^j in f for any f of degree < t.
    """
    q = fp.q
    pts = [p % q for p in points]
    t = len(pts)
    if not 0 < d <= t:
        raise InvalidArgument(f"need 0 < d <= t, got d={d}, t={t}")
    if t > q - 1:
        raise InvalidArgument("more points than nonzero field elements")
    if any(p == 0 for p in pts):
        raise InvalidArgument("evaluation points must be nonzero")
    if len(set(pts)) != t:
        raise InvalidArgument("evaluation points must be distinct")
    split_bit(t, q)  # a matrix the kernel cannot apply is refused here

    x = np.array(pts, dtype=np.int64)
    x_max = max(pts)
    # Master polynomial P(x) = prod (x - p_k), in descending order: one step
    # per root, the product by x being the shift into the zero padding. A
    # step multiplies magnitudes by at most 1 + x_max, so, as in Horner's
    # rule, reduction waits for the steps `_lazy_steps` allows; one step
    # from reduced entries stays within (q-1)^2 in magnitude, so at least
    # one is always safe.
    desc = np.zeros(t + 1, dtype=np.int64)
    desc[0] = 1
    steps = max(1, _lazy_steps(q, 1 + x_max, t))
    for j, p in enumerate(pts, start=1):
        desc[1 : j + 1] -= p * desc[:j]
        if j % steps == 0:
            desc %= q
    desc %= q
    # Synthetic division at every point at once is Horner's rule on P: row k
    # of quot holds the low d coefficients of Q_k(x) = P(x) / (x - p_k),
    # stored unreduced within the Horner bound and reduced once at the end.
    quot = np.empty((t, d), dtype=np.int64)
    carry = np.ones(t, dtype=np.int64)
    steps = _lazy_steps(q, x_max, t)
    for step, i in enumerate(range(t - 1, -1, -1), start=1):
        if i < d:
            quot[:, i] = carry
        carry *= x
        carry += desc[t - i]
        if step % steps == 0:
            carry %= q
    quot %= q
    # Q_k(p_k) = prod_{j != k} (p_k - p_j), halving the columns of the
    # difference matrix in log2(t) products; then Q_k / Q_k(p_k) is 1 at p_k
    # and 0 at every other point.
    diffs = (x[:, None] - x) % q
    np.fill_diagonal(diffs, 1)
    while diffs.shape[1] > 1:
        if diffs.shape[1] % 2:
            diffs = np.concatenate([diffs, np.ones((t, 1), dtype=np.int64)], axis=1)
        diffs = diffs[:, ::2] * diffs[:, 1::2] % q
    inv = np.array([pow(a, -1, q) for a in diffs[:, 0].tolist()], dtype=np.int64)
    return np.ascontiguousarray((quot * inv[:, None] % q).T)


def find_field_modulus(n: int, B: int) -> FieldParams:
    """Smallest prime q with q >= n(B-1)+1, so n inputs below B never wrap.

    A bound past the supported range is refused before the search starts; a
    prime found just past it is refused by FieldParams.
    """
    if n < 1 or B < 2:
        raise InvalidArgument("need n >= 1 and B >= 2")
    q = n * (B - 1) + 1
    _check_modulus_range(q)
    while not _is_prime(q):
        q += 1
    return FieldParams(q)
