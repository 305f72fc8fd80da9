"""Prime-field arithmetic, the exact mod-q matrix product, and reconstruction
matrices as plain (d, t) int64 arrays.

One modulus range is supported: a prime q with (q-1)^2 < 2^63, so that
every element fits 32 bits and every elementwise product fits int64.
`FieldParams` refuses any other q. Primality is decided by trial division,
exact for every n and a few milliseconds at most in this range. Data are
numpy int64 arrays of elements reduced into [0, q).

Every matrix product over the field goes through `mod_matmul`, which has one
evaluation: it splits the right operand into low and high bits so that each
half's float64 product is exact. `split_bit` states its range (inner length t
and modulus q with 3*bits(q-1) + 2*bits(t) <= 104) and raises InvalidArgument
for any other.
"""

from __future__ import annotations

import math
import operator
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
    """A prime modulus q with (q-1)^2 < 2^63, and the bit width of one element.

    `bit_width` is bits(q-1), at most 32 in this range: the bits one element
    takes on the wire.
    """

    q: int
    bit_width: int = field(init=False)

    def __post_init__(self):
        if self.q < 2:
            raise InvalidArgument(f"modulus must be >= 2, got {self.q}")
        _check_modulus_range(self.q)
        if not _is_prime(self.q):
            raise InvalidArgument(f"modulus {self.q} is not prime")
        object.__setattr__(self, "bit_width", (self.q - 1).bit_length())


def lazy_steps(q: int, x_max: int, num_coeffs: int) -> int:
    """Horner steps at points up to x_max that stay below 2^63 from a reduced
    accumulator, at most num_coeffs.

    From an accumulator below q, i multiply-adds stay at most b_i, where
    b_0 = q-1 and b_{i+1} = b_i*x_max + (q-1); this is the largest i <= num_coeffs
    with b_i < 2^63. It is at least 1 whenever x_max <= q-1 at an admitted q,
    since (q-1)^2 + (q-1) < 2^63, and it is num_coeffs when x_max <= 1.
    """
    s, b = 0, q - 1
    while s < num_coeffs:
        b = b * x_max + (q - 1)
        if b >= 2**63:
            break
        s += 1
    return s


def reduce_mod(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q in place, as `a - (a // q) * q`, for an integer array a; returns a.

    numpy divides an integer array by a scalar without a hardware division
    per element, which `%` does, so this takes about half the time of
    `a %= q`. Floor division rounds toward -inf, so every entry lands in
    [0, q) as `%` puts it, negative ones included; the product and the
    difference may wrap, but their result is the remainder all the same.
    """
    quot = a // q
    quot *= q
    a -= quot
    return a


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


def reduce_points(points, q: int) -> list[int]:
    """Points as Python ints mod q: the lazy-step bounds wrap silently on numpy integers."""
    try:
        return [operator.index(p) % q for p in points]
    except TypeError:
        raise InvalidArgument("evaluation points must be integers") from None


def build_recon_matrix(points, d: int, fp: FieldParams) -> np.ndarray:
    """The (d, t) int64 coefficient-extraction matrix for t evaluation points.

    Row j holds the degree-j coefficients of the Lagrange basis polynomials for
    the given points, so row j dotted with (f(p_1), ..., f(p_t)) yields the
    coefficient of x^j in f for any f of degree < t.
    """
    q = fp.q
    pts = reduce_points(points, q)
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
    # rule, reduction waits for the steps `lazy_steps` allows; one step
    # from reduced entries stays within (q-1)^2 in magnitude, so at least
    # one is always safe.
    desc = np.zeros(t + 1, dtype=np.int64)
    desc[0] = 1
    steps = max(1, lazy_steps(q, 1 + x_max, t))
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
    steps = lazy_steps(q, x_max, t)
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
