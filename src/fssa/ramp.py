"""(t, d, n)-ramp secret sharing built on polynomial evaluation.

A length-d secret becomes the low-order coefficients of a degree-(t-1)
polynomial whose remaining t-d >= 1 coefficients hide it; the share for
party u is the evaluation at point u. Any t shares reconstruct the secret,
and any t-d or fewer shares are distributed independently of it.

`rss_share_batch` fixes the polynomial's values at t-d designated points
and solves for the high coefficients, so that those shares can be derived
by their holders rather than sent. Its privacy is that of uniform high
coefficients: given the secret, the map from the high coefficients h to
the values at the designated points x_D is h -> s(x_D) + diag(x_D^d) V(x_D) h,
with V a Vandermonde matrix on distinct nonzero points, which is a
bijection. Uniform values at x_D therefore give exactly the distribution of
polynomials that uniform high coefficients give. With the values drawn
from a keystream (`aead.derive_elems`), privacy is computational in AES,
as it already is for the AES-GCM ciphertexts.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientShares, InvalidArgument
from .field import (
    FieldParams,
    build_recon_matrix,
    mod_matmul,
    poly_eval_batch,
    reduce_points,
    split_bit,
)

_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class RampParams:
    """Threshold t, secret length d, party count n over the field fp.

    The one home of the sharing invariant 0 < d < t <= n <= q-1: t - d >= 1
    random coefficients hide every secret.
    """

    t: int
    d: int
    n: int
    fp: FieldParams

    def __post_init__(self):
        if self.d == self.t:
            raise InvalidArgument(
                f"d = t = {self.t} leaves no random coefficient: each share is a "
                "fixed linear function of the secret"
            )
        if not 0 < self.d < self.t <= self.n <= self.fp.q - 1:
            raise InvalidArgument(
                f"need 0 < d < t <= n <= q-1, got d={self.d}, t={self.t}, "
                f"n={self.n}, q={self.fp.q}"
            )
        # Reconstruction is an inner-length-t product mod q, which the exact
        # kernel must be able to apply.
        split_bit(self.t, self.fp.q)

    @property
    def k(self) -> int:
        """t - d: the random coefficients of a sharing, and the designated peers of a sender."""
        return self.t - self.d

    def default_points(self) -> tuple:
        return tuple(range(1, self.n + 1))


def rss_share_batch(rp: RampParams, secrets: np.ndarray, points, designated, values) -> np.ndarray:
    """Share many length-d secrets at once; returns shape (num_secrets, len(points)).

    Row i of `secrets` is one secret; its polynomial takes the value
    values[i, j] at designated[j], one of t-d designated points. The high
    coefficients h are solved for: with f = s + x^d h, h takes the values
    (values - s(x_D)) * x_D^-d at x_D, where s(x_D) is one `mod_matmul`
    with the powers of x_D, and the inverse Vandermonde of x_D
    (`build_recon_matrix`) turns those into h. Then Horner evaluates
    [secrets | h] at `points`, which must not overlap `designated`. A point
    equal to 0 mod q is refused: the share there is the secret's first
    element in the clear.
    """
    secrets = np.asarray(secrets)
    if secrets.ndim != 2 or secrets.shape[1] != rp.d:
        raise InvalidArgument("secrets must be a (count, d) array")
    q = rp.fp.q
    xs_list = reduce_points(points, q)
    xd_list = reduce_points(designated, q)
    if len(xd_list) != rp.k:
        raise InvalidArgument(f"need {rp.k} designated points, got {len(xd_list)}")
    if 0 in xs_list or 0 in xd_list:
        raise InvalidArgument("share points must be nonzero mod q")
    if not set(xd_list).isdisjoint(xs_list):
        raise InvalidArgument("share points must not overlap the designated points")
    xs = np.array(xs_list, dtype=np.int64)
    xd = np.array(xd_list, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (secrets.shape[0], rp.k):
        raise InvalidArgument(f"values must be a ({secrets.shape[0]}, {rp.k}) array")
    if values.min(initial=0) < 0 or values.max(initial=0) >= q:
        raise InvalidArgument(f"designated values must lie in [0, {q})")
    secrets = secrets.astype(np.int64)
    if secrets.min(initial=0) < 0 or secrets.max(initial=0) >= q:
        raise InvalidArgument(f"secrets must lie in [0, {q})")
    s_at_d = mod_matmul(secrets, _powers(xd, rp.d, q).T, q)
    inv_xd_pow = np.array([pow(x, -rp.d, q) for x in xd_list], dtype=np.int64)
    # |values - s(x_D)| < q, so its product with an element fits int64.
    z = (values - s_at_d) * inv_xd_pow % q
    high = mod_matmul(z, build_recon_matrix(xd_list, rp.k, rp.fp).T, q)
    return poly_eval_batch(np.concatenate([secrets, high], axis=1), xs, rp.fp)


def _powers(xs: np.ndarray, count: int, q: int) -> np.ndarray:
    """The (len(xs), count) matrix of xs^0 .. xs^(count-1) mod q, by doubling."""
    out = np.ones((xs.shape[0], count), dtype=np.int64)
    step, filled = xs % q, 1
    while filled < count:
        width = min(filled, count - filled)
        out[:, filled : filled + width] = out[:, :width] * step[:, None] % q
        step = step * step % q
        filled += width
    return out


def rss_recon(rp: RampParams, shares: dict) -> list[int]:
    """Recover the length-d secret from at least t (point, share) pairs.

    When more than t shares are available the t smallest points are used.
    """
    if len(shares) < rp.t:
        raise InsufficientShares(f"need {rp.t} shares, got {len(shares)}")
    pts = sorted(shares)[: rp.t]
    q = rp.fp.q
    col = np.array([[shares[p] % q] for p in pts], dtype=np.int64)
    return mod_matmul(build_recon_matrix(pts, rp.d, rp.fp), col, q)[:, 0].tolist()


def naive_aggregate_oracle(inputs, t: int, fp: FieldParams, rng=None) -> list[int]:
    """Sum vectors via per-element threshold sharing (d = 1), as a correctness oracle.

    Deliberately independent of the ramp machinery: plain power-sum polynomial
    evaluation and Lagrange interpolation at zero.
    """
    if not inputs:
        raise InvalidArgument("no input vectors")
    m = len(inputs[0])
    if any(len(v) != m for v in inputs):
        raise InvalidArgument("input vectors have mismatched lengths")
    n = len(inputs)
    if n < t:
        raise InvalidArgument("fewer clients than the threshold")
    if rng is None:
        rng = random.Random(0)
    q = fp.q
    points = list(range(1, n + 1))

    def eval_naive(cs, x):
        return sum(c * pow(x, i, q) for i, c in enumerate(cs)) % q

    out = []
    for j in range(m):
        # Every client shares its j-th element to all points; shares are summed
        # per point and the threshold-many smallest points reconstruct.
        summed = {p: 0 for p in points}
        for v in inputs:
            cs = [v[j] % q] + [rng.randrange(q) for _ in range(t - 1)]
            for p in points:
                summed[p] = (summed[p] + eval_naive(cs, p)) % q
        subset = points[:t]
        total = 0
        for p in subset:
            lam = 1
            for r in subset:
                if r != p:
                    lam = lam * ((-r) % q) % q * pow((p - r) % q, -1, q) % q
            total = (total + lam * summed[p]) % q
        out.append(total)
    return out


def share_view_histogram(rp: RampParams, secret, view_points, designated=None) -> Counter:
    """Exact distribution of a small view's share tuples over all designated values.

    Enumerates every vector of values at the t-d `designated` points (by
    default the last t-d parties), solves each polynomial with
    `rss_share_batch` as the protocol does, and counts the share tuples at
    the view, whose points may be designated or not. For any two secrets the
    histograms must be identical when the view has at most t-d points.
    """
    view = tuple(view_points)
    if len(view) > rp.k:
        raise InvalidArgument("view larger than t-d is outside the perfect-security regime")
    if rp.fp.q**rp.k > _ENUMERATION_CAP:
        raise InvalidArgument("enumeration cap exceeded")
    q = rp.fp.q
    if designated is None:
        designated = rp.default_points()[-rp.k:]
    designated = list(designated)
    padded = [s % q for s in secret] + [0] * (rp.d - len(secret))
    values = np.array(list(itertools.product(range(q), repeat=rp.k)), dtype=np.int64)
    secrets = np.tile(np.array(padded, dtype=np.int64), (len(values), 1))
    sent = [p for p in view if p not in designated]
    shares = dict(zip(sent, rss_share_batch(rp, secrets, sent, designated, values).T))
    shares.update(zip(designated, values.T))
    table = np.empty((len(values), len(view)), dtype=np.int64)
    for j, p in enumerate(view):
        table[:, j] = shares[p]
    return Counter(map(tuple, table.tolist()))
