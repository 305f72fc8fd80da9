"""(t, d, n)-ramp secret sharing built on polynomial evaluation.

A length-d secret becomes the low-order coefficients of a degree-(t-1)
polynomial whose remaining t-d >= 1 coefficients are uniformly random; the
share for party u is the evaluation at point u. Any t shares reconstruct the
secret, and any t-d or fewer shares are distributed independently of it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientShares, InvalidArgument
from .field import FieldParams, build_recon_matrix, mod_matmul, poly_eval, poly_eval_batch

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

    def default_points(self) -> tuple:
        return tuple(range(1, self.n + 1))


@dataclass(frozen=True)
class ShareBundle:
    """One share per recipient point for a single length-d secret."""

    rp: RampParams
    shares: dict  # point -> element

    def __post_init__(self):
        for p in self.shares:
            if p % self.rp.fp.q == 0:
                raise InvalidArgument("share points must be nonzero mod q")


def _sharing_coeffs(rp: RampParams, secret, rng, coeffs) -> list[int]:
    q = rp.fp.q
    if not 1 <= len(secret) <= rp.d:
        raise InvalidArgument(f"secret length must be in [1, {rp.d}], got {len(secret)}")
    padded = [s % q for s in secret] + [0] * (rp.d - len(secret))
    n_random = rp.t - rp.d
    if coeffs is not None:
        if len(coeffs) != n_random:
            raise InvalidArgument(f"expected {n_random} explicit coefficients, got {len(coeffs)}")
        high = [c % q for c in coeffs]
    else:
        if rng is None:
            rng = random.SystemRandom()
        high = [rng.randrange(q) for _ in range(n_random)]
    return padded + high


def rss_share(rp: RampParams, secret, rng=None, coeffs=None, points=None) -> ShareBundle:
    """Share a secret vector of length <= d (zero-padded to d) among the points.

    `coeffs` fixes the t-d random coefficients explicitly for deterministic
    tests; otherwise they are drawn from `rng` (or a system source).
    """
    if points is None:
        points = rp.default_points()
    poly = _sharing_coeffs(rp, secret, rng, coeffs)
    shares = {p: poly_eval(poly, p % rp.fp.q, rp.fp) for p in points}
    return ShareBundle(rp=rp, shares=shares)


def rss_share_batch(rp: RampParams, secrets: np.ndarray, points, rng) -> np.ndarray:
    """Share many length-d secrets at once; returns shape (num_secrets, num_points).

    Row i of `secrets` is one secret. The random high coefficients, a
    (num_secrets, t-d) block uniform in [0, q), are drawn from the numpy
    generator `rng` in one `rng.integers` call. A point equal to 0 mod q is
    refused: the share there is the secret's first element in the clear.
    """
    secrets = np.asarray(secrets)
    if secrets.ndim != 2 or secrets.shape[1] != rp.d:
        raise InvalidArgument("secrets must be a (count, d) array")
    q = rp.fp.q
    high = rng.integers(0, q, size=(secrets.shape[0], rp.t - rp.d), dtype=np.int64)
    coeff_matrix = np.concatenate([secrets.astype(np.int64), high], axis=1)
    xs = np.array([p % q for p in points], dtype=np.int64)
    if not xs.all():
        raise InvalidArgument("share points must be nonzero mod q")
    return poly_eval_batch(coeff_matrix, xs, rp.fp)


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


def share_sum(bundles, u: int) -> int:
    """Field sum of several bundles' shares at one common point u."""
    if not bundles:
        raise InvalidArgument("no bundles to sum")
    rp = bundles[0].rp
    total = 0
    for b in bundles:
        if b.rp != rp:
            raise InvalidArgument("bundles were produced under different parameters")
        if u not in b.shares:
            raise InvalidArgument(f"point {u} missing from a bundle")
        total += b.shares[u]
    return total % rp.fp.q


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


def share_view_histogram(rp: RampParams, secret, view_points) -> Counter:
    """Exact distribution of a small view's share tuples over all random coefficients.

    Enumerates every assignment of the t-d random coefficients; for any two
    secrets the resulting histograms must be identical when the view has at
    most t-d points.
    """
    view = tuple(view_points)
    n_random = rp.t - rp.d
    if len(view) > n_random:
        raise InvalidArgument("view larger than t-d is outside the perfect-security regime")
    if rp.fp.q**n_random > _ENUMERATION_CAP:
        raise InvalidArgument("enumeration cap exceeded")
    q = rp.fp.q
    padded = [s % q for s in secret] + [0] * (rp.d - len(secret))
    hist: Counter = Counter()
    for high in itertools.product(range(q), repeat=n_random):
        poly = padded + list(high)
        hist[tuple(poly_eval(poly, p % q, rp.fp) for p in view)] += 1
    return hist
