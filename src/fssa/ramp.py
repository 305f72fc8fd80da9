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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .field import (
    FieldParams,
    build_recon_matrix,
    lazy_steps,
    mod_matmul,
    reduce_mod,
    reduce_points,
    split_bit,
)


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


def rss_share_batch(rp: RampParams, secrets: np.ndarray, points, designated, values) -> np.ndarray:
    """Share many length-d secrets at once; returns shape (num_secrets, len(points)).

    Row i of `secrets` is one secret; its polynomial takes the value
    values[i, j] at designated[j], one of t-d designated points. The high
    coefficients h are solved for: with f = s + x^d h, h takes the values
    (values - s(x_D)) * x_D^-d at x_D, where s(x_D) is one `mod_matmul`
    with the powers of x_D, and the inverse Vandermonde of x_D
    (`build_recon_matrix`) turns those into h. Then Horner's rule evaluates
    [secrets | h] at `points`, which must not overlap `designated`. A point
    equal to 0 mod q is refused: the share there is the secret's first
    element in the clear.

    Horner runs in place on a (points, secrets) accumulator, so each step
    is one long vector operation per point, and the result is its
    transposed view. The first of its t steps loads c_{t-1}; it reduces with
    `reduce_mod` only every s steps and once at the end, with
    s = `lazy_steps`(q, X, t) at the largest share point X: every
    coefficient is reduced (the secrets and values are checked, h comes
    from `mod_matmul`) and so are the points, so s unreduced steps from an
    accumulator below q stay under 2^63, and s >= 1 at every admitted q.
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
    xs = np.array(xs_list, dtype=np.int64)[:, None]  # one point per accumulator row
    xd = np.array(xd_list, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if values.shape != (secrets.shape[0], rp.k):
        raise InvalidArgument(f"values must be a ({secrets.shape[0]}, {rp.k}) array")
    if values.min(initial=0) < 0 or values.max(initial=0) >= q:
        raise InvalidArgument(f"designated values must lie in [0, {q})")
    secrets = secrets.astype(np.int64, copy=False)
    if secrets.min(initial=0) < 0 or secrets.max(initial=0) >= q:
        raise InvalidArgument(f"secrets must lie in [0, {q})")
    s_at_d = mod_matmul(secrets, _powers(xd, rp.d, q).T, q)
    inv_xd_pow = np.array([pow(x, -rp.d, q) for x in xd_list], dtype=np.int64)
    # |values - s(x_D)| < q, so its product with an element fits int64.
    z = reduce_mod((values - s_at_d) * inv_xd_pow, q)
    high = mod_matmul(z, build_recon_matrix(xd_list, rp.k, rp.fp).T, q)
    # Row j holds coefficient j of every secret, contiguous, so each Horner
    # step adds one contiguous row (np.concatenate of the transposes would
    # keep them column-major).
    coeffs = np.empty((rp.t, secrets.shape[0]), dtype=np.int64)
    coeffs[: rp.d] = secrets.T
    coeffs[rp.d :] = high.T
    s = lazy_steps(q, max(xs_list, default=0), rp.t)
    acc = np.empty((xs.shape[0], coeffs.shape[1]), dtype=np.int64)
    acc[:] = coeffs[-1]
    for step, j in enumerate(range(rp.t - 2, -1, -1), start=2):
        acc *= xs
        acc += coeffs[j]
        if step % s == 0:
            reduce_mod(acc, q)
    if rp.t % s:
        reduce_mod(acc, q)
    return acc.T


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
