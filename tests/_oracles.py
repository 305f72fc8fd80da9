"""Test oracles: reference implementations the package is checked against.

Nothing here runs in the protocol, whose one reconstruction path is
`Server.round2`. These share, evaluate, reconstruct and enumerate from
first principles, so that a test can compare the package's batch code with
a second computation of the same value.
"""

import itertools
import random
from collections import Counter

import numpy as np

from fssa.errors import InvalidArgument
from fssa.field import build_recon_matrix, mod_matmul
from fssa.ramp import rss_share_batch

_ENUMERATION_CAP = 10**6

Q_MAX = 3037000493  # largest q with (q-1)^2 < 2^63: the top of the field's range


def all_points(rp) -> tuple:
    """The evaluation points 1..n of a `RampParams`, one per party."""
    return tuple(range(1, rp.n + 1))


def poly_eval(coeffs, x: int, fp) -> int:
    """Evaluate a polynomial (ascending-degree coefficients) at x by Horner's rule."""
    if len(coeffs) == 0:
        raise InvalidArgument("empty coefficient list")
    q = fp.q
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def pack_bits(values, b: int) -> bytes:
    """An element block from first principles: one int whose bits i*b to
    i*b + b - 1 hold element i, written little-endian in ceil(len * b / 8) bytes.

    Any value below 2^b is packed, q or more included, so a test can build a
    block the package's packer refuses to write.
    """
    values = [int(v) for v in values]
    assert all(0 <= v < 1 << b for v in values), f"value outside {b} bits"
    bits = "".join(format(v, f"0{b}b") for v in reversed(values))
    return int(bits or "0", 2).to_bytes((len(values) * b + 7) // 8, "little")


def pack_list(pairs, n: int, size: int) -> bytes:
    """A wire list from first principles: a ceil(n/8)-byte little-endian int
    whose bit i - 1 is set for each index i present, the entry size as a
    4-byte little-endian int, then the payloads in the order given.

    Nothing is checked, so a test can build a list the package refuses.
    """
    present = {i for i, _ in pairs}
    bits = "".join("1" if i in present else "0" for i in range(n, 0, -1))
    bitmap = int(bits or "0", 2).to_bytes((n + 7) // 8, "little")
    return bitmap + size.to_bytes(4, "little") + b"".join(p for _, p in pairs)


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


def python_recon_matrix(points, d, q):
    """The coefficient-extraction matrix built one Python int at a time."""
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


def rss_recon(rp, shares: dict) -> list[int]:
    """Recover the length-d secret from at least t (point, share) pairs.

    When more than t shares are available the t smallest points are used.
    """
    assert len(shares) >= rp.t, f"need {rp.t} shares, got {len(shares)}"
    pts = sorted(shares)[: rp.t]
    q = rp.fp.q
    return apply(build_recon_matrix(pts, rp.d, rp.fp), [shares[p] % q for p in pts], q)


def naive_aggregate_oracle(inputs, t: int, fp, rng=None) -> list[int]:
    """Sum vectors via per-element threshold sharing (d = 1).

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
        out.append(textbook_shamir_recon({p: summed[p] for p in points[:t]}, q))
    return out


def share_everywhere(rp, secrets, designated, rng) -> dict:
    """{point: shares} for every point 1..n, through the protocol's sharing path.

    The protocol never sends the t-d designated peers their shares: it draws
    them from the pair keys, and `rss_share_batch` solves each polynomial to
    take those values. Here they are drawn uniformly from the `random.Random`
    `rng` and returned with the solved shares at the other points, so that a
    test can sum and reconstruct from any subset. `secrets` is a (count, d)
    array; shares[i] belongs to its row i.
    """
    secrets = np.asarray(secrets, dtype=np.int64)
    values = np.array(
        [[rng.randrange(rp.fp.q) for _ in range(rp.k)] for _ in range(len(secrets))],
        dtype=np.int64,
    ).reshape(len(secrets), rp.k)
    points = [p for p in all_points(rp) if p not in designated]
    sent = rss_share_batch(rp, secrets, points, designated, values)
    return {**dict(zip(points, sent.T)), **dict(zip(designated, values.T))}


def share_view_histogram(rp, secret, view_points, designated=None) -> Counter:
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
        designated = all_points(rp)[-rp.k:]
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
