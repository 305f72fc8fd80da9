"""Test helper: a sharing at every point, through the protocol's sharing path.

The protocol never sends the t-d designated peers their shares: it draws
them from the pair keys, and `rss_share_batch` solves each polynomial to
take those values. `share_everywhere` draws them uniformly from a seeded
generator instead and returns them with the solved shares at the other
points, so that a test can sum and reconstruct from any subset.
"""

import numpy as np

from fssa.ramp import rss_share_batch


def share_everywhere(rp, secrets, designated, rng) -> dict:
    """{point: shares} for every point 1..n; shares[i] belongs to row i of `secrets`.

    `secrets` is a (count, d) array, `designated` the t-d points whose
    values are drawn from the `random.Random` `rng`.
    """
    secrets = np.asarray(secrets, dtype=np.int64)
    values = np.array(
        [[rng.randrange(rp.fp.q) for _ in range(rp.k)] for _ in range(len(secrets))],
        dtype=np.int64,
    ).reshape(len(secrets), rp.k)
    points = [p for p in rp.default_points() if p not in designated]
    sent = rss_share_batch(rp, secrets, points, designated, values)
    return {**dict(zip(points, sent.T)), **dict(zip(designated, values.T))}
