"""Ramp secret sharing from first principles, as the protocol shares.

A (t, d, n) ramp scheme packs d secrets into one degree-(t-1) polynomial:
the secrets are the d lowest coefficients and the remaining t - d
coefficients hide them. Any t of the n evaluation points recover all d
secrets; fewer than t - d + 1 points reveal nothing about them. Packing d
secrets per polynomial is what makes large-vector aggregation cheap: a
length-m vector costs ceil(m / d) sharings instead of m.

The protocol does not draw the t - d hiding coefficients. It fixes the
polynomial's values at t - d designated shareholders instead (in a real
run those values come from the key the sender shares with each of them, so
nothing is sent to them) and solves for the coefficients that take those
values. Uniform values there give exactly the polynomials that uniform
coefficients would.

Run:  python3 demos/ramp_sharing_basics.py
"""

import itertools
import random
from collections import Counter

import numpy as np

from fssa.field import FieldParams, build_recon_matrix, mod_matmul
from fssa.ramp import RampParams, rss_share_batch

rng = random.Random(7)

# A toy field and a (t=4, d=2, n=6) scheme: 6 shareholders, any 4 recover,
# any 2 (t - d) together learn nothing.
fp = FieldParams(101)
rp = RampParams(t=4, d=2, n=6, fp=fp)


def share(secret, designated):
    """Every shareholder's share: drawn values at `designated`, solved ones elsewhere."""
    values = [rng.randrange(fp.q) for _ in designated]
    others = [p for p in range(1, rp.n + 1) if p not in designated]
    solved = rss_share_batch(rp, [secret], others, designated, [values])[0].tolist()
    return dict(zip(designated, values)) | dict(zip(others, solved))


def reconstruct(shares):
    """The secret from the first t shares, as the server reconstructs: the (d, t)
    matrix of their points times the column of shares."""
    points = sorted(shares)[: rp.t]
    column = np.array([[shares[p]] for p in points], dtype=np.int64)
    return mod_matmul(build_recon_matrix(points, rp.d, fp), column, fp.q)[:, 0].tolist()


secret, designated = [17, 42], [5, 6]
shares = share(secret, designated)
print(f"secret {secret} shared over GF({fp.q}) with (t={rp.t}, d={rp.d}, n={rp.n})")
for point, value in sorted(shares.items()):
    how = "drawn, never sent" if point in designated else "solved"
    print(f"  shareholder {point}: f({point}) = {value}  ({how})")

# Any t shares reconstruct, no matter which, designated ones included.
subset = dict(rng.sample(sorted(shares.items()), rp.t))
print(f"reconstructed from points {sorted(subset)}: {reconstruct(subset)}")

# Shares are additively homomorphic: sharing s1 and s2 (each sender with its
# own designated shareholders), then adding shares pointwise, yields a
# sharing of s1 + s2. This is the whole aggregation trick.
s1, s2 = [5, 9], [20, 30]
b1, b2 = share(s1, [2, 3]), share(s2, [4, 5])
summed = {p: (b1[p] + b2[p]) % fp.q for p in b1}
print(f"share-of-sum reconstructs to {reconstruct(summed)} "
      f"(expected {[(a + b) % fp.q for a, b in zip(s1, s2)]})")

# Privacy: enumerate every vector of designated values for two different
# secrets over a tiny field and show that a small coalition's view has the
# identical distribution for both.
fp3 = FieldParams(5)
rp3 = RampParams(t=3, d=1, n=4, fp=fp3)
view, designated3 = [1, 2], [3, 4]  # a 2-member coalition, t - d = 2 -> should learn nothing
every_value = np.array(list(itertools.product(range(fp3.q), repeat=rp3.k)), dtype=np.int64)


def view_histogram(secret):
    """How often each pair of shares at `view` occurs over every designated value."""
    secrets = np.tile(np.array([secret], dtype=np.int64), (len(every_value), 1))
    seen = rss_share_batch(rp3, secrets, view, designated3, every_value)
    return Counter(map(tuple, seen.tolist()))


h_a, h_b = view_histogram([0]), view_histogram([3])
print(f"coalition {view} view histogram identical for secrets [0] and [3]: {h_a == h_b}")
