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

import random

from fssa.field import FieldParams
from fssa.ramp import RampParams, rss_recon, rss_share_batch, share_view_histogram

rng = random.Random(7)

# A toy field and a (t=4, d=2, n=6) scheme: 6 shareholders, any 4 recover,
# any 2 (t - d) together learn nothing.
fp = FieldParams(101)
rp = RampParams(t=4, d=2, n=6, fp=fp)


def share(secret, designated):
    """Every shareholder's share: drawn values at `designated`, solved ones elsewhere."""
    values = [rng.randrange(fp.q) for _ in designated]
    others = [p for p in rp.default_points() if p not in designated]
    solved = rss_share_batch(rp, [secret], others, designated, [values])[0].tolist()
    return dict(zip(designated, values)) | dict(zip(others, solved))


secret, designated = [17, 42], [5, 6]
shares = share(secret, designated)
print(f"secret {secret} shared over GF({fp.q}) with (t={rp.t}, d={rp.d}, n={rp.n})")
for point, value in sorted(shares.items()):
    how = "drawn, never sent" if point in designated else "solved"
    print(f"  shareholder {point}: f({point}) = {value}  ({how})")

# Any t shares reconstruct, no matter which, designated ones included.
subset = dict(rng.sample(sorted(shares.items()), rp.t))
print(f"reconstructed from points {sorted(subset)}: {rss_recon(rp, subset)}")

# Shares are additively homomorphic: sharing s1 and s2 (each sender with its
# own designated shareholders), then adding shares pointwise, yields a
# sharing of s1 + s2. This is the whole aggregation trick.
s1, s2 = [5, 9], [20, 30]
b1, b2 = share(s1, [2, 3]), share(s2, [4, 5])
summed = {p: (b1[p] + b2[p]) % fp.q for p in b1}
print(f"share-of-sum reconstructs to {rss_recon(rp, summed)} "
      f"(expected {[(a + b) % fp.q for a, b in zip(s1, s2)]})")

# Privacy: enumerate every vector of designated values for two different
# secrets over a tiny field and show that a small coalition's view has the
# identical distribution for both.
fp3 = FieldParams(5)
rp3 = RampParams(t=3, d=1, n=4, fp=fp3)
view = (1, 2)  # a 2-member coalition, t - d = 2 -> should learn nothing
h_a = share_view_histogram(rp3, [0], view)
h_b = share_view_histogram(rp3, [3], view)
print(f"coalition {view} view histogram identical for secrets [0] and [3]: {h_a == h_b}")
