"""The three aggregation shapes the benchmark runs, and their inputs.

All use rho = gamma = 0.3 and B = 2^16, and drop the full budget of
n - t = floor(0.3 n) clients in every aggregation, a fresh set each time.

- cohort-n200-m2k: many peers, short vectors. Per-peer work (key agreement,
  n^2 ciphertexts, the t = 140 reconstruction matrix) dominates.
- wide-n50-m100k: few peers, long vectors. Per-element work (sharing,
  chunking, per-byte AEAD and encoding) dominates; key agreement is a few
  percent, so a key-agreement change should not show here.
- churn-n100-m10k: the desk point where agreement and sharing are balanced.
  The dropouts are split across all three round boundaries, so U3 != U2,
  the server interpolates from a new roster every time, and some sealed
  ciphertexts are never opened.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from fssa.protocol import plan_parameters
from fssa.sim import DropPoint, SimConfig

RHO = 0.3
GAMMA = 0.3
B = 2**16


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    drop_points: tuple  # the boundaries the dropouts are split across, in order

    def plan(self):
        return plan_parameters(self.n, self.m, B=B, rho=RHO, gamma=GAMMA)

    def toy(self) -> "Workload":
        """The same shape at n = 10, m = 100, for the smoke test."""
        return dataclasses.replace(self, n=10, m=100)

    def inputs(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).integers(0, B, size=(self.n, self.m), dtype=np.int64)

    def schedule(self, rng: random.Random, budget: int) -> dict:
        """Drop `budget` random clients, split evenly across the drop points."""
        dropped = rng.sample(range(1, self.n + 1), budget)
        k = len(self.drop_points)
        return {u: self.drop_points[i * k // budget] for i, u in enumerate(dropped)}

    def config(self, inputs: list, schedule: dict, seed: int) -> SimConfig:
        return SimConfig(
            n=self.n, m=self.m, rho=RHO, gamma=GAMMA, B=B, seed=seed,
            dropout_schedule=schedule, inputs=inputs, parallel=False,
        )


WORKLOADS = {
    w.name: w
    for w in [
        Workload("cohort-n200-m2k", 200, 2_000, (DropPoint.AFTER_ROUND0,)),
        Workload("wide-n50-m100k", 50, 100_000, (DropPoint.AFTER_ROUND0,)),
        Workload(
            "churn-n100-m10k", 100, 10_000,
            (DropPoint.AFTER_ROUND0, DropPoint.AFTER_ROUND1_SEND, DropPoint.AFTER_ROUND1_RECEIVE),
        ),
    ]
}


def expected_sum(inputs: np.ndarray, schedule: dict) -> np.ndarray:
    """The exact aggregate, from the benchmark's own inputs.

    Every client that uploaded its shares counts, so only those dropped after
    Round 0 are left out. n (B - 1) < q, so the sum never wraps.
    """
    keep = [u for u in range(1, inputs.shape[0] + 1) if schedule.get(u) is not DropPoint.AFTER_ROUND0]
    return inputs[[u - 1 for u in keep]].sum(axis=0)
