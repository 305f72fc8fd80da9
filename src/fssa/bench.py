"""Experiment grid runner: sweeps (n, m, rho, gamma), averages iterations,
and writes one CSV row per grid point.

Desk-scale defaults keep a full sweep fast; --paper-scale switches to the
large grid (n up to 500, m = 100K).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
import statistics
import sys
from dataclasses import dataclass

from .errors import FssaError, InvalidArgument
from .protocol import plan_parameters
from .sim import DropPoint, SimConfig, run_simulation

CLIENT_PHASES = ("keygen", "agree", "share", "encrypt", "sum")
SERVER_PHASES = ("route", "precompute", "reconstruct")

# The measured columns, each written as a _mean and a _std pair.
_TIMED_COLUMNS = [
    *(f"client_{phase}_ns" for phase in CLIENT_PHASES),
    *(f"server_{phase}_ns" for phase in SERVER_PHASES),
    "bytes_per_client",
    "bytes_received_per_client",
]

CSV_COLUMNS = [
    "n", "m", "rho", "gamma", "t", "d", "q", "chunk_count", "feasible", "iterations",
    *(f"{col}_{stat}" for col in _TIMED_COLUMNS for stat in ("mean", "std")),
]

DESK_CLIENTS = [50, 100, 200]
DESK_VECTOR_SIZE = 10_000
PAPER_CLIENTS = [100, 200, 300, 400, 500]
PAPER_VECTOR_SIZE = 100_000
RATE_GRID = [0.0, 0.1, 0.2, 0.3]


@dataclass
class SweepSpec:
    clients: list
    vector_sizes: list
    dropout_rates: list
    corruption_rates: list
    iterations: int = 5
    seed_base: int = 0
    output: str = "sweep.csv"

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidArgument("iterations must be >= 1")
        for lst, name in [
            (self.clients, "clients"),
            (self.vector_sizes, "vector sizes"),
            (self.dropout_rates, "dropout rates"),
            (self.corruption_rates, "corruption rates"),
        ]:
            if not lst:
                raise InvalidArgument(f"empty {name} axis")

    def grid(self):
        return list(
            itertools.product(
                self.clients, self.vector_sizes, self.dropout_rates, self.corruption_rates
            )
        )


def build_case_spec(case: int, args) -> SweepSpec:
    """The four preset evaluation cases, at desk scale or full scale."""
    ns = PAPER_CLIENTS if args.paper_scale else DESK_CLIENTS
    m = PAPER_VECTOR_SIZE if args.paper_scale else DESK_VECTOR_SIZE
    n_fixed = [max(ns)] if args.paper_scale else [100]
    m_sweep = [m // 2, m, 2 * m]
    if case == 1:
        axes = (ns, [m], [0.3], RATE_GRID)
    elif case == 2:
        axes = (n_fixed, m_sweep, [0.3], RATE_GRID)
    elif case == 3:
        axes = (ns, [m], RATE_GRID, [0.3])
    elif case == 4:
        axes = (n_fixed, m_sweep, RATE_GRID, [0.3])
    else:
        raise InvalidArgument(f"unknown case {case}")
    return SweepSpec(
        clients=list(axes[0]),
        vector_sizes=list(axes[1]),
        dropout_rates=list(axes[2]),
        corruption_rates=list(axes[3]),
        iterations=args.iterations,
        seed_base=args.seed,
        output=args.output,
    )


def _mean_std(values):
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return float(values[0]), 0.0
    return statistics.fmean(values), statistics.stdev(values)


def run_point(spec: SweepSpec, index: int, n, m, rho, gamma) -> dict:
    """All iterations of one grid point; returns a CSV row dict."""
    row = {c: "" for c in CSV_COLUMNS}
    row.update(n=n, m=m, rho=rho, gamma=gamma, iterations=spec.iterations)
    try:
        params = plan_parameters(n, m, rho=rho, gamma=gamma)
    except FssaError:
        row["feasible"] = "no"
        return row
    row.update(t=params.t, d=params.d, q=params.fp.q, chunk_count=params.chunk_count)
    row["feasible"] = "yes"

    samples = {col: [] for col in _TIMED_COLUMNS}
    # One discarded warmup iteration absorbs one-time costs (allocator growth,
    # BLAS initialization) so the measured iterations reflect steady state.
    for it in range(-1, spec.iterations):
        seed = spec.seed_base + index + max(it, 0)
        # The planned n - t dropouts happen after key advertisement, before
        # share upload.
        dropped = random.Random(seed).sample(range(1, n + 1), params.n - params.t)
        cfg = SimConfig(
            n=n,
            m=m,
            rho=rho,
            gamma=gamma,
            seed=seed,
            dropout_schedule={u: DropPoint.AFTER_ROUND0 for u in dropped},
        )
        report = run_simulation(cfg)
        if it < 0:
            continue
        # Each client phase is averaged over the clients that ran it: keygen
        # over the whole cohort, the Round-1 and Round-2 phases over the
        # clients that reached them.
        phases = report.client_phase_ns.values()
        for phase in CLIENT_PHASES:
            samples[f"client_{phase}_ns"].append(
                statistics.fmean(ph[phase] for ph in phases if phase in ph)
            )
        for phase in SERVER_PHASES:
            samples[f"server_{phase}_ns"].append(report.server_phase_ns.get(phase, 0))
        survivors = [u for u, ph in report.client_phase_ns.items() if "sum" in ph]
        sent, received = report.bytes_sent, report.bytes_received
        samples["bytes_per_client"].append(statistics.fmean(sent[u] for u in survivors))
        samples["bytes_received_per_client"].append(
            statistics.fmean(received[u] for u in survivors)
        )

    for col, vals in samples.items():
        mean, std = _mean_std(vals)
        row[f"{col}_mean"] = mean
        row[f"{col}_std"] = std
    return row


def run_experiment_grid(spec: SweepSpec) -> list[dict]:
    rows = []
    for index, (n, m, rho, gamma) in enumerate(spec.grid()):
        rows.append(run_point(spec, index, n, m, rho, gamma))
    return rows


def emit_csv(rows, path):
    try:
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
    except OSError as e:
        raise IOError(f"cannot write {path}: {e}") from e


def _parse_list(text, cast):
    return [cast(tok) for tok in text.split(",") if tok.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fssa-bench",
        description="Sweep aggregation experiments and emit CSV metrics.",
    )
    parser.add_argument("--clients", type=str, default=None,
                        help="comma-separated client counts")
    parser.add_argument("--vector-size", type=str, default=None,
                        help="comma-separated input vector lengths")
    parser.add_argument("--dropout-rate", type=str, default=None,
                        help="comma-separated dropout rates in [0, 1)")
    parser.add_argument("--corruption-rate", type=str, default=None,
                        help="comma-separated corruption rates in [0, 1)")
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--case", type=str, default="custom",
                        choices=["1", "2", "3", "4", "custom"])
    parser.add_argument("--output", type=str, default="sweep.csv")
    parser.add_argument("--paper-scale", action="store_true")
    args = parser.parse_args(argv)

    if args.case != "custom":
        spec = build_case_spec(int(args.case), args)
    else:
        spec = SweepSpec(
            clients=_parse_list(args.clients or "50,100,200", int),
            vector_sizes=_parse_list(
                args.vector_size
                or str(PAPER_VECTOR_SIZE if args.paper_scale else DESK_VECTOR_SIZE),
                int,
            ),
            dropout_rates=_parse_list(args.dropout_rate or "0.3", float),
            corruption_rates=_parse_list(args.corruption_rate or "0.3", float),
            iterations=args.iterations,
            seed_base=args.seed,
            output=args.output,
        )

    rows = run_experiment_grid(spec)
    emit_csv(rows, spec.output)
    infeasible = sum(1 for r in rows if r["feasible"] == "no")
    print(f"wrote {len(rows)} rows to {spec.output} ({infeasible} infeasible)")
    return 2 if infeasible else 0


if __name__ == "__main__":
    sys.exit(main())
