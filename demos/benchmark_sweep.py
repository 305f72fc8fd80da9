"""A small benchmark sweep producing a plot-ready CSV.

Sweeps the client count at a fixed vector size and dropout/corruption rate,
then prints the trend the protocol is designed around: per-client work grows
with the cohort size while the server's reconstruction stays nearly flat,
because a larger cohort tolerates a wider packing width d and therefore
fewer, larger chunks.

The same sweep is available from the command line:

    fssa-bench --clients 20,40,80 --vector-size 2000 \
        --dropout-rate 0.3 --corruption-rate 0.3 --iterations 3 \
        --output sweep.csv

Run:  python3 demos/benchmark_sweep.py
"""

import csv

from fssa.bench import SweepSpec, emit_csv, run_experiment_grid

spec = SweepSpec(
    clients=[20, 40, 80],
    vector_sizes=[2000],
    dropout_rates=[0.3],
    corruption_rates=[0.3],
    iterations=3,
    seed_base=0,
    output="demo_sweep.csv",
)
rows = run_experiment_grid(spec)
emit_csv(rows, spec.output)
print(f"wrote {len(rows)} rows to {spec.output}\n")

with open(spec.output) as f:
    for row in csv.DictReader(f):
        if row["feasible"] != "yes":
            print(f"n={row['n']}: infeasible at these rates")
            continue
        print(
            f"n={row['n']:>3}  t={row['t']:>3}  d={row['d']:>3}  "
            f"chunks={row['chunk_count']:>4}  "
            f"client share {float(row['client_share_ns_mean']) / 1e6:6.2f} ms  "
            f"encrypt {float(row['client_encrypt_ns_mean']) / 1e6:6.2f} ms  "
            f"server precompute {float(row['server_precompute_ns_mean']) / 1e3:6.0f} us  "
            f"reconstruct {float(row['server_reconstruct_ns_mean']) / 1e3:5.0f} us"
        )
