import csv
import subprocess
import sys

import pytest

from fssa.bench import (
    CSV_COLUMNS,
    SweepSpec,
    emit_csv,
    main,
    run_experiment_grid,
    run_point,
)
from fssa.errors import InvalidArgument


def tiny_spec(**kw):
    base = dict(
        clients=[5],
        vector_sizes=[4],
        dropout_rates=[0.2],
        corruption_rates=[0.2],
        iterations=2,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_grid_is_full_product(self):
        spec = tiny_spec(clients=[5, 6], dropout_rates=[0.0, 0.2])
        assert len(spec.grid()) == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidArgument):
            tiny_spec(clients=[])

    def test_bad_iterations(self):
        with pytest.raises(InvalidArgument):
            tiny_spec(iterations=0)


class TestRunPoint:
    def test_feasible_row(self):
        spec = tiny_spec()
        row = run_point(spec, 0, 5, 4, 0.2, 0.2)
        assert row["feasible"] == "yes"
        assert (row["n"], row["m"], row["t"], row["d"]) == (5, 4, 4, 3)
        assert row["chunk_count"] == 2
        for phase in ("keygen", "agree", "share", "encrypt", "sum"):
            assert row[f"client_{phase}_ns_mean"] > 0, phase
        for phase in ("route", "precompute", "reconstruct"):
            assert row[f"server_{phase}_ns_mean"] > 0, phase
        assert row["bytes_per_client_mean"] > 0
        assert row["bytes_received_per_client_mean"] > 0
        assert set(row) == set(CSV_COLUMNS)

    def test_infeasible_row(self):
        spec = tiny_spec(dropout_rates=[0.6], corruption_rates=[0.6])
        row = run_point(spec, 0, 5, 4, 0.6, 0.6)
        assert row["feasible"] == "no"
        assert row["t"] == ""
        assert row["client_keygen_ns_mean"] == ""
        assert row["server_precompute_ns_mean"] == ""

    def test_non_timing_columns_reproducible(self):
        spec = tiny_spec(iterations=1, seed_base=3)
        stable = [c for c in CSV_COLUMNS if not c.endswith(("_mean", "_std"))]
        a = run_point(spec, 0, 5, 4, 0.2, 0.2)
        b = run_point(spec, 0, 5, 4, 0.2, 0.2)
        assert {c: a[c] for c in stable} == {c: b[c] for c in stable}
        assert a["bytes_per_client_mean"] == b["bytes_per_client_mean"]


class TestCsv:
    def test_emit_and_read_back(self, tmp_path):
        spec = tiny_spec()
        rows = run_experiment_grid(spec)
        out = tmp_path / "sweep.csv"
        emit_csv(rows, out)
        with open(out, newline="") as f:
            got = list(csv.DictReader(f))
        assert len(got) == len(rows) == 1
        assert list(got[0]) == CSV_COLUMNS
        assert got[0]["feasible"] == "yes"

    def test_header_order_pinned(self, tmp_path):
        # Readers of old sweeps index columns by position; the header is frozen.
        out = tmp_path / "sweep.csv"
        emit_csv([], out)
        assert out.read_bytes() == (
            b"n,m,rho,gamma,t,d,q,chunk_count,feasible,iterations,"
            b"client_keygen_ns_mean,client_keygen_ns_std,"
            b"client_agree_ns_mean,client_agree_ns_std,"
            b"client_share_ns_mean,client_share_ns_std,"
            b"client_encrypt_ns_mean,client_encrypt_ns_std,"
            b"client_sum_ns_mean,client_sum_ns_std,"
            b"server_route_ns_mean,server_route_ns_std,"
            b"server_precompute_ns_mean,server_precompute_ns_std,"
            b"server_reconstruct_ns_mean,server_reconstruct_ns_std,"
            b"bytes_per_client_mean,bytes_per_client_std,"
            b"bytes_received_per_client_mean,bytes_received_per_client_std\r\n"
        )

    def test_unwritable_path(self):
        with pytest.raises(IOError):
            emit_csv([], "/nonexistent-dir/sweep.csv")


class TestCli:
    def test_custom_sweep_exit_zero(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = main([
            "--clients", "40,50",
            "--vector-size", "8",
            "--dropout-rate", "0.1",
            "--corruption-rate", "0.1",
            "--iterations", "1",
            "--output", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["n"]) for r in rows] == [40, 50]
        assert all(r["feasible"] == "yes" for r in rows)

    def test_infeasible_point_exit_two(self, tmp_path):
        out = tmp_path / "out.csv"
        rc = main([
            "--clients", "10",
            "--vector-size", "4",
            "--dropout-rate", "0.5",
            "--corruption-rate", "0.5",
            "--iterations", "1",
            "--output", str(out),
        ])
        assert rc == 2
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["feasible"] == "no"

    def test_case_one_grid_shape(self, tmp_path):
        # Case 1 sweeps client counts x corruption rates at fixed m and rho.
        # Use the module only to build the spec; running the full desk grid
        # here would be slow, so check the grid, not the timings.
        import argparse

        from fssa.bench import DESK_CLIENTS, RATE_GRID, build_case_spec

        args = argparse.Namespace(
            paper_scale=False, iterations=1, seed=0,
            output=str(tmp_path / "x.csv"),
        )
        spec = build_case_spec(1, args)
        assert len(spec.grid()) == len(DESK_CLIENTS) * len(RATE_GRID)
        assert spec.vector_sizes == [10_000]

    def test_degenerate_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--degenerate-privacy-ok", "--clients", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --degenerate-privacy-ok" in capsys.readouterr().err

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fssa.bench", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "--paper-scale" in proc.stdout
