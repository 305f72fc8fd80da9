import argparse
import csv
import subprocess
import sys
import weakref

import numpy as np
import pytest

import fssa.bench
from fssa.bench import (
    CSV_COLUMNS,
    DESK_CLIENTS,
    DESK_VECTOR_SIZE,
    PAPER_CLIENTS,
    PAPER_VECTOR_SIZE,
    RATE_GRID,
    SweepSpec,
    build_case_spec,
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


def case_args(paper_scale):
    return argparse.Namespace(paper_scale=paper_scale, iterations=1, seed=0, output="x.csv")


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

    @pytest.mark.parametrize("seed_base", [-1, -2**64], ids=["minus-one", "below-int64"])
    def test_negative_seed_refused(self, seed_base):
        # Every seed of a run must be non-negative: numpy's SeedSequence refuses others.
        with pytest.raises(InvalidArgument, match="seed must be >= 0"):
            tiny_spec(seed_base=seed_base)

    @pytest.mark.parametrize("field, value, what", [
        ("iterations", 1.5, "iterations"),
        ("iterations", True, "iterations"),
        ("iterations", "2", "iterations"),
        ("seed_base", "0", "seed"),
        ("seed_base", 0.0, "seed"),
        ("seed_base", False, "seed"),
    ], ids=["iterations-float", "iterations-bool", "iterations-str", "seed-str", "seed-float",
            "seed-bool"])
    def test_non_integer_count_refused(self, field, value, what):
        # Refused at construction, not later inside run_point or in the CSV.
        with pytest.raises(InvalidArgument, match=f"{what} must be an integer"):
            tiny_spec(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        spec = tiny_spec(iterations=np.int64(2), seed_base=np.uint8(3))
        assert (spec.iterations, spec.seed_base) == (2, 3)
        assert type(spec.iterations) is int and type(spec.seed_base) is int


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

    def test_previous_report_dropped_before_each_run(self, monkeypatch):
        # Each report holds its run's transcript; at paper scale two of them
        # alive at once cost hundreds of MB.
        simulate = fssa.bench.run_simulation
        previous, calls = [], []

        def checked(cfg):
            calls.append(all(ref() is None for ref in previous))
            report = simulate(cfg)
            previous.append(weakref.ref(report))
            return report

        monkeypatch.setattr(fssa.bench, "run_simulation", checked)
        run_point(tiny_spec(iterations=3), 0, 5, 4, 0.2, 0.2)
        assert calls == [True] * 4  # the warmup and three measured runs

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

    def test_unwritable_output_refused_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the output was opened")

        monkeypatch.setattr(fssa.bench, "run_point", no_sweep)
        out = tmp_path / "missing" / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--clients", "10", "--vector-size", "4", "--output", str(out)])
        assert exc.value.code == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, why", [
        (["--iterations", "0"], "iterations must be >= 1"),
        (["--clients", "5,x"], "argument --clients: invalid comma-separated int value: '5,x'"),
        (["--dropout-rate", "a"], "argument --dropout-rate: invalid comma-separated float value"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["zero-iterations", "non-integer-client-count", "non-numeric-rate", "negative-seed"])
    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys, argv, why):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("axis_flags", [
        ["--clients", "5", "--vector-size", "10"],
        ["--dropout-rate", "0.1"],
        ["--corruption-rate", "0.1"],
    ], ids=["clients-and-vector-size", "dropout-rate", "corruption-rate"])
    def test_case_with_axis_flag_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                  axis_flags):
        # A preset case sets every axis, so an axis flag would be silently ignored.
        def no_sweep(*args):
            raise AssertionError("the sweep ran despite a usage error")

        monkeypatch.setattr(fssa.bench, "run_experiment_grid", no_sweep)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--case", "1", *axis_flags, "--output", str(out)])
        assert exc.value.code == 2
        assert f"--case 1 sets its own axes; drop {axis_flags[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, axes", [
        (["--case", "2"], ([100], [DESK_VECTOR_SIZE // 2, DESK_VECTOR_SIZE, 2 * DESK_VECTOR_SIZE],
                           [0.3], RATE_GRID)),
        (["--paper-scale", "--clients", "100"], ([100], [PAPER_VECTOR_SIZE], [0.3], [0.3])),
    ], ids=["case-2", "paper-scale-default-m"])
    def test_spec_handed_to_the_grid_runner(self, tmp_path, monkeypatch, argv, axes):
        specs = []
        monkeypatch.setattr(fssa.bench, "run_experiment_grid", lambda spec: specs.append(spec) or [])
        out = tmp_path / "out.csv"
        assert main([*argv, "--iterations", "1", "--output", str(out)]) == 0
        [spec] = specs
        got = (spec.clients, spec.vector_sizes, spec.dropout_rates, spec.corruption_rates)
        assert got == axes
        assert out.read_text().startswith("n,m,rho,gamma,")


class TestCaseSpec:
    # (clients, vector sizes, dropout rates, corruption rates) of each preset
    # case: cases 1 and 3 sweep the cohort, 2 and 4 the vector length; cases
    # 1 and 2 sweep corruption, 3 and 4 dropout.
    @pytest.mark.parametrize("case, axes", [
        (1, lambda ns, n, m: (ns, [m], [0.3], RATE_GRID)),
        (2, lambda ns, n, m: ([n], [m // 2, m, 2 * m], [0.3], RATE_GRID)),
        (3, lambda ns, n, m: (ns, [m], RATE_GRID, [0.3])),
        (4, lambda ns, n, m: ([n], [m // 2, m, 2 * m], RATE_GRID, [0.3])),
    ])
    @pytest.mark.parametrize("paper_scale, ns, n, m", [
        (False, DESK_CLIENTS, 100, DESK_VECTOR_SIZE),
        (True, PAPER_CLIENTS, max(PAPER_CLIENTS), PAPER_VECTOR_SIZE),
    ], ids=["desk", "paper"])
    def test_axes(self, case, axes, paper_scale, ns, n, m):
        spec = build_case_spec(case, case_args(paper_scale))
        got = (spec.clients, spec.vector_sizes, spec.dropout_rates, spec.corruption_rates)
        assert got == axes(ns, n, m)
        assert (spec.iterations, spec.seed_base, spec.output) == (1, 0, "x.csv")

    def test_unknown_case_refused(self):
        with pytest.raises(InvalidArgument, match="unknown case 5"):
            build_case_spec(5, case_args(False))
