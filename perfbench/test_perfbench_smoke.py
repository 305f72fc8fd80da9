"""Smoke test of the benchmark at toy size (n=10, m=100, P-256).

Each workload shape runs and prints every metric BENCHMARK.json names with
its unit; a wrong expected aggregate fails the run; and the runner refuses to
run where the package sources are missing.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

RUN = pathlib.Path(__file__).with_name("run.py")
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())


def bench(*args, run=RUN):
    proc = subprocess.run(
        [sys.executable, str(run), "--toy", "--seed", "5", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def assert_reports(proc, result, declared):
    assert result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert re.search(rf"^  {re.escape(name)}\s+\S+ {re.escape(unit)}$", proc.stdout, re.M), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_shape_prints_every_end_to_end_metric(workload):
    proc, result = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert_reports(proc, result, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    # The table also prints the burst-sampled round metrics the JSON leaves out.
    for name in ("client_round2_ms.p50", "client_round2_ms.p90", "server_ms"):
        assert re.search(rf"^  {re.escape(name)}\s+\S+ ms$", proc.stdout, re.M), name
    assert re.search(r"^  failed_fraction\s+0\.0+ ratio$", proc.stdout, re.M)
    assert re.search(r'^env \{.*"blas_threads": 1,.*"nproc": \d+', proc.stdout, re.M)


def test_traced_run_prints_every_per_layer_metric():
    proc, result = bench("--workload", "churn-n100-m10k", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert_reports(proc, result, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    assert "span coverage within 1% of traced wall time: True" in proc.stdout
    # Churn drops a third of the budget after upload: some ciphertexts stay sealed.
    assert result["metrics"]["aead.useful_ratio"]["value"] < 1


def test_wrong_expected_aggregate_fails_the_run():
    proc, result = bench("--workload", "churn-n100-m10k", "--trace", "0", "--break-oracle")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert re.search(r"^  failed_fraction\s+1\.0+ ratio$", proc.stdout, re.M)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(RUN.parents[1] / "BENCHMARK.json", tmp_path)
    proc, result = bench("--workload", "wide-n50-m100k", "--trace", "0",
                         run=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert result is None
