"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import worker  # puts src on the import path
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name: str, trace: int) -> None:
    proc = _run("--workload", name, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_verify_failures_are_counted_not_hidden() -> None:
    """At q <= 2, lambda_tilde = 1/2 fails verify at the seed commit."""
    wl = workloads.verify_sweep(seed=1, tiny=True)
    tally = worker.Tally()
    worker.run_pass(wl.requests, tally)
    assert tally.attempted == 2
    assert not tally.rejected
    codes = sorted(worker.call(r.argv)[0] for r in wl.requests)
    assert tally.failed == codes.count(1)


def test_checker_rejects_corrupted_level() -> None:
    req = workloads._aim_request("1/10", "1/2", 6)
    rc, out = worker.call(req.argv)
    assert worker.judge(req, rc, out) is None
    doc = json.loads(out)
    doc["entries"][2]["E_tilde"] = str(Fraction(doc["entries"][2]["E_tilde"]) + 1)
    assert "n = 2" in worker.judge(req, rc, json.dumps(doc))
    del doc["entries"][3]
    assert worker.judge(req, rc, json.dumps(doc)) is not None


def test_checker_rejects_corrupted_decimal() -> None:
    check = workloads.check_closed(Fraction(1, 10), Fraction(1), 3, "csv")
    rc, out = worker.call(("spectrum", "--lambda-tilde", "1/10", "--n-max", "3",
                           "--format", "csv"))
    assert check(rc, out) is None
    assert "2.8" in out
    assert check(rc, out.replace("2.8", "2.80001", 1)) is not None


def test_checker_rejects_error_exit() -> None:
    req = workloads._aim_request("1/10", "0", 6)
    assert worker.judge(req, 2, "") == "exit code 2"


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "closed_io", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
