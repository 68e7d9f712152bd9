"""Benchmark of the aimosc command line, one workload per run.

    python3 bench/run.py --workload aim_deep --seed 1 --seconds 30 --trace 0

Runs from the source tree: `src` goes on the import path and nothing is
installed.  `setup_s` is timed in fresh interpreters; the workload runs in
a child process (bench/worker.py), one client in a closed loop calling
`aimosc.cli.main` in-process.  The lines printed first give every metric by
name and unit; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 1` the metrics are the
per-layer figures of a traced run instead of the end-to-end ones.
`--workload all` runs each workload in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every aimosc command imports the CLI and builds its parser before it
# does anything else.
SETUP_CODE = "import aimosc.cli as c; c.build_parser()"
SETUP_RUNS = 9
SETUP_PROBE_UNITS = 25  # speed probe after each start, about 15 ms
DEADLINE_S = 170  # a run ends within 180 s

# The end-to-end metrics in the result line; each applies to every workload.
END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_s": "s",
              "peak_rss_mb": "MB"}
P90_MIN_BEYOND = 10  # req_p90_s only with at least this many samples above


def _env() -> dict[str, str]:
    """This environment with `src` first on PYTHONPATH."""
    rest = os.environ.get("PYTHONPATH", "")
    path = str(SRC) + (os.pathsep + rest if rest else "")
    return dict(os.environ, PYTHONPATH=path)


def setup_seconds(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI, in
    reference seconds and as measured."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = _env()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    probe = speed.Probe()
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
        probe.run(SETUP_PROBE_UNITS)
    raw = statistics.median(times)
    return raw / probe.factor, raw


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               tiny: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bits_max"):
        return "bits"
    if "share" in name or name.endswith("ratio"):
        return "ratio"
    return "count"


def report(raw: dict, trace: int,
           setup: Optional[tuple[float, float]]) -> dict:
    """Print every metric by name and unit; return the result object.
    Times are in reference seconds (see speed.py); the lines starting with
    '#' give the times as measured."""
    lat = raw["latencies"]
    print(f"# {raw['workload']} seed {raw['seed']}: {raw['passes']} passes, "
          f"{raw['attempted']} requests, {raw['failed']} failed")
    for reason in raw["rejected"]:
        print(f"# rejected: {reason}")
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in raw["layers"].items()}
        print(f"# traced passes: {raw['traced_passes']}; pass "
              f"{raw['wall_s']:.6g} s untraced, {raw['traced_wall_s']:.6g} s "
              f"traced; spans in {raw['spans_file']}")
    else:
        print(f"# as measured: setup {setup[1]:.6g} s, pass "
              f"{raw['wall_raw_s']:.6g} s, host slowdown "
              f"{raw['speed_factor']:.4g}x")
        metrics = {
            "setup_s": setup[0],
            "wall_s": raw["wall_s"],
            "req_p50_s": statistics.median(lat),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not trace:
        # end-to-end metrics that apply to some workloads only
        if len(lat) >= 2:
            p90 = statistics.quantiles(lat, n=10)[-1]
            beyond = sum(1 for x in lat if x > p90)
            if beyond >= P90_MIN_BEYOND:
                print(f"req_p90_s {p90:.6g} s ({len(lat)} samples, "
                      f"{beyond} above)")
        print(f"fail_ratio {raw['failed'] / raw['attempted']:.6g} "
              f"({raw['failed']}/{raw['attempted']})")
        if raw["oracle_max_err"] is not None:
            print(f"oracle_max_err {raw['oracle_max_err']:.6g} E_tilde")
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: shallow AIM, fewer values, one pass")
    args = ap.parse_args(argv)
    if not (SRC / "aimosc" / "cli.py").is_file():
        print(f"error: {SRC / 'aimosc'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        start = perf_counter()
        setup = None if args.trace else setup_seconds()
        raw = run_worker(name, args.seed, args.seconds, args.trace, args.tiny,
                         timeout=DEADLINE_S - (perf_counter() - start))
        results[name] = report(raw, args.trace, setup)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
