"""Run one workload in this process and print its measurements as JSON.

Started by run.py as a child process, so that the peak resident memory it
reports belongs to this workload alone.  One client sends the requests in a
closed loop: each call to `aimosc.cli.main` returns before the next starts.

    python3 bench/worker.py --workload closed_io --seed 1 --seconds 5 --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

from aimosc import cli  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # untraced passes, so wall_s is a median of at least three
MIN_PAIRS = 2  # untraced and traced pass pairs in a traced run
PROBE_SHARE = 0.03  # probe time after each request, as a share of its latency


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rejected: list[str] = field(default_factory=list)


def call(argv: tuple[str, ...], main=cli.main) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def judge(req: workloads.Request, rc: int, out: str) -> Optional[str]:
    """Why the response is wrong, or None.  A check that cannot parse the
    output rejects it."""
    if rc not in req.exit_codes:
        return f"exit code {rc}"
    try:
        return req.check(rc, out)
    except (ValueError, KeyError, IndexError, TypeError, StopIteration,
            OSError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def run_pass(requests, tally: Tally,
             tracer: Optional[tracing.Tracer] = None) -> tuple[list[float], float]:
    """Send each request in turn.  Return the request latencies and the
    machine's slowdown factor over the pass, from a speed probe run after
    each request.  Checks and probes run between the timed calls."""
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    probe = speed.Probe()
    latencies = []
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        t0 = perf_counter()
        rc, out = call(req.argv, main)
        latency = perf_counter() - t0
        latencies.append(latency)
        probe.run(max(1, round(PROBE_SHARE * latency / speed.UNIT_REF_S)))
        reason = judge(req, rc, out)
        tally.attempted += 1
        if rc != 0 or reason is not None:
            tally.failed += 1
        if reason is not None:
            tally.rejected.append(f"{' '.join(req.argv)}: {reason}")
    return latencies, probe.factor


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> dict:
    wl = workloads.build(name, seed, OUT, tiny)
    warm = Tally()
    run_pass(wl.warmup, warm)
    tally = Tally(rejected=warm.rejected)
    tracer = tracing.Tracer() if trace else None
    walls: list[float] = []         # pass times in reference seconds
    raw_walls: list[float] = []     # pass times as measured
    factors: list[float] = []
    traced_walls: list[float] = []
    latencies: list[float] = []     # in reference seconds
    per_pass_layers: list[dict[str, float]] = []
    min_passes = 1 if tiny else MIN_PAIRS if trace else MIN_PASSES
    start = perf_counter()
    while True:
        # the traced run alternates untraced and traced passes, so the
        # tracing overhead is measured under the same conditions
        if trace and len(traced_walls) < len(walls):
            first = len(tracer.spans)
            with tracing.installed(tracer):
                lat, factor = run_pass(wl.requests, tally, tracer)
            traced_walls.append(sum(lat) / factor)
            layers = tracing.layer_metrics(tracer.spans, first)
            per_pass_layers.append({k: v / factor if k.endswith("_s") else v
                                    for k, v in layers.items()})
        else:
            lat, factor = run_pass(wl.requests, tally)
            walls.append(sum(lat) / factor)
            raw_walls.append(sum(lat))
            factors.append(factor)
            latencies.extend(x / factor for x in lat)
        if len(walls) >= min_passes and perf_counter() - start >= seconds \
                and (not trace or len(traced_walls) == len(walls)):
            break

    errors = [e for req in wl.requests
              if isinstance(req.check, workloads.VerifyCheck)
              for e in req.check.errors]
    result = {
        "workload": name, "seed": seed, "passes": len(walls),
        "attempted": tally.attempted, "failed": tally.failed,
        "rejected": tally.rejected[:5], "correct": not tally.rejected,
        "wall_s": statistics.median(walls),
        "wall_raw_s": statistics.median(raw_walls),
        "speed_factor": statistics.median(factors),
        "latencies": latencies,
        "oracle_max_err": max(errors, default=None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layers = tracing.median_metrics(per_pass_layers)
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls))
        spans_path = OUT / f"spans-{name}-{seed}.jsonl"
        tracing.write_spans(tracer.spans, spans_path)
        result.update(layers=layers, traced_passes=len(traced_walls),
                      traced_wall_s=statistics.median(traced_walls),
                      spans_file=str(spans_path.relative_to(ROOT)))
    return result


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
