"""Spans around calls into each aimosc layer, for the traced benchmark run.

The package is not edited: `installed` rebinds module attributes such as
`aim_core.isolate_real_roots` and `sl_oracle.eigen_count_below` to timing
wrappers and restores them afterwards.  The package looks these names up
in its own module namespaces at call time, so the wrappers see every call
the CLI makes.  `eigenfunction_via_alpha` is not wrapped: no CLI path
reaches it.

Spans stay in memory; self times and per-layer figures are computed from
them after the run, and `write_spans` saves them as JSON lines.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

K_SHARES = 20  # isolation share is reported for k = 1..K_SHARES


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span in Tracer.spans, -1 for none
    request: int
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._delta: tuple[object, Optional[int]] = (None, None)

    def wrap(self, name: str, fn: Callable,
             tag: Optional[Callable[["Tracer", tuple, object], dict]] = None
             ) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if tag is not None:
                span.tags = tag(self, args, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# tags: counts read from arguments and results at the layer boundary

def _tag_delta(tracer: Tracer, args: tuple, result) -> dict:
    tracer._delta = (result.poly, result.k)
    return {"k": result.k}


def _tag_roots(tracer: Tracer, args: tuple, result) -> dict:
    poly = args[0]
    last_poly, k = tracer._delta
    exact = sum(1 for iv in result if iv.exact is not None)
    return {
        "k": k if poly is last_poly else None,
        "exact": exact,
        "bracketed": len(result) - exact,
        "degree": max(de for _, de in poly),
        "bits": max(max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in poly.values()),
    }


def _tag_state(tracer: Tracer, args: tuple, result) -> dict:
    return {"k": result.k, "terms": len(result.L)}


def _tag_report(tracer: Tracer, args: tuple, result) -> dict:
    return {"accepted": len(result.accepted), "rejected": len(result.rejected)}


def _tag_rows(tracer: Tracer, args: tuple, result) -> dict:
    return {"rows": args[0].n}


def _targets():
    from aimosc import aim_core, fh_oscillator, sl_oracle
    return [
        (aim_core, "aim_eigenvalues", "aim_core.aim_eigenvalues", _tag_report),
        (aim_core, "aim_iterate", "aim_core.aim_iterate", _tag_state),
        (aim_core, "quantization_delta", "aim_core.quantization_delta", _tag_delta),
        (aim_core, "isolate_real_roots", "exactalg.isolate_real_roots", _tag_roots),
        (aim_core, "refine_root", "exactalg.refine_root", None),
        (sl_oracle, "discretize", "sl_oracle.discretize", None),
        (sl_oracle, "eigen_count_below", "sl_oracle.eigen_count_below", _tag_rows),
        (sl_oracle, "lowest_eigenvalues", "sl_oracle.lowest_eigenvalues", None),
        (fh_oscillator, "normalization_constant",
         "fh_oscillator.normalization_constant", None),
        (fh_oscillator, "residual_check", "fh_oscillator.residual_check", None),
        (fh_oscillator, "eigen_polynomial", "fh_oscillator.eigen_polynomial", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every call into the traced functions through `tracer`."""
    saved = []
    try:
        for module, attr, name, tag in _targets():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, tag))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# per-layer figures from a slice of spans

BUSY = ("exactalg.isolate_real_roots", "exactalg.refine_root",
        "aim_core.aim_iterate", "aim_core.quantization_delta",
        "sl_oracle.discretize", "sl_oracle.eigen_count_below",
        "sl_oracle.lowest_eigenvalues", "fh_oscillator.normalization_constant",
        "fh_oscillator.residual_check", "fh_oscillator.eigen_polynomial")
CALLS = ("exactalg.isolate_real_roots", "exactalg.refine_root",
         "aim_core.aim_iterate", "sl_oracle.eigen_count_below",
         "fh_oscillator.normalization_constant")
SELF = ("aim_core.aim_eigenvalues", "cli.main")


def layer_metrics(spans: list[Span], first: int = 0) -> dict[str, float]:
    """Per-layer figures over spans[first:], one pass of the workload."""
    children: dict[int, list[int]] = {}
    for i in range(first, len(spans)):
        children.setdefault(spans[i].parent, []).append(i)
    by_name: dict[str, list[int]] = {}
    for i in range(first, len(spans)):
        by_name.setdefault(spans[i].name, []).append(i)

    def named(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, [])]

    def tag_sum(name: str, key: str) -> int:
        return sum(s.tags[key] for s in named(name))

    def tag_max(name: str, key: str) -> int:
        return max((s.tags[key] for s in named(name)), default=0)

    out: dict[str, float] = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = sum(s.duration for s in named(name))
    for name in CALLS:
        out[f"{name}.calls"] = len(named(name))
    for name in SELF:
        out[f"{name}.self_s"] = sum(
            spans[i].duration - sum(spans[c].duration for c in children.get(i, []))
            for i in by_name.get(name, []))
    iso = "exactalg.isolate_real_roots"
    out["exactalg.roots_exact"] = tag_sum(iso, "exact")
    out["exactalg.roots_bracketed"] = tag_sum(iso, "bracketed")
    out["exactalg.delta_degree_max"] = tag_max(iso, "degree")
    out["exactalg.delta_coeff_bits_max"] = tag_max(iso, "bits")
    out["aim_core.state_terms_max"] = tag_max("aim_core.aim_iterate", "terms")
    accepted = tag_sum("aim_core.aim_eigenvalues", "accepted")
    tried = accepted + tag_sum("aim_core.aim_eigenvalues", "rejected")
    out["aim_core.accept_ratio"] = accepted / tried if tried else 0.0
    out["sl_oracle.rows_swept"] = tag_sum("sl_oracle.eigen_count_below", "rows")
    shares = isolation_shares(spans, by_name.get("aim_core.aim_eigenvalues", []),
                              children)
    for k in range(1, K_SHARES + 1):
        out[f"aim_core.isolate_share.k{k:02d}"] = shares.get(k, 0.0)
    out["aim_core.isolate_share.min_k08_up"] = min(
        (v for k, v in shares.items() if k >= 8), default=0.0)
    return out


def isolation_shares(spans: list[Span], aim_runs: list[int],
                     children: dict[int, list[int]]) -> dict[int, float]:
    """Isolation time at iteration k over the time aim_eigenvalues spent on
    step k, which runs from the k-th aim_iterate call to the next one (or
    to the end of the call)."""
    step: dict[int, float] = {}
    isolate: dict[int, float] = {}
    for i in aim_runs:
        kids = [spans[c] for c in children.get(i, [])]
        starts = [(s.tags["k"], s.start) for s in kids
                  if s.name == "aim_core.aim_iterate"]
        ends = [t for _, t in starts[1:]] + [spans[i].end]
        for (k, t0), t1 in zip(starts, ends):
            step[k] = step.get(k, 0.0) + t1 - t0
        for s in kids:
            if s.name == "exactalg.isolate_real_roots" and s.tags["k"] is not None:
                isolate[s.tags["k"]] = isolate.get(s.tags["k"], 0.0) + s.duration
    return {k: isolate.get(k, 0.0) / t for k, t in step.items() if t > 0}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass)
            for key in per_pass[0]}


def write_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
