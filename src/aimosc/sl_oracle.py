"""Finite-difference cross-check for the decaying-mass oscillator.

The time-domain equation -1/2 d/dt[(1+lam t^2) dphi/dt] + V(t) phi
= E phi with V(t) = omega^2 t^2 / (2 (1 + lam t^2)) is discretized on
a Dirichlet-truncated interval [-T, T] by the conservative three-point
flux stencil, giving a symmetric tridiagonal matrix.  Eigenvalues come
from bisection on LDL^T inertia counts: dependency-free,
bitwise-deterministic, and structurally independent of the iteration
engine it checks.

One bisection loop serves every level asked for.  The levels share their
brackets: each count narrows the bracket of every level, so a midpoint an
earlier count already decides costs no sweep, and a sweep stops as soon
as its count settles the question.  Both rest on the floating-point count
(a - x) - b^2/d being monotone in x (Kahan 1966; Demmel, Dhillon & Ren,
ETNA 3, 1995): the midpoints and brackets, hence the eigenvalues, are
bit-identical to those of a separate bisection per level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, pairwise
from typing import Optional, Sequence

from .fh_oscillator import ModelParams


class NonmonotoneConvergence(RuntimeError):
    """Grid-refinement errors did not shrink consistently; enlarge T or
    refine further before trusting an extrapolation."""


@dataclass(frozen=True)
class Grid:
    """Interior nodes t_i = -T + i*h, i = 1..N, with h = 2T/(N+1)."""
    T: float
    N: int

    def __post_init__(self) -> None:
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.N < 3:
            raise ValueError("N must be at least 3")

    @property
    def h(self) -> float:
        return 2.0 * self.T / (self.N + 1)

    def node(self, i: int) -> float:
        return -self.T + i * self.h


@dataclass
class TridiagOp:
    diag: list[float]
    offdiag: list[float]
    grid: Grid
    params: ModelParams
    _b2: list[float] = field(init=False, repr=False)
    _pivmin: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one shorter than diag")
        # b_{i-1}^2 per row, with 0 for row 0 so one loop covers every row
        self._b2 = [b * b for b in chain((0.0,), self.offdiag)]
        self._pivmin = (max(self._b2) if self.offdiag else 1.0) * 1e-30 \
            + 1e-300

    @property
    def n(self) -> int:
        return len(self.diag)

    def gershgorin(self) -> tuple[float, float]:
        radii = [abs(u) + abs(v)
                 for u, v in pairwise(chain((0.0,), self.offdiag, (0.0,)))]
        return (min(d - r for d, r in zip(self.diag, radii)),
                max(d + r for d, r in zip(self.diag, radii)))


class UnresolvedLevels(ValueError):
    """Levels `index` and `index + 1` did not come out strictly increasing:
    they lie closer together than the bisection width."""

    def __init__(self, index: int) -> None:
        super().__init__(f"eigenvalues {index} and {index + 1} must be "
                         f"strictly increasing")
        self.index = index


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: tuple[float, ...]
    grid: Grid
    est_error: tuple[float, ...]

    def __post_init__(self) -> None:
        pairs = zip(self.eigenvalues, self.eigenvalues[1:])
        for j, (a, b) in enumerate(pairs):
            if not a < b:
                raise UnresolvedLevels(j)


def discretize(params: ModelParams, grid: Grid) -> TridiagOp:
    """Conservative stencil with p = 1+lam t^2 at half-nodes:
    (H phi)_i = [-p_{i+1/2}(phi_{i+1}-phi_i) + p_{i-1/2}(phi_i-phi_{i-1})]
                / (2 h^2) + V_i phi_i.
    """
    lam = float(params.lam)
    w2 = float(params.omega) ** 2
    T, h, n = grid.T, grid.h, grid.N
    inv2h2 = 1.0 / (2.0 * h * h)
    p_half = [1.0 + lam * t * t
              for i in range(n + 1) for t in [-T + (i + 0.5) * h]]
    diag = [(p_half[i - 1] + p_half[i]) * inv2h2
            + w2 * t * t / (2.0 * (1.0 + lam * t * t))
            for i in range(1, n + 1) for t in [-T + i * h]]
    offdiag = [-p_half[i] * inv2h2 for i in range(1, n)]
    return TridiagOp(diag=diag, offdiag=offdiag, grid=grid, params=params)


def eigen_count_below(op: TridiagOp, x: float,
                      stop: Optional[int] = None) -> int:
    """Eigenvalues strictly below x by the LDL^T inertia count.

    Zero or denormal pivots are pushed to -pivmin, the standard guard;
    the count stays exact wherever no pivot underflows.  The count never
    falls along the rows, so with `stop` (at least 1) the sweep ends as
    soon as it reaches stop and returns min(count, stop).
    """
    pivmin = op._pivmin
    neg = -pivmin
    if stop is None:
        stop = op.n
    count = 0
    d = 1.0
    for a, b2 in zip(op.diag, op._b2):
        d = a - x - b2 / d
        if d < pivmin:  # negative, or pushed to -pivmin: counts either way
            if d > neg:
                d = neg
            count += 1
            if count == stop:
                break
    return count


def _bisect(op: TridiagOp, first: int, m: int,
            tol: float) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the levels first .. first + m - 1 (0-based).

    Level k is bisected from (lo of level k - 1, top of the Gershgorin
    interval) until hi - lo <= tol.  below[j] is the largest x seen with at
    most first + j eigenvalues below it, above[j] the smallest x seen with
    more; a midpoint these decide costs no sweep.  A sweep stops once its
    count settles level k, except above every point known to have fewer
    than first + m eigenvalues below it: there it runs until it puts every
    level below x, which spares the later levels their descent.
    """
    glo, ghi = op.gershgorin()
    below = [-math.inf] * m
    above = [math.inf] * m
    brackets = []
    lo = glo
    for k in range(m):
        hi = ghi
        for _ in range(300):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if mid <= below[k]:
                lo = mid
                continue
            if mid >= above[k]:
                hi = mid
                continue
            stop = m if mid > below[-1] else k + 1
            c = eigen_count_below(op, mid, first + stop) - first
            for j in range(k, c):  # mid < above[k] <= above[j]
                above[j] = mid
            if c < stop:  # an exact count, not a lower bound
                for j in range(max(c, k), m):
                    below[j] = max(below[j], mid)
            if c > k:
                hi = mid
            else:
                lo = mid
        brackets.append((lo, hi))
    return brackets


def lowest_eigenvalues(op: TridiagOp, m: int, tol: float) -> OracleResult:
    if not 1 <= m <= op.n:
        raise ValueError(f"m must lie in 1..{op.n}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    brackets = _bisect(op, 0, m, tol)
    return OracleResult(
        eigenvalues=tuple(0.5 * (lo + hi) for lo, hi in brackets),
        grid=op.grid,
        est_error=tuple(0.5 * (hi - lo) for lo, hi in brackets))


@dataclass(frozen=True)
class ConvergenceReport:
    extrapolated: tuple[float, ...]
    observed_orders: tuple[float, ...]
    levels: tuple[OracleResult, ...]


def converge_study(params: ModelParams, m: int, grids: Sequence[Grid],
                   bisect_tol: float = 1e-12) -> ConvergenceReport:
    """Refinement study over grids with halving h.

    Per eigenvalue, successive differences must shrink with a consistent
    ratio (a second-order stencil gives about 4 per halving); a sign flip,
    a ratio far outside [1.5, 8], or differences drowned by the bisection
    tolerance raise NonmonotoneConvergence.  Extrapolation assumes the
    theoretical order 2; the observed order is reported from the finest
    pair of levels.
    """
    if len(grids) < 3:
        raise ValueError("need at least 3 grids")
    ordered = sorted(grids, key=lambda g: g.h, reverse=True)
    for a, b in zip(ordered, ordered[1:]):
        if abs(a.h / b.h - 2.0) > 1e-9:
            raise ValueError("grids must halve h")
    levels = tuple(lowest_eigenvalues(discretize(params, g), m, bisect_tol)
                   for g in ordered)
    extrapolated = []
    orders = []
    for j in range(m):
        seq = [lv.eigenvalues[j] for lv in levels]
        diffs = [seq[i] - seq[i + 1] for i in range(len(seq) - 1)]
        for d in diffs:
            if abs(d) <= 10.0 * bisect_tol:
                raise NonmonotoneConvergence(
                    f"eigenvalue {j}: refinement differences at the "
                    f"bisection noise floor ({d:.3e})")
        for d1, d2 in zip(diffs, diffs[1:]):
            ratio = d1 / d2
            if ratio < 1.5 or ratio > 8.0:
                raise NonmonotoneConvergence(
                    f"eigenvalue {j}: inconsistent error ratio {ratio:.3f}")
        orders.append(math.log2(diffs[-2] / diffs[-1]) if len(diffs) >= 2
                      else float("nan"))
        extrapolated.append(seq[-1] + (seq[-1] - seq[-2]) / 3.0)
    return ConvergenceReport(extrapolated=tuple(extrapolated),
                             observed_orders=tuple(orders), levels=levels)


@dataclass(frozen=True)
class ThresholdCensus:
    """Bound-level count against a continuum edge on a truncated domain.

    Dirichlet truncation pushes a marginal (edge-sitting) level slightly
    above the threshold, so the census counts strictly-below levels plus
    one edge level when its overshoot is small next to the local gap."""
    strict_below: int
    census: int
    edge_shift: float
    edge_gap: float


def threshold_census(op: TridiagOp, threshold: float,
                     tol: float = 1e-8) -> ThresholdCensus:
    strict = eigen_count_below(op, threshold)
    if strict + 2 > op.n:
        raise ValueError("grid too small to examine the threshold edge")
    (lo0, hi0), (lo1, hi1) = _bisect(op, strict, 2, tol)
    edge = 0.5 * (lo0 + hi0)
    nxt = 0.5 * (lo1 + hi1)
    shift = edge - threshold
    gap = nxt - edge
    census = strict + (1 if shift < 0.25 * gap else 0)
    return ThresholdCensus(strict_below=strict, census=census,
                           edge_shift=shift, edge_gap=gap)


def suggest_domain(params: ModelParams, n: int, drop: float = 1e-8,
                   tau_cap: float = 500.0) -> float:
    """Half-width T (time units) where the n-th envelope profile
    (1+lt tau^2)^(-1/(2 lt)) tau^n has fallen below `drop` of its peak.

    Near-marginal states decay like a small negative power of tau, where
    the drop rule would demand astronomic domains; tau_cap bounds the
    suggestion and is where such states land."""
    lt = float(params.lam_tilde)

    def log_profile(tau: float) -> float:
        amp = -0.5 * tau * tau if lt == 0.0 \
            else -math.log1p(lt * tau * tau) / (2.0 * lt)
        return amp + (n * math.log(tau) if n else 0.0)

    peak = max(log_profile(0.1 * i + 0.05) for i in range(1, 400))
    target = peak + math.log(drop)
    tau = 1.0
    while tau < tau_cap:
        if log_profile(tau) < target:
            break
        tau *= 1.25
    return min(tau, tau_cap) / math.sqrt(float(params.omega))
