"""Finite-difference cross-check for the decaying-mass oscillator.

The time-domain equation -1/2 d/dt[(1+lam t^2) dphi/dt] + V(t) phi
= E phi with V(t) = omega^2 t^2 / (2 (1 + lam t^2)) is discretized on
a Dirichlet-truncated interval [-T, T] by the conservative three-point
flux stencil, giving a symmetric tridiagonal matrix.  Eigenvalues come
from bisection on LDL^T inertia counts: dependency-free,
bitwise-deterministic, and structurally independent of the iteration
engine it checks.

The grid is symmetric about t = 0, so the matrix is persymmetric and its
spectrum splits into an even and an odd block of about N/2 rows each,
both read off the right half of the operator.  With nonzero couplings the
levels alternate between the blocks (discrete Sturm oscillation), so level
n is level n // 2 of block n % 2.  Each block is swept from the grid
centre outward, and a sweep ends once the rows left provably cannot add a
negative pivot: past the classical turning point of the shift the rows are
diagonally dominant by a margin that covers every rounding, and once a
pivot reaches the coupling to the next row every later pivot stays above
its own coupling (see `eigen_count_below`).  The forbidden tails and the
mirror half, which cannot change a count, are never swept.

One bisection loop serves every level of a block.  The levels share their
brackets: each count narrows the bracket of every level, so a midpoint an
earlier count already decides costs no sweep, and a sweep stops as soon
as its count settles the question.  Both rest on the floating-point count
(a - x) - b^2/d being monotone in x (Kahan 1966; Demmel, Dhillon & Ren,
ETNA 3, 1995): the midpoints and brackets are bit-identical to those of a
separate bisection per level of the block.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, pairwise
from typing import Optional, Sequence

from .fh_oscillator import ModelParams

# Relative part of the row margin of a Block: 2^-48 is 32 units of
# rounding, where the proof in `eigen_count_below` needs about 10.
_MARGIN_REL = 2.0 ** -48


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


@dataclass(frozen=True)
class Block:
    """A symmetric tridiagonal matrix in the form the inertia sweep reads:
    a parity block of an operator, or a whole operator.

    b2[i] is the squared coupling of row i to row i - 1 (0 for row 0) and
    c_i = fl(sqrt(b2[i])).  slack_min[r] is the least row slack
    s_i = a_i - c_i - c_(i+1) - margin_i over the rows i >= r, with
    margin_i = 2^-48 (|a_i| + c_i + c_(i+1)) + 2 pivmin; it never falls
    along the rows.  span holds every eigenvalue: the Gershgorin interval
    widened by the same margins.
    """
    diag: list[float]
    b2: list[float]
    pivmin: float
    slack_min: list[float]
    span: tuple[float, float]

    @property
    def n(self) -> int:
        return len(self.diag)


def _slack_back(diag: Sequence[float], b2: Sequence[float], pivmin: float,
                c_next: float = 0.0, low: float = math.inf,
                top: float = -math.inf
                ) -> tuple[list[float], float, float, float]:
    """One pass over the rows from the last back: the running minimum of
    the row slack (see Block), last row first, then c of the first row and
    the span so far.  c_next, low and top carry on from rows below."""
    rel = _MARGIN_REL
    twice_pivmin = 2.0 * pivmin
    out = []
    for a, c in zip(reversed(diag), map(math.sqrt, reversed(b2))):
        r = c + c_next
        margin = rel * (abs(a) + r) + twice_pivmin
        s = a - r - margin
        if s < low:
            low = s
        s = a + r + margin
        if s > top:
            top = s
        out.append(low)
        c_next = c
    return out, c_next, low, top


def _blocks(heads: Sequence[tuple[list[float], list[float]]],
            tail_diag: list[float], tail_b2: list[float]) -> list[Block]:
    """Blocks that each run their own head rows (diagonal, b2) into the
    tail rows they share; the tail's slack is computed once."""
    pivmin = max(chain(tail_b2, *(hb for _, hb in heads))) * 1e-30 + 1e-300
    tail, c0, low, top = _slack_back(tail_diag, tail_b2, pivmin)
    tail.reverse()
    blocks = []
    for hd, hb in heads:
        head, _, lo, hi = _slack_back(hd, hb, pivmin, c0, low, top)
        blocks.append(Block(diag=hd + tail_diag, b2=hb + tail_b2,
                            pivmin=pivmin, slack_min=head[::-1] + tail,
                            span=(lo, hi)))
    return blocks


@dataclass
class TridiagOp:
    diag: list[float]
    offdiag: list[float]
    grid: Grid
    params: ModelParams

    def __post_init__(self) -> None:
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one shorter than diag")

    @property
    def n(self) -> int:
        return len(self.diag)

    @cached_property
    def whole(self) -> Block:
        """The operator as one block, for a direct count; the oracle
        sweeps only its parity blocks."""
        b2 = [b * b for b in chain((0.0,), self.offdiag)]
        return _blocks([(self.diag, b2)], [], [])[0]

    @cached_property
    def parity_blocks(self) -> tuple[Block, Block]:
        """The blocks of the even and of the odd levels of the operator
        mirrored from its right half; with negative couplings, as the
        stencil's are, they hold the even and the odd states.

        With N = 2M the right half starts at row M, whose diagonal is
        a_M - |b_(M-1)| in the block of levels 0, 2, 4, ... and
        a_M + |b_(M-1)| in the other.  With N = 2M + 1 the first block keeps
        the centre row M, coupled to row M + 1 with b^2 = 2 b_M^2, and the
        second starts at row M + 1.  Both share the operator's own rows from
        t0 on."""
        a, b, n = self.diag, self.offdiag, self.n
        m = n // 2
        t0 = m + 1 + n % 2
        if n % 2:
            heads = (([a[m], a[m + 1]], [0.0, 2.0 * b[m] * b[m]]),
                     ([a[m + 1]], [0.0]))
        else:
            centre = abs(b[m - 1])
            heads = (([a[m] - centre], [0.0]), ([a[m] + centre], [0.0]))
        even, odd = _blocks(heads, a[t0:], [v * v for v in b[t0 - 1:]])
        return even, odd

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

    A grid whose entries overflow, or whose couplings vanish because h^2
    underflows or overflows, has no such operator and raises ValueError.
    """
    lam = float(params.lam)
    w2 = float(params.omega) ** 2
    T, h, n = grid.T, grid.h, grid.N
    if not 0.0 < 2.0 * h * h < math.inf:
        raise ValueError(f"h^2 = {h * h:g} is out of floating-point range")
    inv2h2 = 1.0 / (2.0 * h * h)
    p_half = [1.0 + lam * t * t
              for i in range(n + 1) for t in [-T + (i + 0.5) * h]]
    diag = [(p_half[i - 1] + p_half[i]) * inv2h2
            + w2 * t * t / (2.0 * (1.0 + lam * t * t))
            for i in range(1, n + 1) for t in [-T + i * h]]
    offdiag = [-p_half[i] * inv2h2 for i in range(1, n)]
    # finite diagonal entries bound every p_half, hence every coupling
    if not all(map(math.isfinite, diag)) or not all(offdiag):
        raise ValueError("the stencil has entries that are not finite or "
                         "couplings that are zero")
    return TridiagOp(diag=diag, offdiag=offdiag, grid=grid, params=params)


def eigen_count_below(op: TridiagOp | Block, x: float,
                      stop: Optional[int] = None) -> int:
    """Eigenvalues strictly below x by the LDL^T inertia count of op, a
    whole operator or one of its parity blocks.

    Zero or denormal pivots are pushed to -pivmin, the standard guard;
    the count stays exact wherever no pivot underflows.  The count never
    falls along the rows, so with `stop` (at least 1) the sweep ends as
    soon as it reaches stop and returns min(count, stop).

    Tail exit.  From the first row r with slack_min[r] > x (see `Block`),
    the sweep ends at the first row i >= r entered with a pivot d > 0 with
    d * d >= b2[i], and the count is exactly that of the uncut sweep.
    Proof, with u = 2^-53, by induction over the rows k >= i, each entered
    with d_(k-1) > 0 and d_(k-1)^2 (1 + u) >= b2[k] (at k = i the rounded
    test gives this):
      - q = fl(b2[k] / d_(k-1)) <= (1 + u)^(3/2) sqrt(b2[k]) <= c_k (1 + 3u);
      - with D = a_k - x - c_k - c_(k+1), the pivot is d_k = fl(fl(a_k - x)
        - q), and fl(a_k - x) - q >= c_(k+1) + D (1 - u) - u (4 c_k +
        c_(k+1)) when a_k - x > 0;
      - x < s_k, with s_k and margin_k rounded as computed, gives
        D >= 28u (|a_k| + c_k + c_(k+1)) + 1.99 pivmin, so a_k - x > 0 and
        the last two terms above add up to at least 4u c_(k+1) + pivmin.
        |x| needs no term of its own: the rounding of a_k - x is at most
        u |a_k - x| = u (D + c_k + c_(k+1));
      - rounding is monotone and pivmin is a float, so d_k >= pivmin and
        d_k >= c_(k+1) (1 + 4u)(1 - u): row k adds no count, and since
        c_(k+1) is sqrt(b2[k + 1]) rounded, d_k^2 > b2[k + 1].
    (Where the margin underflows, 2 pivmin alone covers the rounding.)  The
    rows before r need no slack: only the pivot they leave enters row i.
    """
    if isinstance(op, TridiagOp):
        op = op.whole
    pivmin = op.pivmin
    neg = -pivmin
    if stop is None:
        stop = op.n
    count = 0
    d = 1.0
    rows = zip(op.diag, op.b2)
    for a, b2 in islice(rows, bisect_right(op.slack_min, x)):
        d = a - x - b2 / d
        if d < pivmin:  # negative, or pushed to -pivmin: counts either way
            if d > neg:
                d = neg
            count += 1
            if count == stop:
                return count
    for a, b2 in rows:  # past the cut: the same step, until the tail exit
        if d > 0.0 and d * d >= b2:
            break
        d = a - x - b2 / d
        if d < pivmin:
            if d > neg:
                d = neg
            count += 1
            if count == stop:
                break
    return count


def _bisect(block: Block, first: int, m: int,
            tol: float) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the block's levels first .. first + m - 1
    (0-based).

    Level k is bisected from (lo of level k - 1, top of the block's span)
    until hi - lo <= tol.  below[j] is the largest x seen with at most
    first + j eigenvalues below it, above[j] the smallest x seen with more;
    a midpoint these decide costs no sweep.  A sweep stops once its count
    settles level k, except above every point known to have fewer than
    first + m eigenvalues below it: there it runs until it puts every level
    below x, which spares the later levels their descent.
    """
    glo, ghi = block.span
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
            c = eigen_count_below(block, mid, first + stop) - first
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


def _level_brackets(op: TridiagOp, first: int, m: int,
                    tol: float) -> list[tuple[float, float]]:
    """Brackets of the operator's levels first .. first + m - 1: level j
    is level j // 2 of parity block j % 2."""
    levels = range(first, first + m)
    per_block = []
    for p, block in enumerate(op.parity_blocks):
        own = levels[(p - first) % 2::2]
        per_block.append(iter(_bisect(block, own[0] // 2, len(own), tol)
                              if own else ()))
    return [next(per_block[j % 2]) for j in levels]


def lowest_eigenvalues(op: TridiagOp, m: int, tol: float) -> OracleResult:
    if not 1 <= m <= op.n:
        raise ValueError(f"m must lie in 1..{op.n}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    brackets = _level_brackets(op, 0, m, tol)
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
    strict = sum(eigen_count_below(block, threshold)
                 for block in op.parity_blocks)
    if strict + 2 > op.n:
        raise ValueError("grid too small to examine the threshold edge")
    (lo0, hi0), (lo1, hi1) = _level_brackets(op, strict, 2, tol)
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
