"""Finite-difference cross-check for the decaying-mass oscillator.

The time-domain operator -1/2 d/dt[(1 + lam t^2) d/dt] + omega^2 t^2 /
(2 (1 + lam t^2)) is exactly omega H~ in tau = sqrt(omega) t, where H~ =
-1/2 d/dtau[(1 + lt tau^2) d/dtau] + tau^2 / (2 (1 + lt tau^2)) is its form
at omega = 1 and lt = lam / omega.  This module solves H~ alone, on tau in
[-T, T]: the caller passes T as sqrt(omega) times the half-width in t and
multiplies the levels by omega.  Below, t stands for tau.  H~ is
discretized on a mapped grid (Boyd, Chebyshev and Fourier Spectral
Methods, ch. 17): t = sinh(x), x uniform on [-asinh(T), asinh(T)] with
Dirichlet ends, and the conservative three-point flux stencil in x.  The
map turns the power-law tails t^(n - 1/lt) of the bound states into
exponentials in x, so a few thousand rows reach t = 4.4e6 at x = 16.
Scaling out the weight dt/dx symmetrically gives a symmetric tridiagonal
matrix.  Eigenvalues come from bisection on LDL^T inertia counts:
dependency-free, bitwise-deterministic, and structurally independent of
the iteration engine it checks.

The grid is symmetric about t = 0, so the matrix is persymmetric: its
left half is the mirror image of its right half, and only the right half
is built and held.  Its spectrum splits into an even and an odd block of
about N/2 rows each, both folded from that half.  With nonzero couplings
the levels alternate between the blocks (discrete Sturm oscillation), so
level n is level n // 2 of block n % 2.  Each block is swept from the grid
centre outward, and a sweep ends once the rows left provably cannot add a
negative pivot: past the classical turning point of the shift the rows are
diagonally dominant by a margin that covers every rounding, and once a
pivot reaches the coupling to the next row every later pivot stays above
its own coupling (see `eigen_count_below`).  The forbidden tails, which
cannot change a count, are never swept.  The slack is that of the
weighted rows: with sqrt(g_i g_(i+1)) != g_i a row's kinetic part alone is
not diagonally dominant, but in the tails its surplus tends to
lam (cosh(h/2) - 1) / h^2 >= 0, so the slack tends to V(t) plus that and
rises above every level below the edge.

One bisection loop serves every level of a block.  The levels share their
brackets: each count narrows the bracket of every level, so a midpoint an
earlier count already decides costs no sweep, and a sweep stops as soon
as its count settles the question.  Both rest on the floating-point count
(a - x) - b^2/d being monotone in x (Kahan 1966; Demmel, Dhillon & Ren,
ETNA 3, 1995): the midpoints and brackets are bit-identical to those of a
separate bisection per level of the block.  The same holds for hints,
points near the levels counted before the bisection starts, such as their
values on a coarser grid, a Richardson prediction or the nodes of the
`bisection_leaves` around it: each count only adds true facts to the
shared brackets, so a hint can save sweeps but never move a midpoint,
however good or bad it is.

The stencil is built from the mapped points (t, g) of its grid.  Each
grid's map is computed once per process for each (T, N), so a sweep over
lambda_tilde or omega reuses it.  For odd N, (N + 1) = 2 (N//2 + 1), so
the grid of N//2 rows over the same T has the step H = 2h exactly, and its
points equal the fine grid's bit for bit.
"""
from __future__ import annotations

import math
import struct
from bisect import bisect_right
from functools import cached_property, lru_cache
from itertools import chain, islice, pairwise
from typing import (Callable, Iterable, NamedTuple, Optional, Sequence,
                    SupportsFloat)

# Relative part of the row margin of a Block: 2^-48 is 32 units of
# rounding, where the proof in `eigen_count_below` needs about 10.
_MARGIN_REL = 2.0 ** -48

# The default half-width T = sinh(16), about 4.4e6: there the slowest tail
# of a strictly bound state, t^(n - 1/lt) with n < 1/lt - 1, is below e^-15
# of its size at t = 1.
DEFAULT_T = math.sinh(16.0)


class _GridFields(NamedTuple):
    T: float
    N: int


class Grid(_GridFields):
    """N interior nodes of a uniform x grid on [-asinh(T), asinh(T)],
    mapped to t = sinh(x) on [-T, T]."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __init__(self, *args, **kwargs) -> None:
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        if self.N < 3:
            raise ValueError("N must be at least 3")

    def step(self) -> float:
        """h = 2 asinh(T) / (N + 1), the x spacing; ValueError where 2 h^2
        leaves floating-point range."""
        h = 2.0 * math.asinh(self.T) / (self.N + 1)
        if not 0.0 < 2.0 * h * h < math.inf:
            raise ValueError(f"h^2 = {h * h:g} is out of floating-point range")
        return h


class Block(NamedTuple):
    """A symmetric tridiagonal matrix in the form the inertia sweep reads,
    such as a parity block of the grid operator.

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
    def n(self) -> int:  # rows; bench/tracing.py tags each count with it
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


class TridiagOp:
    """Rows N//2 .. N-1 of the grid operator, the centre row first; the
    other rows are their mirror image.  offdiag[k] couples row k + N % 2
    to the row before it, so for even N offdiag[0] couples the first row
    to its mirror."""

    def __init__(self, diag: list[float], offdiag: list[float]) -> None:
        if not 1 <= len(offdiag) <= len(diag) <= len(offdiag) + 1:
            raise ValueError("offdiag must be nonempty and as long as diag "
                             "or one shorter")
        self.diag, self.offdiag = diag, offdiag

    @property
    def n(self) -> int:  # N, the rows of the whole operator
        return len(self.diag) + len(self.offdiag)

    @cached_property
    def parity_blocks(self) -> tuple[Block, Block]:
        """The blocks of the even and of the odd levels of the operator;
        with negative couplings, as the stencil's are, they hold the even
        and the odd states.

        With N = 2M the block of levels 0, 2, 4, ... starts with the
        diagonal a_M - |b_(M-1)| of the first held row and the other with
        a_M + |b_(M-1)|.  With N = 2M + 1 the first block keeps the centre
        row M, coupled to row M + 1 with b^2 = 2 b_M^2, and the second
        starts at row M + 1.  Both share the held rows after those."""
        a, b = self.diag, self.offdiag
        if len(a) > len(b):  # odd N: a[0] is the centre row
            heads = (([a[0], a[1]], [0.0, 2.0 * b[0] * b[0]]), ([a[1]], [0.0]))
            tail = a[2:]
        else:
            centre = abs(b[0])
            heads = (([a[0] - centre], [0.0]), ([a[0] + centre], [0.0]))
            tail = a[1:]
        even, odd = _blocks(heads, tail, [v * v for v in b[1:]])
        return even, odd


class UnresolvedLevels(ValueError):
    """The brackets of levels `index` and `index + 1` overlap, or their
    midpoints do not come out strictly increasing: the two levels lie
    closer together than the bisection width."""

    def __init__(self, index: int) -> None:
        super().__init__(f"eigenvalues {index} and {index + 1} are not "
                         f"resolved by the bisection")
        self.index = index


@lru_cache(maxsize=3)  # the three oracle grids of one --grid-N
def mapped_points(grid: Grid) -> tuple[Sequence[float], Sequence[float]]:
    """(t, g) = (sinh(x), cosh(x)) at x = j h/2 for j = 2 (N//2) - N .. N:
    the half-nodes and the held nodes of the right half, alternating, the
    half-node left of the centre row first (see `discretize`).  x <
    asinh(T), so sinh(x) does not overflow.  Every call with the same grid
    shares them for the life of the process, as read-only views of 8 bytes
    a value."""
    n = grid.N
    half = 0.5 * grid.step()
    xs = [j * half for j in range(2 * (n // 2) - n, n + 1)]
    pack = struct.Struct(f"{len(xs)}d").pack
    return (memoryview(pack(*map(math.sinh, xs))).cast("d"),
            memoryview(pack(*map(math.cosh, xs))).cast("d"))


def discretize(lam_tilde: SupportsFloat, grid: Grid) -> TridiagOp:
    """The right half of H~ by the conservative stencil on t = sinh(x), with
    weight g = dt/dx = cosh(x) and p = 1 + lt t^2, lt = lambda_tilde:
    (A phi)_i = [-(p/g)_(i+1/2) (phi_(i+1) - phi_i)
                 + (p/g)_(i-1/2) (phi_i - phi_(i-1))] / (2 h^2)
                + g_i V_i phi_i = E g_i phi_i,
    V = t^2 / (2 p), made symmetric as G^(-1/2) A G^(-1/2), G = diag(g).
    The map is odd and g even, so the operator stays persymmetric.

    Only rows N//2 .. N-1 and couplings (N-1)//2 .. N-2 are built.  The
    points are x = j h/2 with j an integer, node i at j = 2i - N - 1 and
    half-node i + 1/2 at j = 2i - N, so mirrored points are exact negatives.
    They are `mapped_points(grid)`.

    A grid whose entries overflow, or whose couplings vanish because h^2
    underflows or overflows, has no such operator and raises ValueError.
    """
    lam = float(lam_tilde)
    n = grid.N
    h = grid.step()
    inv2h2 = 1.0 / (2.0 * h * h)
    ts, gs = mapped_points(grid)
    # p/g at the half-nodes m + k (k = 0 .. n - m), which alternate with
    # the held nodes m + 1 + k
    q = [(1.0 + lam * t * t) / g for t, g in zip(ts[::2], gs[::2])]
    nt, ng = ts[1::2], gs[1::2]
    diag = [(qa + qb) * inv2h2 / g + t * t / (2.0 * (1.0 + lam * t * t))
            for qa, qb, t, g in zip(q, q[1:], nt, ng)]
    # coupling k joins the held rows k - 1 and k; for even N, row -1 is the
    # mirror of row 0
    gg = [a * b for a, b in zip(ng, ng[1:])]
    if n % 2 == 0:
        gg.insert(0, ng[0] * ng[0])
    offdiag = [-a * inv2h2 / math.sqrt(p) for a, p in zip(q[n % 2:], gg)]
    # finite diagonal entries bound every q, hence every coupling
    if not all(map(math.isfinite, diag)) or not all(offdiag):
        raise ValueError("the stencil has entries that are not finite or "
                         "couplings that are zero")
    return TridiagOp(diag=diag, offdiag=offdiag)


def eigen_count_below(block: Block, x: float,
                      stop: Optional[int] = None) -> int:
    """Eigenvalues strictly below x by the LDL^T inertia count of a block.

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
    pivmin = block.pivmin
    neg = -pivmin
    if stop is None:
        stop = block.n
    count = 0
    d = 1.0
    rows = zip(block.diag, block.b2)
    for a, b2 in islice(rows, bisect_right(block.slack_min, x)):
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


def _descend(lo: float, hi: float, tol: float,
             below: Callable[[float], bool]) -> tuple[float, float]:
    """The leaf one level's bisection from (lo, hi) ends in, halving until
    hi - lo <= tol or no float lies between; below(mid): the level is < mid."""
    for _ in range(300):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if below(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _bisect(block: Block, m: int, tol: float,
            hints: Iterable[float] = ()) -> list[tuple[float, float]]:
    """Brackets (lo, hi) of the block's lowest m levels.

    Level k is bisected from (lo of level k - 1, top of the block's span)
    until hi - lo <= tol.  below[j] is the largest x seen with at most j
    eigenvalues below it, above[j] the smallest x seen with more; a
    midpoint these decide costs no sweep.  A sweep stops once its count
    settles level k, except above every point known to have fewer than m
    eigenvalues below it: there it runs until it puts every level below x,
    which spares the later levels their descent.

    Each hint inside the span is counted first.  Its count only adds true
    facts to below and above, and the count is monotone in x, so every
    midpoint and bracket is that of a run without hints.
    """
    glo, ghi = block.span
    below = [-math.inf] * m
    above = [math.inf] * m
    for x in hints:
        if glo < x < ghi:   # also drops NaN
            c = eigen_count_below(block, x, m)  # exact if below m
            for j in range(c):
                above[j] = min(above[j], x)
            for j in range(c, m):
                below[j] = max(below[j], x)

    def lies_below(mid: float) -> bool:  # level k < mid
        if mid <= below[k]:
            return False
        if mid >= above[k]:
            return True
        stop = m if mid > below[-1] else k + 1
        c = eigen_count_below(block, mid, stop)
        for j in range(k, c):  # mid < above[k] <= above[j]
            above[j] = mid
        if c < stop:  # an exact count, not a lower bound
            for j in range(max(c, k), m):
                below[j] = max(below[j], mid)
        return c > k

    brackets, lo = [], glo
    for k in range(m):
        lo, hi = _descend(lo, ghi, tol, lies_below)
        brackets.append((lo, hi))
    return brackets


def bisection_leaves(op: TridiagOp, guesses: Sequence[float], tol: float
                     ) -> list[tuple[float, float, float]]:
    """(lo, hi, near) for each level j < len(guesses): the leaf of
    `_bisect`'s descent that holds guesses[j], chained from the leaf of the
    level before in block j % 2, and the far node of the next leaf on the
    guess's nearer side.  Counted first as hints, the three settle every
    midpoint of a level that lies in either leaf."""
    starts = [b.span[0] for b in op.parity_blocks]
    out = []
    for j, g in enumerate(guesses):
        start, top = starts[j % 2], op.parity_blocks[j % 2].span[1]
        lo, hi = _descend(start, top, tol, lambda mid: g < mid)
        x = math.nextafter(lo, -math.inf) if g - lo <= hi - g else hi
        a, b = _descend(start, top, tol, lambda mid: x < mid)
        starts[j % 2] = lo
        out.append((lo, hi, a if x < lo else b))
    return out


def _level_brackets(op: TridiagOp, m: int, tol: float,
                    hints: Sequence[Iterable[float]] = ()
                    ) -> list[tuple[float, float]]:
    """Brackets of the operator's lowest m levels: level j is level j // 2
    of parity block j % 2, and so are its hints."""
    blocks = op.parity_blocks
    levels = [_bisect(blocks[p], len(range(p, m, 2)), tol,
                      chain.from_iterable(hints[p:m:2])) for p in (0, 1)]
    return [levels[j % 2][j // 2] for j in range(m)]


def lowest_eigenvalues(op: TridiagOp, m: int, tol: float,
                       hints: Sequence[Iterable[float]] = ()
                       ) -> tuple[float, ...]:
    """The lowest m levels, the midpoints of brackets bisected to width
    tol; UnresolvedLevels(j) where the brackets of levels j and j + 1
    overlap or their midpoints do not increase.  hints[j], for j < m, are
    points near level j, such as its value on a coarser grid; they can
    only save sweeps, never change a result (see `_bisect`)."""
    if not 1 <= m <= op.n:
        raise ValueError(f"m must lie in 1..{op.n}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    brackets = _level_brackets(op, m, tol, hints)
    levels = tuple(0.5 * (lo + hi) for lo, hi in brackets)
    for j, ((_, hi), (lo, _)) in enumerate(pairwise(brackets)):
        if hi > lo or not levels[j] < levels[j + 1]:
            raise UnresolvedLevels(j)
    return levels


def truncation_errors(lt: float, grid: Grid, op: TridiagOp,
                      fine: tuple[float, ...], width: float) -> list[float]:
    """est_T for each level n of op, fine[n] its value: the shift D of the
    level when the wall moves in from T to T/4 at the same h, over 4^g - 1.
    Near a wall at tau the error falls as tau^(-g(tau)) with g(tau) = 2
    tau^2 / (1 + lt tau^2) - 2n - 1, the log-slope of the weight (1 + lt
    tau^2)^(-1/lt) tau^(2n + 1) of a state with tail tau^(n - 1/lt), which
    rises with tau to g = 2/lt - 2n - 1 > 1 for every strictly bound n
    (e^(-tau^2) tau^(2n + 1) at lt = 0).  Taken at T/4 it is the least g
    between the walls, so D / (4^g - 1) bounds the error at T; it is the
    tail's own g wherever lt tau^2 >> 1 at T/4, as on the default grid.
    Where g < 1/2 there is no tail yet, and D is taken raw.

    The wall at T/4 cuts the leading rows out of each parity block, those
    below x = asinh(T / 4): the same stencil, whose last row only gains
    slack, so the block's slack cut holds for it.  By Cauchy interlacing
    the cut block's level k = n // 2 lies at or above the block's, so a
    count at fine[n] + width that finds k + 1 levels bounds D by the width;
    only where it does not is the cut block bisected."""
    tau2 = (0.25 * grid.T) ** 2  # tau^2 at the wall T/4
    drop = round(0.5 * (grid.N + 1) * (1.0 - math.asinh(0.25 * grid.T)
                                       / math.asinh(grid.T)))
    cut = [Block(b.diag[:b.n - drop], b.b2[:b.n - drop], b.pivmin,
                 b.slack_min[:b.n - drop], b.span)
           for b in op.parity_blocks]
    out = []
    for n, e in enumerate(fine):
        block, k = cut[n % 2], n // 2
        shift = width
        if eigen_count_below(block, e + width, k + 1) <= k:
            lo, hi = _bisect(block, k + 1, width, fine[n % 2:n + 1:2])[k]
            shift = 0.5 * (lo + hi) - e
        # D / (4^g - 1) = D q / (1 - q) with q = 4^-g, which cannot overflow
        q = 0.25 ** max(0.5, 2.0 * tau2 / (1.0 + lt * tau2) - 2 * n - 1)
        out.append(shift * q / (1.0 - q))
    return out
