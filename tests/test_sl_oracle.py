"""Finite-difference oracle: stencil, inertia counts, bisection, refinement."""
import hashlib
import math
from collections import Counter
from bisect import bisect_right
from itertools import accumulate, pairwise

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from aimosc import sl_oracle
from aimosc.fh_oscillator import ModelParams
from aimosc.sl_oracle import (
    Grid,
    TridiagOp,
    UnresolvedLevels,
    default_half_width,
    discretize,
    eigen_count_below,
    lowest_eigenvalues,
    mapped_points,
    nested_points,
)

HARMONIC = ModelParams(omega=1, lam=0)
DECAY = ModelParams(omega=1, lam=F(1, 10))


class TestGrid:
    def test_spacing_and_nodes(self):
        # N + 1 steps of h span x in [-asinh(T/s), asinh(T/s)]; the default
        # T reaches x = 16 at every scale s = omega^(-1/2)
        g = Grid(T=math.sinh(1.0), N=3)
        assert g.step(1.0) == pytest.approx(0.5, rel=1e-15)
        assert Grid(T=2.0 * math.sinh(1.0), N=3).step(2.0) == \
            pytest.approx(0.5, rel=1e-15)
        for omega in (F(1, 4), 1, 100, 10 ** 7):
            params = ModelParams(omega=omega, lam=0)
            s = float(omega) ** -0.5
            assert default_half_width(params) == pytest.approx(
                s * math.sinh(16.0), rel=1e-15)
            assert Grid(T=default_half_width(params), N=7999).step(s) == \
                pytest.approx(32.0 / 8000, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(T=0.0, N=10)
        with pytest.raises(ValueError):
            Grid(T=1.0, N=2)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Grid(T=t, N=10)

    def test_operator_shape_guard(self):
        # the right half holds N - N//2 rows and N//2 couplings
        for diag, offdiag in (([1.0, 2.0, 3.0], [0.1]), ([1.0], [0.1, 0.2]),
                              ([1.0], [])):
            with pytest.raises(ValueError):
                TridiagOp(diag=diag, offdiag=offdiag)
        assert TridiagOp(diag=[1.0, 2.0], offdiag=[0.1]).n == 3
        assert TridiagOp(diag=[1.0, 2.0], offdiag=[0.1, 0.2]).n == 4

    def test_result_ordering_guard(self):
        # lowest_eigenvalues names level j where its bracket overlaps that
        # of level j + 1, or their midpoints do not increase
        op = discretize(HARMONIC, Grid(T=2.0, N=10))
        for brackets, index in (
                # midpoints 0.5, 2, 2, 3.5: disjoint brackets, not increasing
                ([(0.0, 1.0), (2.0, 2.0), (2.0, 2.0), (3.0, 4.0)], 1),
                # the brackets of levels 2 and 3 overlap
                ([(0.0, 1.0), (1.0, 2.0), (2.0, 3.5), (3.0, 4.0)], 2)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sl_oracle, "_level_brackets", lambda *a: brackets)
                with pytest.raises(UnresolvedLevels,
                                   match=f"eigenvalues {index} and "
                                         f"{index + 1} are not resolved"
                                   ) as info:
                    lowest_eigenvalues(op, 4, 1e-9)
            assert info.value.index == index


def _stencil(params, g):
    """The whole grid operator by per-node formulas: diagonal and couplings
    of rows 0 .. N-1, row i at node i + 1, x_i = -X + i h and
    t = s sinh(x), with weight g = s cosh(x)."""
    lam, w2 = float(params.lam), float(params.omega) ** 2
    s = float(params.omega) ** -0.5
    X = math.asinh(g.T / s)
    h = 2.0 * X / (g.N + 1)

    def t_and_g(x):
        return s * math.sinh(x), s * math.cosh(x)

    q = [(1.0 + lam * t * t) / w
         for t, w in (t_and_g(-X + (i + 0.5) * h) for i in range(g.N + 1))]
    nodes = [t_and_g(-X + (i + 1) * h) for i in range(g.N)]
    diag = [(q[i] + q[i + 1]) / (2.0 * h * h) / w
            + w2 * t * t / (2.0 * (1.0 + lam * t * t))
            for i, (t, w) in enumerate(nodes)]
    offdiag = [-q[i + 1] / (2.0 * h * h)
               / math.sqrt(nodes[i][1] * nodes[i + 1][1])
               for i in range(g.N - 1)]
    return diag, offdiag


class TestDiscretize:
    def test_flat_mass_stencil_values(self):
        # p = 1, omega = 1: the centre row of N = 3 sits at x = t = 0 with
        # g = 1, between half-nodes at x = +-h/2 where p/g = 1/cosh(h/2);
        # its coupling to the next row, at x = h, divides by sqrt(cosh h)
        g = Grid(T=10.0, N=3)
        h = g.step(1.0)
        op = discretize(HARMONIC, g)
        assert op.n == 3
        assert op.diag[0] == pytest.approx(1.0 / (h * h * math.cosh(h / 2)),
                                           rel=1e-14)
        assert op.offdiag == [pytest.approx(
            -1.0 / (2 * h * h * math.cosh(h / 2) * math.sqrt(math.cosh(h))),
            rel=1e-14)]
        t = math.sinh(h)
        assert op.diag[1] == pytest.approx(
            (1.0 / math.cosh(h / 2) + 1.0 / math.cosh(1.5 * h))
            / (2 * h * h * math.cosh(h)) + t * t / 2, rel=1e-14)

    def test_decaying_mass_softens_potential(self):
        g = Grid(T=5.0, N=99)
        op_flat = discretize(HARMONIC, g)
        op_soft = discretize(DECAY, g)
        h = g.step(1.0)
        # V = t^2 / (2(1 + lam t^2)) < t^2/2 away from the center, but
        # p = 1 + lam t^2 > 1 raises the kinetic part by more
        for k in (49, 39, 19):  # held row k sits at x = k h for odd N
            t = math.sinh(k * h)
            assert op_soft.diag[k] - op_flat.diag[k] > 0  # p grows
            v_soft = t * t / (2 * (1 + 0.1 * t * t))
            assert v_soft < t * t / 2

    def test_matches_per_node_formulas(self):
        # the held rows and couplings agree with a per-node loop over the
        # whole grid, rows N//2 .. N-1 and couplings (N-1)//2 .. N-2, to
        # the rounding of the node positions
        params = ModelParams(omega=2, lam=F(1, 5))
        for n in (300, 301):
            g = Grid(T=7.0, N=n)
            op = discretize(params, g)
            diag, offdiag = _stencil(params, g)
            assert op.diag == pytest.approx(diag[n // 2:], rel=1e-13)
            assert op.offdiag == pytest.approx(offdiag[(n - 1) // 2:],
                                               rel=1e-13)

    def test_mirror_symmetry(self):
        # the fold rests on the left half mirroring the held right half:
        # the per-node formulas at the mirrored nodes agree with it
        for n in (50, 51):
            g = Grid(T=3.0, N=n)
            op = discretize(DECAY, g)
            diag, offdiag = _stencil(DECAY, g)
            for k, a in enumerate(op.diag):
                mirror = diag[n - 1 - (n // 2 + k)]
                assert mirror == pytest.approx(a, rel=1e-13)
            for k, b in enumerate(op.offdiag):
                mirror = offdiag[n - 2 - ((n - 1) // 2 + k)]
                assert mirror == pytest.approx(b, rel=1e-13)


    def test_entries_pinned(self):
        # every diagonal entry and coupling, bit for bit, as float.hex:
        # the digest is that of the stencil before the builder read its
        # points from lists, on odd and even grids of 3 to 30001 rows
        digest = hashlib.sha256()
        for omega, lt, T in ((1, F(1, 10), None), (10 ** 4, F(1, 3), 50.0)):
            params = ModelParams(omega=omega, lam=lt * omega)
            for n in (3, 4, 300, 3000, 30000, 30001):
                op = discretize(params,
                                Grid(T or default_half_width(params), n))
                digest.update(" ".join(map(float.hex, op.diag + op.offdiag))
                              .encode())
                digest.update(b"\n")
        assert digest.hexdigest() == ("ef6083cf0f6a6c4cae0b1e1ebf005842"
                                      "b65c4968c55efff6992523a6578603a4")

    def test_passed_points_are_the_grid_points(self):
        # discretize builds from the same points whether it maps them
        # itself or is given them
        params = ModelParams(omega=3, lam=F(2, 3))
        for n in (3, 4, 301):
            g = Grid(T=9.0, N=n)
            ts, gs = mapped_points(params, g)
            assert len(ts) == len(gs) == 2 * (n - n // 2) + 1
            given, own = discretize(params, g, (ts, gs)), discretize(params, g)
            assert given.diag == own.diag and given.offdiag == own.offdiag


class TestNestedGrid:
    @pytest.mark.parametrize("n", [7, 9, 13, 4001, 7999])
    def test_coarse_operator_from_fine_points(self, n):
        # for odd N, H = 2h exactly and the points of grid N // 2 are the
        # fine points with even j (and one mirror): the operator built from
        # them equals the one built on its own, entry for entry
        for omega, lt in ((F(1), F(1, 3)), (F(10 ** 4), F(1, 10)),
                          (F(1), F(0))):
            params = ModelParams(omega=omega, lam=lt * omega)
            for T in (default_half_width(params), 40.0):
                fine = Grid(T=T, N=n)
                coarse = Grid(T=T, N=n // 2)
                s = float(omega) ** -0.5
                assert coarse.step(s) == 2.0 * fine.step(s)
                nested = discretize(params, coarse, nested_points(
                    mapped_points(params, fine)))
                alone = discretize(params, coarse)
                assert nested.diag == alone.diag
                assert nested.offdiag == alone.offdiag


class TestInertiaCounts:
    def setup_method(self):
        self.op = discretize(HARMONIC, Grid(T=10.0, N=2000))

    def count(self, x):
        return sum(eigen_count_below(block, x)
                   for block in self.op.parity_blocks)

    def test_gershgorin_brackets_spectrum(self):
        for block in self.op.parity_blocks:
            lo, hi = block.span
            assert eigen_count_below(block, lo) == 0
            assert eigen_count_below(block, hi) == block.n
        assert sum(b.n for b in self.op.parity_blocks) == self.op.n

    def test_counts_match_known_levels(self):
        # levels near 1/2, 3/2, 5/2, ...
        assert self.count(0.4) == 0
        assert self.count(1.0) == 1
        assert self.count(2.0) == 2
        assert self.count(3.0) == 3

    def test_counts_monotone_in_cut(self):
        cuts = [0.1 * k for k in range(60)]
        counts = [self.count(x) for x in cuts]
        assert counts == sorted(counts)


def _uncut_count(diag, b2, pivmin, x):
    """The LDL^T inertia count as a plain indexed loop over every row;
    b2[i] is the squared coupling of row i to row i - 1."""
    count = 0
    d = 1.0
    for i, a in enumerate(diag):
        d = a - x - (b2[i] / d if i else 0.0)
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def _plain_count(diag, offdiag, x):
    """The uncut count of a whole matrix."""
    b2 = [b * b for b in offdiag]
    return _uncut_count(diag, [0.0] + b2,
                        max(b2, default=1.0) * 1e-30 + 1e-300, x)


def _gershgorin(diag, offdiag):
    """The Gershgorin interval of a whole matrix."""
    radii = [abs(u) + abs(v) for u, v in pairwise([0.0] + offdiag + [0.0])]
    return (min(d - r for d, r in zip(diag, radii)),
            max(d + r for d, r in zip(diag, radii)))


def _block_count(block, x):
    """The uncut count of a block."""
    return _uncut_count(block.diag, block.b2, block.pivmin, x)


def _per_level_bisection(count, lo, top, m, tol):
    """Each level bisected on its own from (lo of the level below, top),
    one full count per midpoint."""
    values, errors, sweeps = [], [], 0
    for k in range(m):
        hi = top
        for _ in range(300):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            sweeps += 1
            if count(mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
        errors.append(0.5 * (hi - lo))
    return tuple(values), tuple(errors), sweeps


def random_matrices(max_n=40):
    """Tridiagonal matrices (diagonal, couplings) with arbitrary entries,
    zero couplings and pivots that hit zero exactly at integer shifts
    included."""
    entries = st.one_of(st.integers(-50, 50).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False))
    return st.integers(3, max_n).flatmap(lambda n: st.tuples(
        st.lists(entries, min_size=n, max_size=n),
        st.lists(entries, min_size=n - 1, max_size=n - 1)))


@st.composite
def persymmetric_ops(draw, max_half=16):
    """Mirror-symmetric operators with nonzero couplings of either sign,
    odd and even N: the held right half, and the whole matrix (diagonal,
    couplings) it mirrors.

    The right half, from the centre out, is either arbitrary or a well:
    each diagonal entry is its two |couplings| plus a potential that never
    falls outward, so the outer rows are forbidden tails the sweep can cut
    off."""
    n = draw(st.integers(3, 2 * max_half + 1))
    rows = n - n // 2  # the right half, centre row included for odd n
    size = st.one_of(st.integers(1, 8).map(float), st.floats(1 / 8, 8))
    coupling = st.tuples(size, st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])
    # right_b[k] couples right-half row k to the row before it (for odd n,
    # right_b[0] is unused: the centre row is its own mirror)
    right_b = draw(st.lists(coupling, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        steps = draw(st.lists(st.one_of(st.integers(0, 6).map(float),
                                        st.floats(0, 6)),
                              min_size=rows, max_size=rows))
        outer = right_b[1:] + [0.0]
        right_a = [abs(u) + abs(v) + w for u, v, w in
                   zip(right_b, outer, accumulate(steps))]
    else:
        right_a = draw(st.lists(st.one_of(st.integers(-30, 30).map(float),
                                          st.floats(-30, 30)),
                                min_size=rows, max_size=rows))
    if n % 2:
        diag = right_a[:0:-1] + right_a
        offdiag = right_b[:0:-1] + right_b[1:]
    else:
        diag = right_a[::-1] + right_a
        offdiag = right_b[:0:-1] + right_b
    return TridiagOp(diag=right_a, offdiag=right_b[n % 2:]), diag, offdiag


def _level_boundary(block, j):
    """The largest float with at most j of the block's eigenvalues below
    it, by bisection on the uncut count."""
    lo, hi = block.span
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if _block_count(block, mid) > j:
            hi = mid
        else:
            lo = mid


def _ulps_around(x, k=3):
    """x and the k floats on either side of it."""
    out = [x]
    up = down = x
    for _ in range(k):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out += [up, down]
    return out


class TestSharedBrackets:
    @given(st.fractions(min_value=0, max_value=1, max_denominator=40)
           .filter(lambda lt: lt < 1),
           st.fractions(min_value=F(1, 4), max_value=20, max_denominator=8),
           st.integers(50, 400), st.integers(1, 6),
           st.sampled_from((1e-6, 1e-9, 1e-12)))
    @settings(max_examples=40, deadline=None)
    def test_same_brackets_as_per_level_bisection(self, lt, omega, n, m,
                                                  tol):
        # level j is level j // 2 of parity block j % 2; each block's
        # shared brackets equal a separate bisection per level of that
        # block, and save sweeps wherever the block holds two levels or more
        params = ModelParams(omega=omega, lam=lt * omega)
        op = discretize(params, Grid(T=default_half_width(params), N=n))
        calls = []
        count = sl_oracle.eigen_count_below
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl_oracle, "eigen_count_below",
                       lambda *a: calls.append(a) or count(*a))
            res = lowest_eigenvalues(op, m, tol)
        halves = [0.5 * (hi - lo)
                  for lo, hi in sl_oracle._level_brackets(op, m, tol)]
        for p, block in enumerate(op.parity_blocks):
            levels = len(range(p, m, 2))
            values, errors, sweeps = _per_level_bisection(
                lambda x: _block_count(block, x), *block.span, levels, tol)
            assert res[p::2] == values
            assert tuple(halves[p::2]) == errors
            own = sum(1 for a in calls if a[0] is block)
            assert own < sweeps if levels >= 2 else own <= sweeps

    @given(random_matrices(),
           st.lists(st.one_of(st.integers(-60, 60).map(float),
                              st.floats(-3e3, 3e3)),
                    min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_count_monotone_and_stop_caps_it(self, matrix, xs):
        # a whole matrix swept as one block
        diag, offdiag = matrix
        block, = sl_oracle._blocks([(diag, [0.0] + [b * b for b in offdiag])],
                                   [], [])
        xs.sort()
        counts = [eigen_count_below(block, x) for x in xs]
        assert counts == sorted(counts)
        assert counts == [_plain_count(diag, offdiag, x) for x in xs]
        for x, full in zip(xs, counts):
            for stop in range(1, block.n + 2):
                assert eigen_count_below(block, x, stop) == min(full, stop)


@st.composite
def _hint_lists(draw, levels, span, m):
    """Hints for m levels: arbitrary floats, NaN and infinities, points
    outside the span, duplicates, and points near the levels."""
    lo, hi = span
    near = st.sampled_from(levels).flatmap(lambda e: st.sampled_from(
        (1e-9, 1e-6, 1e-3, 0.1, 1.0)).flatmap(lambda w: st.sampled_from(
            (e - w, e + w, e))))
    point = st.one_of(near, near, st.floats(),
                      st.sampled_from((lo, hi, lo - 1.0, hi + 1.0,
                                       math.inf, -math.inf, math.nan)))
    hints = draw(st.lists(st.lists(point, max_size=4), max_size=m + 1))
    if hints and draw(st.booleans()):
        hints.append(list(hints[0]))   # the same points again
    return hints


class TestHints:
    @given(st.fractions(min_value=0, max_value=1, max_denominator=12)
           .filter(lambda lt: lt < 1),
           st.integers(7, 120), st.integers(1, 6),
           st.sampled_from((1e-6, 1e-9, 1e-12)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hints_never_change_a_bracket(self, lt, n, m, tol, data):
        # the same brackets, levels or UnresolvedLevels as without hints,
        # whatever the hints; and the hints' facts do not depend on the
        # order they came in, so neither do the sweeps after them
        params = ModelParams(omega=1, lam=lt)
        op = discretize(params, Grid(T=default_half_width(params), N=n))
        m = min(m, n)
        plain = sl_oracle._level_brackets(op, m, tol)
        levels = [0.5 * (lo + hi) for lo, hi in plain]
        lo = min(b.span[0] for b in op.parity_blocks)
        hi = max(b.span[1] for b in op.parity_blocks)
        hints = data.draw(_hint_lists(levels, (lo, hi), m))

        def sweeps(hint_lists):
            calls = []
            count = sl_oracle.eigen_count_below
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sl_oracle, "eigen_count_below",
                           lambda *a: calls.append(a) or count(*a))
                brackets = sl_oracle._level_brackets(op, m, tol, hint_lists)
            assert brackets == plain
            return Counter((id(a[0]),) + a[1:] for a in calls)

        # the same points per block, in reverse order: level j's hints go
        # to the level of its block at the mirrored place, each reversed
        reordered = list(hints)
        for p in (0, 1):
            own = range(p, min(m, len(hints)), 2)
            for i, j in zip(own, reversed(own)):
                reordered[i] = hints[j][::-1]
        assert sweeps(hints) == sweeps(reordered)
        try:
            want = lowest_eigenvalues(op, m, tol)
        except sl_oracle.UnresolvedLevels as exc:
            with pytest.raises(sl_oracle.UnresolvedLevels) as got:
                lowest_eigenvalues(op, m, tol, hints)
            assert got.value.index == exc.index
        else:
            assert lowest_eigenvalues(op, m, tol, hints) == want


class TestParityFold:
    @given(persymmetric_ops(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_tail_exit_count_is_the_uncut_count(self, sym, data):
        # exactly: also a few ulps from a level, where the decisive pivot
        # lies far out in the tail, and from a row's slack, where the cut
        # row moves
        op, _, _ = sym
        for block in op.parity_blocks:
            j = data.draw(st.integers(0, block.n - 1))
            r = data.draw(st.integers(0, block.n - 1))
            xs = (_ulps_around(_level_boundary(block, j))
                  + _ulps_around(block.slack_min[r])
                  + data.draw(st.lists(st.floats(-100, 100), max_size=5)))
            for x in xs:
                full = _block_count(block, x)
                assert eigen_count_below(block, x) == full
                stop = data.draw(st.integers(1, block.n))
                assert eigen_count_below(block, x, stop) == min(full, stop)

    @given(persymmetric_ops(), st.sampled_from((1e-6, 1e-9, 1e-12)))
    @settings(max_examples=80, deadline=None)
    def test_blocks_hold_the_levels_of_the_whole_operator(self, sym, tol):
        # level j of the operator, bisected on the whole matrix, is level
        # j // 2 of block j % 2 within the two bisection widths and the
        # rounding of the folded entries (a_M +- b, 2 b_M^2) and of the
        # counts: a few thousand ulps of the operator's norm at most
        op, diag, offdiag = sym
        assert op.n == len(diag)
        brackets = sl_oracle._level_brackets(op, op.n, tol)
        glo, ghi = _gershgorin(diag, offdiag)
        want, _, _ = _per_level_bisection(
            lambda x: _plain_count(diag, offdiag, x), glo, ghi, op.n, tol)
        slack = tol + 2.0 ** -40 * max(abs(glo), abs(ghi))
        for (lo, hi), value in zip(brackets, want):
            assert hi - lo <= tol
            assert abs(0.5 * (lo + hi) - value) <= slack


class TestLowestEigenvalues:
    def test_flat_mass_levels(self):
        op = discretize(HARMONIC, Grid(T=10.0, N=4000))
        res = lowest_eigenvalues(op, 3, 1e-9)
        for v, want in zip(res, (0.5, 1.5, 2.5)):
            assert abs(v - want) < 1e-4

    def test_decaying_mass_levels(self):
        # closed form: E_n = -n(n+1)/20 + (2n+1)/2
        op = discretize(DECAY, Grid(T=15.0, N=6000))
        res = lowest_eigenvalues(op, 3, 1e-9)
        for v, want in zip(res, (0.5, 1.4, 2.2)):
            assert abs(v - want) < 1e-4

    def test_physical_units(self):
        op = discretize(ModelParams(omega=10, lam=1), Grid(T=10.0, N=6000))
        res = lowest_eigenvalues(op, 2, 1e-9)
        assert abs(res[0] - 5.0) < 1e-2
        assert abs(res[1] - 14.0) < 1e-2

    def test_argument_guards(self):
        op = discretize(HARMONIC, Grid(T=2.0, N=10))
        with pytest.raises(ValueError):
            lowest_eigenvalues(op, 0, 1e-9)
        with pytest.raises(ValueError):
            lowest_eigenvalues(op, 11, 1e-9)
        with pytest.raises(ValueError):
            lowest_eigenvalues(op, 1, 0.0)

    def test_truncation_raises_levels(self):
        tight = discretize(HARMONIC, Grid(T=2.0, N=1000))
        wide = discretize(HARMONIC, Grid(T=8.0, N=1000))
        e_tight = lowest_eigenvalues(tight, 1, 1e-9)[0]
        e_wide = lowest_eigenvalues(wide, 1, 1e-9)[0]
        assert e_tight > 0.5005
        assert abs(e_wide - 0.5) < 1e-3
        assert e_tight > e_wide


class TestStencilOrder:
    def test_second_order_and_extrapolation(self):
        # grid refinement of the stencil over h, h/2, h/4: the differences
        # shrink by about 4 per halving, and Richardson extrapolation at
        # order 2 recovers E_0 = 0.5 and E_1 = 1.4
        grids = (Grid(T=15.0, N=1874), Grid(T=15.0, N=3749),
                 Grid(T=15.0, N=7499))
        levels = [lowest_eigenvalues(discretize(DECAY, g), 2, 1e-12)
                  for g in grids]
        for (a, b, c), want in zip(zip(*levels), (0.5, 1.4)):
            assert 1.8 < math.log2((a - b) / (b - c)) < 2.2
            assert abs(c - (b - c) / 3.0 - want) < 1e-8


def _strictly_bound(n, lt):
    """Level n lies strictly below the edge 1/lt (lt E_n < 1), which for a
    normalizable level is n < 1/lt - 1; every level at lt = 0."""
    return lt == 0 or (n + 1) * lt < 1


class TestMappedGrid:
    @given(st.fractions(min_value=0, max_value=1, max_denominator=12)
           .filter(lambda lt: lt < 1))
    @settings(max_examples=30, deadline=None)
    def test_every_strictly_bound_level_within_its_bar(self, lt):
        # the default grid and the grid of N // 2 rows over the same x
        # range: the fine grid's error |E_h - E_n| is within twice the
        # Richardson estimate |E_h - E_H| / ((H/h)^2 - 1) plus the
        # bisection width, for every strictly bound n (n <= 5 at lt = 0)
        ns = [n for n in range(12 if lt else 6) if _strictly_bound(n, lt)]
        params = ModelParams(omega=1, lam=lt)
        T, width = default_half_width(params), 1e-9
        fine, coarse = (lowest_eigenvalues(discretize(params, Grid(T, N)),
                                           len(ns), width)
                        for N in (7999, 3999))
        for n, e_h, e_H in zip(ns, fine, coarse):
            delta = abs(e_h - float(2 * n + 1 - n * (n + 1) * lt) / 2)
            estimate = abs(e_h - e_H) / 3.0  # (H/h)^2 - 1 with H = 2h
            assert delta <= 2.0 * estimate + width, (n, delta, estimate)
            assert estimate < 1e-3

    @pytest.mark.parametrize("lt", [F(0), F(1, 10), F(1, 3), F(1, 2),
                                    F(5, 6)])
    def test_tail_exit_cut_below_lowest_level(self, lt):
        # on the default grid the weighted rows' slack rises above each
        # block's lowest level before the last row, so the sweep at that
        # level may take the tail exit; for a strictly bound level the cut
        # lies in the first quarter of the block
        for omega in (F(1), F(10 ** 4)):
            params = ModelParams(omega=omega, lam=lt * omega)
            op = discretize(params, Grid(T=default_half_width(params),
                                         N=7999))
            levels = lowest_eigenvalues(op, 2, 1e-9)
            for j, (block, e) in enumerate(zip(op.parity_blocks, levels)):
                cut = bisect_right(block.slack_min, e)
                assert cut < block.n
                if _strictly_bound(j, lt):
                    assert cut < block.n // 4, (omega, j, cut)
