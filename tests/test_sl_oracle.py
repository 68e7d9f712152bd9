"""Finite-difference oracle: stencil, inertia counts, refinement, census."""
import math
from itertools import accumulate

import pytest
from fractions import Fraction as F
from hypothesis import given, settings, strategies as st

from aimosc import sl_oracle
from aimosc.fh_oscillator import ModelParams
from aimosc.sl_oracle import (
    Grid,
    NonmonotoneConvergence,
    OracleResult,
    TridiagOp,
    converge_study,
    discretize,
    eigen_count_below,
    lowest_eigenvalues,
    suggest_domain,
    threshold_census,
)

HARMONIC = ModelParams(omega=1, lam=0)
DECAY = ModelParams(omega=1, lam=F(1, 10))


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(T=1.0, N=3)
        assert g.h == 0.5
        assert [g.node(i) for i in range(5)] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(T=0.0, N=10)
        with pytest.raises(ValueError):
            Grid(T=1.0, N=2)
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Grid(T=t, N=10)

    def test_operator_shape_guard(self):
        g = Grid(T=1.0, N=3)
        with pytest.raises(ValueError):
            TridiagOp(diag=[1.0, 2.0, 3.0], offdiag=[0.1], grid=g,
                      params=HARMONIC)

    def test_result_ordering_guard(self):
        g = Grid(T=1.0, N=3)
        with pytest.raises(ValueError):
            OracleResult(eigenvalues=(1.0, 1.0), grid=g, est_error=(0.0, 0.0))


class TestDiscretize:
    def test_flat_mass_stencil_values(self):
        # p = 1: diagonal 1/h^2 + t^2/2, off-diagonal -1/(2 h^2)
        op = discretize(HARMONIC, Grid(T=1.0, N=3))
        assert op.diag == [4.125, 4.0, 4.125]
        assert op.offdiag == [-2.0, -2.0]

    def test_decaying_mass_softens_potential(self):
        op_flat = discretize(HARMONIC, Grid(T=5.0, N=99))
        op_soft = discretize(DECAY, Grid(T=5.0, N=99))
        # V = t^2 / (2(1 + lam t^2)) < t^2/2 away from the center
        for i in (0, 10, 30):
            t = op_flat.grid.node(i + 1)
            assert op_soft.diag[i] - op_flat.diag[i] > 0  # p grows
            v_soft = t * t / (2 * (1 + 0.1 * t * t))
            assert v_soft < t * t / 2

    def test_matches_per_node_formulas(self):
        # the list passes evaluate the same float expressions as a per-node
        # loop, so the operator and its Gershgorin bounds are bit-identical
        lam, w2 = 0.2, 4.0
        op = discretize(ModelParams(omega=2, lam=F(1, 5)), Grid(T=7.0, N=301))
        g, h = op.grid, op.grid.h
        inv2h2 = 1.0 / (2.0 * h * h)
        p_half = [1.0 + lam * t * t
                  for t in (-g.T + (i + 0.5) * h for i in range(g.N + 1))]
        assert op.diag == [
            (p_half[i] + p_half[i + 1]) * inv2h2
            + w2 * g.node(i + 1) * g.node(i + 1)
            / (2.0 * (1.0 + lam * g.node(i + 1) * g.node(i + 1)))
            for i in range(g.N)]
        assert op.offdiag == [-p_half[i + 1] * inv2h2 for i in range(g.N - 1)]
        lo, hi = math.inf, -math.inf
        for i, d in enumerate(op.diag):
            r = (abs(op.offdiag[i - 1]) if i > 0 else 0.0) \
                + (abs(op.offdiag[i]) if i < g.N - 1 else 0.0)
            lo, hi = min(lo, d - r), max(hi, d + r)
        assert op.gershgorin() == (lo, hi)

    def test_mirror_symmetry(self):
        op = discretize(DECAY, Grid(T=3.0, N=51))
        n = op.n
        for i in range(n):
            assert op.diag[i] == pytest.approx(op.diag[n - 1 - i], abs=1e-12)
        for i in range(n - 1):
            assert op.offdiag[i] == pytest.approx(op.offdiag[n - 2 - i],
                                                  abs=1e-12)


class TestInertiaCounts:
    def setup_method(self):
        self.op = discretize(HARMONIC, Grid(T=10.0, N=2000))

    def test_gershgorin_brackets_spectrum(self):
        lo, hi = self.op.gershgorin()
        assert eigen_count_below(self.op, lo) == 0
        assert eigen_count_below(self.op, hi + 1.0) == self.op.n

    def test_counts_match_known_levels(self):
        # levels near 1/2, 3/2, 5/2, ...
        assert eigen_count_below(self.op, 0.4) == 0
        assert eigen_count_below(self.op, 1.0) == 1
        assert eigen_count_below(self.op, 2.0) == 2
        assert eigen_count_below(self.op, 3.0) == 3

    def test_counts_monotone_in_cut(self):
        cuts = [0.1 * k for k in range(60)]
        counts = [eigen_count_below(self.op, x) for x in cuts]
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


def _plain_count(op, x):
    """The uncut count of a whole operator."""
    b2 = [b * b for b in op.offdiag]
    return _uncut_count(op.diag, [0.0] + b2,
                        max(b2, default=1.0) * 1e-30 + 1e-300, x)


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


def random_ops(max_n=40):
    """Tridiagonal operators with arbitrary entries, zero couplings and
    pivots that hit zero exactly at integer shifts included."""
    entries = st.one_of(st.integers(-50, 50).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False))
    return st.integers(3, max_n).flatmap(lambda n: st.builds(
        lambda d, o: TridiagOp(diag=d, offdiag=o, grid=Grid(T=1.0, N=n),
                               params=HARMONIC),
        st.lists(entries, min_size=n, max_size=n),
        st.lists(entries, min_size=n - 1, max_size=n - 1)))


@st.composite
def persymmetric_ops(draw, max_half=16):
    """Mirror-symmetric operators with nonzero couplings of either sign,
    odd and even N.

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
    return TridiagOp(diag=diag, offdiag=offdiag, grid=Grid(T=1.0, N=n),
                     params=HARMONIC)


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
        op = discretize(params, Grid(T=suggest_domain(params, m), N=n))
        calls = []
        count = sl_oracle.eigen_count_below
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sl_oracle, "eigen_count_below",
                       lambda *a: calls.append(a) or count(*a))
            res = lowest_eigenvalues(op, m, tol)
        for p, block in enumerate(op.parity_blocks):
            levels = len(range(p, m, 2))
            values, errors, sweeps = _per_level_bisection(
                lambda x: _block_count(block, x), *block.span, levels, tol)
            assert res.eigenvalues[p::2] == values
            assert res.est_error[p::2] == errors
            own = sum(1 for a in calls if a[0] is block)
            assert own < sweeps if levels >= 2 else own <= sweeps

    @given(random_ops(), st.lists(st.one_of(st.integers(-60, 60).map(float),
                                            st.floats(-3e3, 3e3)),
                                  min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_count_monotone_and_stop_caps_it(self, op, xs):
        xs.sort()
        counts = [eigen_count_below(op, x) for x in xs]
        assert counts == sorted(counts)
        assert counts == [_plain_count(op, x) for x in xs]
        for x, full in zip(xs, counts):
            for stop in range(1, op.n + 2):
                assert eigen_count_below(op, x, stop) == min(full, stop)


class TestParityFold:
    @given(persymmetric_ops(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_tail_exit_count_is_the_uncut_count(self, op, data):
        # exactly: also a few ulps from a level, where the decisive pivot
        # lies far out in the tail, and from a row's slack, where the cut
        # row moves
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
    def test_blocks_hold_the_levels_of_the_whole_operator(self, op, tol):
        # level j of the operator, bisected on the whole matrix, is level
        # j // 2 of block j % 2 within the two bisection widths and the
        # rounding of the folded entries (a_M +- b, 2 b_M^2) and of the
        # counts: a few thousand ulps of the operator's norm at most
        brackets = sl_oracle._level_brackets(op, 0, op.n, tol)
        glo, ghi = op.gershgorin()
        want, _, _ = _per_level_bisection(lambda x: _plain_count(op, x),
                                          glo, ghi, op.n, tol)
        slack = tol + 2.0 ** -40 * max(abs(glo), abs(ghi))
        for (lo, hi), value in zip(brackets, want):
            assert hi - lo <= tol
            assert abs(0.5 * (lo + hi) - value) <= slack


class TestLowestEigenvalues:
    def test_flat_mass_levels(self):
        op = discretize(HARMONIC, Grid(T=10.0, N=4000))
        res = lowest_eigenvalues(op, 3, 1e-9)
        for v, want in zip(res.eigenvalues, (0.5, 1.5, 2.5)):
            assert abs(v - want) < 1e-4
        assert all(e < 1e-8 for e in res.est_error)

    def test_decaying_mass_levels(self):
        # closed form: E_n = -n(n+1)/20 + (2n+1)/2
        op = discretize(DECAY, Grid(T=15.0, N=6000))
        res = lowest_eigenvalues(op, 3, 1e-9)
        for v, want in zip(res.eigenvalues, (0.5, 1.4, 2.2)):
            assert abs(v - want) < 1e-4

    def test_physical_units(self):
        op = discretize(ModelParams(omega=10, lam=1), Grid(T=10.0, N=6000))
        res = lowest_eigenvalues(op, 2, 1e-9)
        assert abs(res.eigenvalues[0] - 5.0) < 1e-2
        assert abs(res.eigenvalues[1] - 14.0) < 1e-2

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
        e_tight = lowest_eigenvalues(tight, 1, 1e-9).eigenvalues[0]
        e_wide = lowest_eigenvalues(wide, 1, 1e-9).eigenvalues[0]
        assert e_tight > 0.5005
        assert abs(e_wide - 0.5) < 1e-3
        assert e_tight > e_wide


class TestConvergeStudy:
    GRIDS = (Grid(T=15.0, N=1874), Grid(T=15.0, N=3749), Grid(T=15.0, N=7499))

    def test_second_order_and_extrapolation(self):
        rep = converge_study(DECAY, 2, self.GRIDS)
        for order in rep.observed_orders:
            assert 1.8 < order < 2.2
        for got, want in zip(rep.extrapolated, (0.5, 1.4)):
            assert abs(got - want) < 1e-8
        assert len(rep.levels) == 3

    def test_noise_floor_detected(self):
        with pytest.raises(NonmonotoneConvergence):
            converge_study(DECAY, 1, self.GRIDS, bisect_tol=1e-3)

    def test_requires_halving(self):
        bad = (Grid(T=15.0, N=1874), Grid(T=15.0, N=2999),
               Grid(T=15.0, N=7499))
        with pytest.raises(ValueError):
            converge_study(DECAY, 1, bad)

    def test_requires_three_grids(self):
        with pytest.raises(ValueError):
            converge_study(DECAY, 1, self.GRIDS[:2])


class TestThresholdCensus:
    def test_marginal_level_counted_once(self):
        # edge at E_tilde = 1/lt -> E = 20; n = 3 sits exactly on it
        op = discretize(ModelParams(omega=10, lam=F(5, 2)),
                        Grid(T=60.0, N=20000))
        cen = threshold_census(op, 20.0)
        assert cen.strict_below == 3
        assert cen.census == 4
        assert 0 < cen.edge_shift < 0.25 * cen.edge_gap

    def test_far_threshold_adds_nothing(self):
        op = discretize(HARMONIC, Grid(T=10.0, N=2000))
        cen = threshold_census(op, 1.0)
        assert cen.strict_below == 1
        assert cen.census == 1
        assert cen.edge_shift > 0.25 * cen.edge_gap

    def test_small_grid_guard(self):
        op = discretize(HARMONIC, Grid(T=2.0, N=4))
        with pytest.raises(ValueError):
            threshold_census(op, 1e9)


class TestSuggestDomain:
    def test_gaussian_profile_window(self):
        T = suggest_domain(HARMONIC, 0)
        assert 5.0 < T < 9.0

    def test_scales_with_frequency(self):
        fast = suggest_domain(ModelParams(omega=100, lam=0), 0)
        slow = suggest_domain(HARMONIC, 0)
        assert fast == pytest.approx(slow / 10.0)

    def test_near_marginal_state_hits_cap(self):
        T = suggest_domain(ModelParams(omega=10, lam=F(5, 2)), 3)
        assert T == pytest.approx(500.0 / math.sqrt(10.0))

    def test_ordinary_decay_stays_finite(self):
        T = suggest_domain(ModelParams(omega=10, lam=1), 2)
        assert 5.0 < T < 30.0
