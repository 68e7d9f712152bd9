"""Iteration engine: recurrences, determinants, certified roots, alpha route."""

import math

import pytest
from fractions import Fraction as F
from hypothesis import assume, example, given, settings, strategies as st

from aimosc.aim_core import (
    DegenerateDelta,
    NoStableRoots,
    NotTerminated,
    aim_eigenvalues,
    aim_iterate,
    aim_seed,
    eigenfunction_via_alpha,
    quantization_delta,
    terminates_at,
)
from aimosc.exactalg import (
    horner,
    poly_eval,
    poly_mul,
    poly_new,
    poly_restrict,
)
from aimosc.fh_oscillator import (
    aim_inputs,
    bound_state_info,
    eigen_polynomial,
    residual_check,
    spectrum_closed_dimensionless,
)


def chain(seed, k):
    states = [seed]
    for _ in range(k):
        states.append(aim_iterate(states[-1]))
    return states


def harmonic_seed():
    return aim_seed(*aim_inputs(F(0)))


@st.composite
def lam_tildes(draw):
    """Rational lambda_tilde in [0, 1) with denominator at most 60."""
    q = draw(st.integers(1, 60))
    return F(draw(st.integers(0, q - 1)), q)


def same_ratio(num, den, want_num, want_den):
    """num/den == want_num/want_den as rational functions."""
    return poly_mul(num, want_den) == poly_mul(want_num, den)


@st.composite
def state_pairs(draw):
    """(curr, prev, levels): consecutive states of an oscillator seed, with
    its closed-form levels, or of a generic seed from `poly_new` whose
    coefficients are mostly not integers, with no known levels."""
    if draw(st.booleans()):
        lt = draw(lam_tildes())
        states = chain(aim_seed(*aim_inputs(lt)), draw(st.integers(1, 7)))
        levels = [spectrum_closed_dimensionless(n, lt)
                  for n in range(states[-1].k + 2)]
        return states[-1], states[-2], levels
    coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 6))

    def seed_poly(max_dt, max_de):
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, max_dt), st.integers(0, max_de)),
            coeffs, min_size=1, max_size=4))
        return poly_new(terms)

    l0 = seed_poly(2, 1)
    assume(l0)
    u = poly_new({(0, 0): 1, **seed_poly(2, 0)})
    assume(u)
    states = chain(aim_seed(l0, seed_poly(2, 1), u), draw(st.integers(1, 3)))
    return states[-1], states[-2], []


def delta_value(curr, prev, tau, e):
    """delta_k = l_k*s_(k-1) - l_(k-1)*s_k at one rational point, in
    Fractions; the common denominator u^(2k+1) is left out."""
    return (poly_eval(curr.L, tau, e) * poly_eval(prev.S, tau, e)
            - poly_eval(prev.L, tau, e) * poly_eval(curr.S, tau, e))


def degree_bound(curr, prev, var):
    """A bound on delta_k's degree in tau (var 0) or E (var 1)."""
    deg = [max((key[var] for key in p), default=0)
           for p in (curr.L, curr.S, prev.L, prev.S)]
    return max(deg[0] + deg[3], deg[2] + deg[1])


_COMMON_ROOT = chain(aim_seed(poly_new({(0, 0): 1}),
                              poly_new({(0, 1): 1, (3, 0): 2, (2, 0): -3,
                                        (1, 0): 1}),
                              poly_new({(0, 0): 1})), 1)


def certified(lt, k_max, tau0=0):
    return aim_eigenvalues(aim_seed(*aim_inputs(lt)), k_max=k_max, tau0=tau0)


def closed_levels(lt, k_max):
    return {spectrum_closed_dimensionless(n, lt) for n in range(k_max + 1)}


def bound_top(lt, cap=5):
    """Largest n <= cap whose state is normalizable at lt (-1 if none)."""
    return cap if lt == 0 else min(cap, bound_state_info(lt).normalizable_max_n)


class TestIteration:
    def test_harmonic_first_step(self):
        # l1 = l0' + s0 + l0^2 = 2 + (1-E) + 4 tau^2, s1 = s0 l0
        s1 = aim_iterate(harmonic_seed())
        assert s1.L == poly_new({(0, 0): 3, (0, 1): -1, (2, 0): 4})
        assert s1.S == poly_new({(1, 0): 2, (1, 1): -2})

    def test_first_step_with_decay(self):
        # l_1 = L/u^2 and s_1 = S/u^2 at lt = 1/10, whatever the seed scale
        s1 = aim_iterate(aim_seed(*aim_inputs(F(1, 10))))
        u2 = poly_mul(s1.u_poly, s1.u_poly)
        want_u2 = poly_new({(0, 0): 1, (2, 0): F(1, 5), (4, 0): F(1, 100)})
        assert same_ratio(s1.L, u2, poly_new({(0, 0): F(14, 5), (0, 1): -1,
                                              (2, 0): F(79, 25),
                                              (2, 1): F(-1, 10)}), want_u2)
        assert same_ratio(s1.S, u2, poly_new({(1, 0): F(8, 5),
                                              (1, 1): F(-8, 5)}), want_u2)

    def test_integer_seed_keeps_integer_coefficients(self):
        states = chain(aim_seed(*aim_inputs(F(12345, 1000003))), 6)
        for st_ in states:
            assert all(type(c) is int for c in (*st_.L.values(), *st_.S.values()))

    def test_denominator_exponent_law(self):
        states = chain(aim_seed(*aim_inputs(F(1, 10))), 5)
        for k, st in enumerate(states):
            assert st.k == k

    def test_seed_rejects_zero_l0(self):
        with pytest.raises(ValueError, match="seed coefficient of y' is "
                                             "identically zero"):
            aim_seed(poly_new({}), poly_new({(0, 0): 1}), poly_new({(0, 0): 1}))

    def test_seed_rejects_zero_u(self):
        with pytest.raises(ValueError):
            aim_seed(poly_new({(1, 0): 1}), poly_new({(0, 0): 1}), poly_new({}))

    def test_numerators_may_vanish_mid_chain(self):
        # at lt = 1/4 the chain passes through identically zero numerators
        # without breaking subsequent determinants
        states = chain(aim_seed(*aim_inputs(F(1, 4))), 8)
        assert not states[5].S
        assert not states[6].L
        d8 = quantization_delta(states[8], states[7], 0)
        assert d8.poly


class TestQuantizationDelta:
    def test_k1_factorization(self):
        # delta_1 ~ (1-E)(3-2lt-E) up to rational content
        for lt in (F(0), F(1, 10), F(1, 4)):
            states = chain(aim_seed(*aim_inputs(lt)), 1)
            d1 = quantization_delta(states[1], states[0], 0)
            for e in (F(1), 3 - 2 * lt):
                assert poly_eval(d1.poly, 0, e) == 0
            assert max(j for _, j in d1.poly) == 2

    def test_k2_gains_next_level(self):
        lt = F(1, 10)
        states = chain(aim_seed(*aim_inputs(lt)), 2)
        d2 = quantization_delta(states[2], states[1], 0)
        for e in (F(1), 3 - 2 * lt, 5 - 6 * lt):
            assert poly_eval(d2.poly, 0, e) == 0

    @given(state_pairs(), st.fractions(min_value=-3, max_value=3,
                                       max_denominator=12))
    @example((_COMMON_ROOT[1], _COMMON_ROOT[0], []), F(1))
    @example((_COMMON_ROOT[1], _COMMON_ROOT[0], []), F(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_reference(self, pair, tau0):
        # delta at tau0 is the reference times one nonzero constant: both
        # have degree <= m in E, so m + 1 points settle it
        curr, prev, _ = pair
        points = range(degree_bound(curr, prev, 1) + 1)
        ref = [delta_value(curr, prev, tau0, e) for e in points]
        if not any(ref):
            with pytest.raises(DegenerateDelta):
                quantization_delta(curr, prev, tau0)
            return
        d = quantization_delta(curr, prev, tau0)
        coeffs = [c for _, c in sorted((de, c) for (_, de), c in d.poly.items())]
        assert all(type(c) is int for c in coeffs) and coeffs[-1] > 0
        assert math.gcd(*coeffs) == 1
        got = [poly_eval(d.poly, 0, e) for e in points]
        i = next(i for i, r in enumerate(ref) if r)
        scale = got[i] / ref[i]
        assert got == [scale * r for r in ref]

    def test_requires_consecutive_states(self):
        states = chain(harmonic_seed(), 3)
        with pytest.raises(ValueError):
            quantization_delta(states[3], states[1], 0)

    def test_degenerate_determinant_detected(self):
        # S0 = (1-E) L0 makes s_k/l_k stationary, so the determinant
        # vanishes identically at the anchor
        seed = aim_seed(poly_new({(2, 0): 1}),
                        poly_new({(2, 0): 1, (2, 1): -1}),
                        poly_new({(0, 0): 1}))
        s1 = aim_iterate(seed)
        with pytest.raises(DegenerateDelta):
            quantization_delta(s1, seed, 0)


class TestEigenvalues:
    def test_harmonic_levels(self):
        got = [v for v, _ in certified(F(0), 8).accepted]
        assert got == [F(2 * n + 1) for n in range(9)]

    def test_decaying_mass_levels_exact(self):
        lt = F(1, 10)
        got = {v for v, _ in certified(lt, 8).accepted}
        assert got == closed_levels(lt, 8)
        assert all(isinstance(v, F) for v in got)

    def test_folded_spectrum_keeps_bound_values(self):
        # E_n at lt = 1/4 repeats: 1, 5/2, 7/2, 4, 4, 7/2, 5/2, 1, -1
        got = [v for v, _ in certified(F(1, 4), 8).accepted]
        assert got == [F(-1), F(1), F(5, 2), F(7, 2), F(4)]

    def test_anchor_robustness(self):
        lt = F(1, 10)
        for tau0 in (F(0), F(1, 2)):
            assert {v for v, _ in certified(lt, 8, tau0).accepted} \
                == closed_levels(lt, 8)

    def test_identity_is_not_vacuous(self):
        # at k = 8 the iteration has terminated at E_8 but not just off it,
        # and not at E_9, whose level terminates only from k = 9 on
        lt = F(1, 10)
        states = chain(aim_seed(*aim_inputs(lt)), 9)
        e8 = spectrum_closed_dimensionless(8, lt)
        e9 = spectrum_closed_dimensionless(9, lt)
        assert terminates_at(states[8], states[7], e8)
        assert not terminates_at(states[8], states[7], e8 + F(1, 10 ** 6))
        assert not terminates_at(states[8], states[7], e9)
        assert terminates_at(states[9], states[8], e9)

    @given(state_pairs(), st.fractions(min_value=-20, max_value=20,
                                       max_denominator=30))
    @example((_COMMON_ROOT[1], _COMMON_ROOT[0], [F(1), F(-1)]), F(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_termination_matches_pointwise_reference(self, pair, e_random):
        # delta at E = e vanishes identically in tau exactly when it does
        # at more points than its degree in tau
        curr, prev, levels = pair
        points = range(degree_bound(curr, prev, 0) + 1)
        for e in levels + [e_random]:
            want = not any(delta_value(curr, prev, t, e) for t in points)
            assert terminates_at(curr, prev, e) == want

    def test_common_anchor_root_is_rejected(self):
        # s0 = E + tau(tau-1)(2tau-1): delta_1 = s0^2 - s0' is E^2 - 1 at
        # both anchors 0 and 1, yet not identically zero in tau at E = +-1
        seed = aim_seed(poly_new({(0, 0): 1}),
                        poly_new({(0, 1): 1, (3, 0): 2, (2, 0): -3, (1, 0): 1}),
                        poly_new({(0, 0): 1}))
        s1 = aim_iterate(seed)
        for e in (F(1), F(-1)):
            for tau0 in (0, 1):
                assert poly_eval(quantization_delta(s1, seed, tau0).poly, 0, e) == 0
            assert not terminates_at(s1, seed, e)
        with pytest.raises(NoStableRoots):
            aim_eigenvalues(seed, k_max=2, tau0=0)

    def test_k_max_floor(self):
        with pytest.raises(ValueError):
            aim_eigenvalues(harmonic_seed(), k_max=1, tau0=0)

    def test_no_stable_roots(self):
        # a drifting seed whose determinant never vanishes identically
        seed = aim_seed(poly_new({(0, 0): 1}),
                        poly_new({(0, 1): 1, (1, 0): -1}),
                        poly_new({(0, 0): 1}))
        with pytest.raises(NoStableRoots):
            aim_eigenvalues(seed, k_max=4, tau0=0)


class TestEigenfunctionViaAlpha:
    def setup_method(self):
        self.state = chain(harmonic_seed(), 6)[6]

    def test_ground_state_is_flat(self):
        grid = [-2.0 + 0.2 * i for i in range(21)]
        vals = eigenfunction_via_alpha(self.state, 1, grid)
        assert max(abs(v - 1.0) for v in vals) < 1e-12

    def test_first_excited_tracks_tau(self):
        grid = [-2.0 + 0.2 * i for i in range(21)]
        vals = eigenfunction_via_alpha(self.state, 3, grid)
        assert max(abs(v - t) for v, t in zip(vals, grid)) < 1e-10

    def test_second_excited_crosses_nodes(self):
        grid = [-2.0 + 0.1 * i for i in range(41)]
        vals = eigenfunction_via_alpha(self.state, 5, grid)
        ref = [1.0 - 2.0 * t * t for t in grid]
        assert max(abs(v - r) for v, r in zip(vals, ref)) < 1e-10

    def test_grid_point_on_node_gets_limit_zero(self):
        vals = eigenfunction_via_alpha(self.state, 3, [0.0, 1.0])
        assert vals[0] == 0.0 and abs(vals[1] - 1.0) < 1e-12

    def test_matches_series_beyond_harmonic(self):
        lt = F(1, 10)
        state = chain(aim_seed(*aim_inputs(lt)), 8)[8]
        grid = [-3.0 + 0.3 * i for i in range(21)]
        for n in range(3):
            en = spectrum_closed_dimensionless(n, lt)
            vals = eigenfunction_via_alpha(state, en, grid)
            ef = eigen_polynomial(n, lt)
            ref = [sum(float(c) * t ** j for j, c in enumerate(ef.coeffs))
                   for t in grid]
            scale = max(abs(r) for r in ref)
            assert all(abs(v - r) <= 1e-9 * scale for v, r in zip(vals, ref))

    @given(lam_tildes(), st.data(),
           st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_correctly_rounded_series_polynomial(self, lt, data, grid):
        n_top = bound_top(lt)
        assume(n_top >= 0)
        n = data.draw(st.integers(0, n_top))
        k = data.draw(st.integers(max(1, n - 1), 8))
        state = chain(aim_seed(*aim_inputs(lt)), k)[k]
        en = spectrum_closed_dimensionless(n, lt)
        assume(poly_restrict((state.L,), 1, en)[0])
        # the series polynomial already has lowest coefficient 1
        coeffs = eigen_polynomial(n, lt).coeffs
        want = [float(horner(coeffs, F(t))) for t in grid]
        assert eigenfunction_via_alpha(state, en, grid) == want

    def test_shallow_state_raises(self):
        # k = 1 has not terminated at E_4 = 9 of the harmonic oscillator
        state = chain(harmonic_seed(), 1)[1]
        with pytest.raises(NotTerminated):
            eigenfunction_via_alpha(state, 9, [0.0, 0.5, 1.0])

    def test_off_eigenvalue_energy_raises(self):
        state = chain(aim_seed(*aim_inputs(F(1, 10))), 8)[8]
        with pytest.raises(NotTerminated):
            eigenfunction_via_alpha(state, 2, [0.0, 0.5, 1.0])


class TestDifferential:
    """AIM census and series polynomials against the closed form, at random
    rational lambda_tilde, anchor tau0 and depth k_max."""

    @given(lam_tildes(),
           st.fractions(min_value=-2, max_value=2, max_denominator=12),
           st.fractions(min_value=-2, max_value=2, max_denominator=12),
           st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_census_is_the_closed_form(self, lt, tau0, tau1, k_max):
        rep = certified(lt, k_max, tau0)
        assert {v for v, _ in rep.accepted} == closed_levels(lt, k_max)
        assert rep.rejected == ()
        assert certified(lt, k_max, tau1).accepted == rep.accepted

    @given(lam_tildes())
    @settings(max_examples=30, deadline=None)
    def test_series_residuals_vanish(self, lt):
        for n in range(bound_top(lt) + 1):
            assert not residual_check(eigen_polynomial(n, lt)).series_residual
