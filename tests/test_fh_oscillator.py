"""Model layer: reduction, spectrum, eigenfunctions, normalization."""
import math

import pytest
from fractions import Fraction as F
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimosc.exactalg import (
    horner,
    poly_mul,
    poly_new,
)
from aimosc.fh_oscillator import (
    BoundStateInfo,
    EigenFunction,
    ModelParams,
    NotNormalizable,
    SpectrumEntry,
    aim_inputs,
    bound_state_info,
    closed_numerator,
    eigen_polynomial,
    normalization_constant,
    residual_check,
    spectrum_closed_dimensionless,
    wavefunction_eval,
)
from sturm_ref import sturm_count

def same_ratio(num, den, want_num, want_den):
    """num/den == want_num/want_den as rational functions."""
    return poly_mul(num, want_den) == poly_mul(want_num, den)


lam_tildes = st.fractions(min_value=0, max_value=F(39, 40), max_denominator=40)


@st.composite
def normalizable_states(draw):
    """(n, lam_tilde) with lam_tilde in [0, 1) and n < 1/lam_tilde - 1/2."""
    n = draw(st.integers(min_value=0, max_value=12))
    q = draw(st.integers(min_value=1, max_value=10 ** 6))
    p = draw(st.integers(min_value=0,
                         max_value=min(q - 1, (2 * q - 1) // (2 * n + 1))))
    return n, F(p, q)


def fraction_wavefunction(ef, tau, n_const=1.0):
    """Reference phi(tau): f(tau) by Fraction Horner at Fraction(tau), then
    the envelope; f in logarithms where float(f) overflows.  Returns the
    value and whether the logarithm branch was taken."""
    if ef.envelope_exponent is None:
        log_env = -0.5 * tau * tau
    else:
        log_env = float(ef.envelope_exponent) * math.log1p(
            float(ef.lam_tilde) * tau * tau)
    f = horner(ef.coeffs, F(tau))
    try:
        return n_const * math.exp(log_env) * float(f), False
    except OverflowError:
        log_abs = (math.log(n_const) + log_env + math.log(abs(f.numerator))
                   - math.log(f.denominator))
        return (-math.exp(log_abs) if f < 0 else math.exp(log_abs)), True


def line_integral(fn, panels=2000):
    """Integral of fn over the real line by the composite Simpson rule in
    theta, with tau = tan(theta) on (-pi/2, pi/2).  The mapped integrand
    fn(tan theta) / cos^2 theta is taken as 0 at the ends, so fn must fall
    off at least like tau^-4."""
    h = math.pi / panels
    total = 0.0
    for k in range(1, panels):
        theta = -0.5 * math.pi + k * h
        c = math.cos(theta)
        total += (4 if k % 2 else 2) * fn(math.tan(theta)) / (c * c)
    return total * h / 3


def normalized(ef):
    """phi(tau) of ef, normalized."""
    n_const = normalization_constant(ef)
    return lambda tau: wavefunction_eval(ef, tau, n_const)


class TestModelParams:
    def test_coercion_and_lam_tilde(self):
        p = ModelParams(omega=10, lam=1)
        assert p.omega == F(10) and isinstance(p.omega, F)
        assert p.lam / p.omega == F(1, 10)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega = 0"):
            ModelParams(omega=0, lam=1)
        with pytest.raises(ValueError, match="omega = -3"):
            ModelParams(omega=-3, lam=0)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1, lam=-1)

    def test_spectrum_entry_validates_source(self):
        with pytest.raises(ValueError):
            SpectrumEntry(n=0, e_tilde=F(1), e_phys=F(1, 2),
                          bound=True, source="guess")
        with pytest.raises(ValueError):
            SpectrumEntry(n=-1, e_tilde=F(1), e_phys=F(1, 2),
                          bound=True, source="aim")


class TestAimInputs:
    def test_seed_structure(self):
        # l0 = 2(1-lt)tau/(1+lt tau^2) and s0 = (1-E)/(1+lt tau^2) at
        # lt = 1/10, carried on integer numerators over u
        l0, s0, u = aim_inputs(F(1, 10))
        want_u = poly_new({(0, 0): 1, (2, 0): F(1, 10)})
        assert same_ratio(l0, u, poly_new({(1, 0): F(9, 5)}), want_u)
        assert same_ratio(s0, u, poly_new({(0, 0): 1, (0, 1): -1}), want_u)
        assert all(type(c) is int
                   for c in (*l0.values(), *s0.values(), *u.values()))

    def test_printed_signs_flips_drift(self):
        l0, s0, u = aim_inputs(F(1, 10), printed_signs=True)
        want_u = poly_new({(0, 0): 1, (2, 0): F(1, 10)})
        assert same_ratio(l0, u, poly_new({(1, 0): F(-9, 5)}), want_u)
        assert same_ratio(s0, u, poly_new({(0, 0): 1, (0, 1): -1}), want_u)

    def test_unit_ratio_rejected(self):
        with pytest.raises(ValueError, match="lam_tilde = 1 gives a "
                                             "vanishing y' coefficient"):
            aim_inputs(1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            aim_inputs(F(-1, 10))
        with pytest.raises(ValueError):
            aim_inputs(F(3, 2))


class TestClosedSpectrum:
    def test_dimensionless_values(self):
        assert spectrum_closed_dimensionless(0, F(1, 10)) == 1
        assert spectrum_closed_dimensionless(1, F(1, 10)) == F(14, 5)
        assert spectrum_closed_dimensionless(2, F(1, 10)) == F(22, 5)
        assert spectrum_closed_dimensionless(3, F(1, 4)) == 4

    def test_physical_values(self):
        # omega = 10, lam = 1: E_n = num/2 with p = 1, q = 10 (d = 1)
        want = [F(5), F(14), F(22), F(29)]
        got = [F(closed_numerator(n, 1, 10), 2) for n in range(4)]
        assert got == want

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            spectrum_closed_dimensionless(-1, F(1, 10))

    @given(st.integers(min_value=0, max_value=40), lam_tildes,
           st.fractions(min_value=F(1, 10), max_value=30, max_denominator=20))
    def test_physical_consistent_with_reduction(self, n, lt, omega):
        # two independent formulas joined by the exact map E = E_tilde*omega/2:
        # E_n = (2n + 1) omega/2 - n(n + 1) lam/2, and closed_numerator with
        # lam and omega scaled by a common d, E_n = num/(2d)
        via_reduction = spectrum_closed_dimensionless(n, lt) * omega / 2
        lam = lt * omega
        assert via_reduction == (2 * n + 1) * omega / 2 - n * (n + 1) * lam / 2
        d = lam.denominator * omega.denominator
        assert via_reduction == F(closed_numerator(
            n, int(lam * d), int(omega * d)), 2 * d)

    @given(st.integers(min_value=0, max_value=40), lam_tildes)
    def test_level_spacing_shrinks_linearly(self, n, lt):
        gap = (spectrum_closed_dimensionless(n + 1, lt)
               - spectrum_closed_dimensionless(n, lt))
        assert gap == 2 - 2 * (n + 1) * lt


class TestBoundStates:
    def test_threshold_and_max_n(self):
        info = bound_state_info(F(1, 10))
        assert info == BoundStateInfo(threshold=F(10), normalizable_max_n=9)
        info = bound_state_info(F(1, 4))
        assert info == BoundStateInfo(threshold=F(4), normalizable_max_n=3)
        info = bound_state_info(F(1, 2))
        assert info == BoundStateInfo(threshold=F(2), normalizable_max_n=1)

    def test_confining_limit_has_no_edge(self):
        info = bound_state_info(0)
        assert info == BoundStateInfo(threshold=None, normalizable_max_n=None)
        assert all(info.bound(n) for n in (0, 1, 10**9))

    @given(st.fractions(min_value=0, max_value=F(59, 60), max_denominator=60),
           st.integers(min_value=0, max_value=200))
    @example(F(0), 10**9)
    @example(F(1, 3), 2)
    @example(F(2, 5), 2)   # n = 1/lt - 1/2 exactly: not normalizable
    def test_max_n_is_largest_below_edge_rule(self, lt, n):
        info = bound_state_info(lt)
        # phi_n^2 is integrable iff n < 1/lt - 1/2, that is lt (2n + 1) < 2
        assert info.bound(n) == (lt * (2 * n + 1) < 2)
        if lt:
            b = 1 / lt - F(1, 2)
            assert info.normalizable_max_n < b
            assert info.normalizable_max_n + 1 >= b


class TestEigenPolynomial:
    def test_ground_and_first(self):
        f0 = eigen_polynomial(0, F(1, 10))
        assert f0.coeffs == (F(1),)
        f1 = eigen_polynomial(1, F(1, 10))
        assert f1.coeffs == (F(0), F(1))

    def test_second_coefficient(self):
        # c2 = (1 - E_2)/2 = (1 - 22/5)/2
        f2 = eigen_polynomial(2, F(1, 10))
        assert f2.coeffs == (F(1), F(0), F(-17, 10))

    def test_envelope_exponent(self):
        assert eigen_polynomial(2, F(1, 10)).envelope_exponent == -5
        assert eigen_polynomial(2, F(1, 4)).envelope_exponent == -2
        assert eigen_polynomial(2, 0).envelope_exponent is None

    def test_confining_limit_matches_hermite(self):
        # H_{k+1} = 2 tau H_k - 2k H_{k-1}, scaled by lowest coefficient
        h = [{0: F(1)}, {1: F(2)}]
        for k in range(1, 6):
            nxt = {}
            for j, c in h[k].items():
                nxt[j + 1] = nxt.get(j + 1, F(0)) + 2 * c
            for j, c in h[k - 1].items():
                nxt[j] = nxt.get(j, F(0)) - 2 * k * c
            h.append({j: c for j, c in nxt.items() if c})
        for n in range(6):
            low = h[n][min(h[n])]
            want = [h[n].get(j, F(0)) / low for j in range(n + 1)]
            assert list(eigen_polynomial(n, 0).coeffs) == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            eigen_polynomial(-1, F(1, 10))
        with pytest.raises(ValueError):
            eigen_polynomial(2, 1)

    def test_node_count_equals_n(self):
        for n in range(6):
            ef = eigen_polynomial(n, F(1, 10))
            # the root count takes a polynomial in E: f_n's coefficients
            f_in_e = poly_new({(0, j): c for j, c in enumerate(ef.coeffs)})
            assert sturm_count(f_in_e) == n

    def test_parity_of_wavefunction(self):
        for n in range(5):
            ef = eigen_polynomial(n, F(1, 10))
            for tau in (0.3, 1.1, 2.6):
                left = wavefunction_eval(ef, -tau)
                right = wavefunction_eval(ef, tau)
                assert abs(left - (-1.0) ** n * right) < 1e-12 * (1 + abs(right))

    def test_value_where_the_polynomial_overflows(self):
        # at lt = 1/100, n = 99, phi falls only like 1/tau, while f(tau)
        # overflows a float from tau ~ 1e5 on; the reference takes f/tau^99
        # exactly and tau^99 env(tau) in logarithms
        ef = eigen_polynomial(99, F(1, 100))
        phi = normalized(ef)
        n_const = normalization_constant(ef)
        for tau in (1e5, 1e100):
            f = horner(ef.coeffs, F(tau))
            with pytest.raises(OverflowError):
                float(f)
            want = n_const * float(f / F(tau) ** 99) * math.exp(
                99 * math.log(tau)
                + float(ef.envelope_exponent) * math.log1p(tau * tau / 100))
            assert phi(tau) == pytest.approx(want, rel=1e-10)
            assert phi(-tau) == -phi(tau)

    @settings(max_examples=150, deadline=None)
    @given(normalizable_states(),
           st.floats(min_value=-1e200, max_value=1e200, allow_nan=False))
    @example((6, F(3, 20)), 1e80)         # f(tau) overflows: log branch
    @example((12, F(79, 1000)), -1e40)
    @example((99, F(1, 100)), 1e5)
    @example((2, F(0)), 5e-324)
    @example((3, F(1, 10)), -0.0)
    def test_eval_matches_fraction_horner(self, state, tau):
        # the integer evaluation rounds the same rational as the Fraction
        # reference, once, so the two agree bit for bit
        ef = eigen_polynomial(*state)
        n_const = normalization_constant(ef)
        got = wavefunction_eval(ef, tau, n_const)
        assert got.hex() == fraction_wavefunction(ef, tau, n_const)[0].hex()

    def test_reference_takes_the_log_branch(self):
        # the overflow examples above do reach the logarithm branch
        ef = eigen_polynomial(6, F(3, 20))
        phi, logs = fraction_wavefunction(ef, 1e80)
        assert logs and phi != 0
        assert not fraction_wavefunction(ef, 1e50)[1]

    def test_validation_catches_tampering(self):
        good = eigen_polynomial(2, F(1, 10))
        with pytest.raises(ValueError):
            EigenFunction(n=2, lam_tilde=good.lam_tilde, e_tilde=good.e_tilde,
                          coeffs=(F(1), F(0)), envelope_exponent=-5)
        with pytest.raises(ValueError):
            EigenFunction(n=2, lam_tilde=good.lam_tilde, e_tilde=good.e_tilde,
                          coeffs=(F(1), F(1), F(-17, 10)), envelope_exponent=-5)
        with pytest.raises(ValueError):
            EigenFunction(n=2, lam_tilde=good.lam_tilde, e_tilde=good.e_tilde,
                          coeffs=(F(1), F(0), F(0)), envelope_exponent=-5)
        with pytest.raises(ValueError):
            EigenFunction(n=2, lam_tilde=good.lam_tilde, e_tilde=good.e_tilde,
                          coeffs=(F(1), F(0), F(-1, 2)), envelope_exponent=-5)
        with pytest.raises(ValueError):
            # coefficients of a different level's energy do not terminate
            EigenFunction(n=2, lam_tilde=good.lam_tilde, e_tilde=F(14, 5),
                          coeffs=(F(1), F(0), F(9, 10)), envelope_exponent=-5)


class TestNormalization:
    def test_gaussian_ground_state(self):
        ef = eigen_polynomial(0, 0)
        n0 = normalization_constant(ef)
        assert abs(n0 - math.pi ** -0.25) < 1e-10

    def test_decay_approaches_gaussian(self):
        ef = eigen_polynomial(0, F(1, 10 ** 6))
        n0 = normalization_constant(ef)
        assert abs(n0 - math.pi ** -0.25) < 1e-5

    def test_frozen_value_and_tol_stability(self):
        ef = eigen_polynomial(0, F(1, 10))
        n0 = normalization_constant(ef)
        assert abs(n0 - 0.736694703312) < 1e-9

    def test_marginal_level_still_normalizes(self):
        # n = 3 at lam_tilde = 1/4: phi^2 decays only like tau^-2
        ef = eigen_polynomial(3, F(1, 4))
        n3 = normalization_constant(ef)
        assert abs(n3 - 0.398942280) < 1e-6

    @pytest.mark.parametrize("lt, n, reference", [
        (F(1, 10), 1, 0.96053237634568942974),
        (F(1, 10 ** 6), 0, 0.7511254036288691537),
        (F(1, 10 ** 12), 0, 0.75112554446480164682),
        (F(1, 4), 3, 0.39894228040143267794),        # 1/sqrt(2 pi)
        (F(12345, 1000003), 80, 0.020992945880335362664),
    ])
    def test_matches_50_digit_reference(self, lt, n, reference):
        # references: 50-digit sums of the Beta moments
        # lt^(-m-1/2) B(m + 1/2, 1/lt - m - 1/2)
        got = normalization_constant(eigen_polynomial(n, lt))
        assert abs(got - reference) <= 1e-14 * reference

    def test_unnormalizable_levels_refused(self):
        with pytest.raises(NotNormalizable):
            normalization_constant(eigen_polynomial(4, F(1, 4)))
        with pytest.raises(NotNormalizable):
            normalization_constant(eigen_polynomial(2, F(1, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=0, max_value=F(1, 3), max_denominator=60),
           st.data())
    def test_unit_norm_by_independent_quadrature(self, lt, data):
        # 2/lt - 2n >= 6 (so n is normalizable) keeps phi^2 below tau^-6,
        # smooth enough at the ends of the tan map for the rule to reach 1e-10
        n_top = 6 if lt == 0 else min(6, math.floor(1 / lt) - 3)
        phi = normalized(eigen_polynomial(data.draw(st.integers(0, n_top)), lt))
        total = line_integral(lambda t: phi(t) ** 2)
        assert abs(total - 1.0) < 1e-10

    def test_normalized_self_overlap_is_one(self):
        for n in range(3):
            phi = normalized(eigen_polynomial(n, F(1, 10)))
            total = line_integral(lambda t: phi(t) ** 2)
            assert abs(total - 1.0) < 1e-6

    def test_orthogonality(self):
        phis = [normalized(eigen_polynomial(n, F(1, 10))) for n in range(4)]
        for m in range(4):
            for n in range(m + 1, 4):
                if (m + n) % 2:
                    continue  # odd product integrates to zero identically
                overlap = line_integral(lambda t: phis[m](t) * phis[n](t))
                assert abs(overlap) < 1e-6, (m, n)

    @pytest.mark.parametrize("n", [30, 60, 100, 170])
    def test_harmonic_limit_matches_hermite_recurrence(self, n):
        # at lt = 0, phi_n is the normalized Hermite function up to sign;
        # f(0) = 1 or f'(0) = 1 fixes the sign to (-1)^(n//2)
        phi = normalized(eigen_polynomial(n, 0))
        sign = (-1) ** (n // 2)
        for i in range(41):
            tau = -2.0 + i / 10
            prev, psi = 0.0, math.pi ** -0.25 * math.exp(-0.5 * tau * tau)
            for k in range(n):
                prev, psi = psi, (math.sqrt(2 / (k + 1)) * tau * psi
                                  - math.sqrt(k / (k + 1)) * prev)
            assert abs(phi(tau) - sign * psi) < 1e-11, tau


class TestResiduals:
    def test_series_residual_vanishes_exactly(self):
        for lt in (F(0), F(1, 10), F(1, 4)):
            for n in range(6):
                rep = residual_check(eigen_polynomial(n, lt))
                assert not rep.series_residual

    def test_full_equation_residual_is_tiny(self):
        worst = 0.0
        for lt in (F(0), F(1, 10), F(1, 4)):
            for n in range(4):
                rep = residual_check(eigen_polynomial(n, lt))
                worst = max(worst, max(abs(r) for _, r in rep.ode_samples))
        assert worst < 1e-12

    def test_sample_points_echoed(self):
        rep = residual_check(eigen_polynomial(1, F(1, 10)),
                             samples=(0.5, 1.5))
        assert [t for t, _ in rep.ode_samples] == [0.5, 1.5]
