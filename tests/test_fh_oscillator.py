"""Model layer: reduction, spectrum, eigenfunctions, normalization."""
import math

import pytest
from fractions import Fraction as F
from hypothesis import given
from hypothesis import strategies as st

from aimosc.exactalg import (
    adaptive_simpson,
    poly_is_zero,
    poly_new,
    sturm_count,
)
from aimosc.fh_oscillator import (
    BoundStateInfo,
    EigenFunction,
    LambdaZeroSeed,
    ModelParams,
    NonpositiveFrequency,
    NoThreshold,
    NotNormalizable,
    SpectrumEntry,
    aim_inputs,
    bound_state_info,
    eigen_polynomial,
    normalization_constant,
    residual_check,
    spectrum_closed_dimensionless,
    spectrum_closed_physical,
    wavefunction_eval,
)

lam_tildes = st.fractions(min_value=0, max_value=F(39, 40), max_denominator=40)


class TestModelParams:
    def test_coercion_and_lam_tilde(self):
        p = ModelParams(omega=10, lam=1)
        assert p.omega == F(10) and isinstance(p.omega, F)
        assert p.lam_tilde == F(1, 10)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(NonpositiveFrequency):
            ModelParams(omega=0, lam=1)
        with pytest.raises(NonpositiveFrequency):
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
        l0, s0, u = aim_inputs(F(1, 10))
        assert l0 == poly_new({(1, 0): F(9, 5)})
        assert s0 == poly_new({(0, 0): 1, (0, 1): -1})
        assert u == poly_new({(0, 0): 1, (2, 0): F(1, 10)})

    def test_printed_signs_flips_drift(self):
        l0, s0, u = aim_inputs(F(1, 10), printed_signs=True)
        assert l0 == poly_new({(1, 0): F(-9, 5)})
        assert s0 == poly_new({(0, 0): 1, (0, 1): -1})

    def test_unit_ratio_rejected(self):
        with pytest.raises(LambdaZeroSeed):
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
        want = [F(5), F(14), F(22), F(29)]
        got = [spectrum_closed_physical(n, 10, 1) for n in range(4)]
        assert got == want

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            spectrum_closed_dimensionless(-1, F(1, 10))
        with pytest.raises(ValueError):
            spectrum_closed_physical(-1, 10, 1)

    @given(st.integers(min_value=0, max_value=40), lam_tildes,
           st.fractions(min_value=F(1, 10), max_value=30, max_denominator=20))
    def test_physical_consistent_with_reduction(self, n, lt, omega):
        # two independent formulas joined by the exact map E = E_tilde*omega/2
        via_reduction = spectrum_closed_dimensionless(n, lt) * omega / 2
        assert via_reduction == spectrum_closed_physical(n, omega, lt * omega)

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
        with pytest.raises(NoThreshold):
            bound_state_info(0)

    @given(st.fractions(min_value=F(1, 60), max_value=F(59, 60),
                        max_denominator=60))
    def test_max_n_is_largest_below_edge_rule(self, lt):
        info = bound_state_info(lt)
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
            assert sturm_count(ef.poly()) == n

    def test_parity_of_wavefunction(self):
        for n in range(5):
            ef = eigen_polynomial(n, F(1, 10))
            for tau in (0.3, 1.1, 2.6):
                left = wavefunction_eval(ef, -tau)
                right = wavefunction_eval(ef, tau)
                assert abs(left - (-1.0) ** n * right) < 1e-12 * (1 + abs(right))

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
        tight = normalization_constant(ef, quad_tol=1e-12)
        assert abs(n0 - tight) < 1e-10

    def test_marginal_level_still_normalizes(self):
        # n = 3 at lam_tilde = 1/4 decays like tau^-2; the hump sits well
        # inside the first dyadic segment and must not be skipped
        ef = eigen_polynomial(3, F(1, 4))
        n3 = normalization_constant(ef)
        assert abs(n3 - 0.398942280) < 1e-6

    def test_unnormalizable_levels_refused(self):
        with pytest.raises(NotNormalizable):
            normalization_constant(eigen_polynomial(4, F(1, 4)))
        with pytest.raises(NotNormalizable):
            normalization_constant(eigen_polynomial(2, F(1, 2)))

    def test_normalized_self_overlap_is_one(self):
        for n in range(3):
            ef = eigen_polynomial(n, F(1, 10))
            c = normalization_constant(ef, quad_tol=1e-11)
            ef = EigenFunction(n=ef.n, lam_tilde=ef.lam_tilde,
                               e_tilde=ef.e_tilde, coeffs=ef.coeffs,
                               envelope_exponent=ef.envelope_exponent,
                               norm_const=c)
            total = 2.0 * sum(
                adaptive_simpson(lambda t: wavefunction_eval(ef, t) ** 2,
                                  a, b, 1e-10)
                for a, b in ((0.0, 8.0), (8.0, 16.0), (16.0, 32.0),
                             (32.0, 64.0)))
            assert abs(total - 1.0) < 1e-6

    def test_orthogonality(self):
        efs = []
        for n in range(4):
            ef = eigen_polynomial(n, F(1, 10))
            c = normalization_constant(ef, quad_tol=1e-11)
            efs.append(EigenFunction(n=ef.n, lam_tilde=ef.lam_tilde,
                                     e_tilde=ef.e_tilde, coeffs=ef.coeffs,
                                     envelope_exponent=ef.envelope_exponent,
                                     norm_const=c))
        for m in range(4):
            for n in range(m + 1, 4):
                if (m + n) % 2:
                    continue  # odd product integrates to zero identically
                overlap = 2.0 * sum(
                    adaptive_simpson(
                        lambda t: wavefunction_eval(efs[m], t)
                        * wavefunction_eval(efs[n], t),
                        a, b, 1e-10)
                    for a, b in ((0.0, 8.0), (8.0, 16.0), (16.0, 32.0),
                                 (32.0, 64.0)))
                assert abs(overlap) < 1e-6, (m, n)


class TestResiduals:
    def test_series_residual_vanishes_exactly(self):
        for lt in (F(0), F(1, 10), F(1, 4)):
            for n in range(6):
                rep = residual_check(eigen_polynomial(n, lt))
                assert poly_is_zero(rep.series_residual)

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
