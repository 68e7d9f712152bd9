"""Oscillator with algebraically decaying mass: model layer.

A mass profile m(t) = m0/(1 + lam*t^2) under natural units reduces, with
tau = sqrt(omega)*t and E_tilde = 2E/omega, to

    (1 + lt*tau^2) phi'' + 2*lt*tau phi' + (E_tilde - tau^2/(1+lt*tau^2)) phi = 0

where lt = lam/omega.  Factoring out the envelope (1+lt*tau^2)^(-1/(2*lt))
turns this exactly into the polynomial-friendly form

    (1 + lt*tau^2) f'' - 2(1-lt) tau f' + (E_tilde - 1) f = 0

whose quantization gives E_tilde_n = -n(n+1)*lt + 2n + 1 with polynomial
f_n of degree n.  This module owns the parameter bookkeeping, the seed
handed to the iteration engine, the closed-form spectrum, bound-state
thresholds, and eigenfunction construction, evaluation, normalization,
and residual verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (
    BiPoly,
    RatLike,
    adaptive_simpson,
    horner,
    poly_add,
    poly_diff_tau,
    poly_is_zero,
    poly_mul,
    poly_new,
    poly_scale,
    poly_sub,
)


class NonpositiveFrequency(ValueError):
    """omega must be strictly positive."""


class LambdaZeroSeed(ValueError):
    """lam_tilde = 1 kills the first-derivative seed coefficient."""


class NoThreshold(ValueError):
    """lam_tilde = 0 has no continuum edge; every level is bound."""


class NotNormalizable(ValueError):
    """The envelope decays too slowly for this n to be square-integrable."""


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs in natural units (hbar = c = 1); m0 defaults to 1."""
    omega: Fraction
    lam: Fraction
    m0: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", Fraction(self.omega))
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "m0", Fraction(self.m0))
        if self.omega <= 0:
            raise NonpositiveFrequency(f"omega = {self.omega}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")

    @property
    def lam_tilde(self) -> Fraction:
        return self.lam / self.omega


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    e_tilde: Fraction
    e_phys: Fraction
    bound: bool
    source: str

    def __post_init__(self) -> None:
        if self.source not in ("closed_form", "aim", "oracle"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")


@dataclass(frozen=True)
class BoundStateInfo:
    threshold: Fraction       # continuum edge in E_tilde units
    normalizable_max_n: int   # largest n with a square-integrable state


def aim_inputs(lam_tilde: RatLike, printed_signs: bool = False
               ) -> tuple[BiPoly, BiPoly, BiPoly]:
    """Seed numerators (coefficient of f', coefficient of f, shared
    denominator) for the iteration engine.

    The default carries the self-consistent sign, f'' coefficient
    +2(1-lt)tau after moving terms across: l0 = 2(1-lt)tau/u.  With
    printed_signs=True the sign of l0 is flipped; that variant's lowest
    excited level comes out as 2*lt - 1 instead of 3 - 2*lt, which is how
    the two conventions are told apart experimentally.
    """
    lt = Fraction(lam_tilde)
    if lt == 1:
        raise LambdaZeroSeed("lam_tilde = 1 gives a vanishing y' coefficient")
    if lt < 0 or lt > 1:
        raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
    sign = -1 if printed_signs else 1
    l0_num = poly_new({(1, 0): sign * 2 * (1 - lt)})
    s0_num = poly_new({(0, 0): 1, (0, 1): -1})          # 1 - E_tilde
    u = poly_new({(0, 0): 1, (2, 0): lt})
    return l0_num, s0_num, u


def spectrum_closed_dimensionless(n: int, lam_tilde: RatLike) -> Fraction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    lt = Fraction(lam_tilde)
    return -n * (n + 1) * lt + 2 * n + 1


def spectrum_closed_physical(n: int, omega: RatLike, lam: RatLike) -> Fraction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    w = Fraction(omega)
    if w <= 0:
        raise NonpositiveFrequency(f"omega = {w}")
    return -Fraction(n * (n + 1)) * Fraction(lam) / 2 + Fraction(2 * n + 1) * w / 2


def bound_state_info(lam_tilde: RatLike) -> BoundStateInfo:
    """Continuum edge 1/lt and the largest normalizable n.

    The potential term tau^2/(1+lt*tau^2) saturates at 1/lt, so levels at
    or above that edge in E_tilde are not discrete.  Normalizability is
    governed by the envelope: phi_n ~ tau^(n - 1/lt) at infinity, so
    phi_n^2 is integrable iff n < 1/lt - 1/2.
    """
    lt = Fraction(lam_tilde)
    if lt == 0:
        raise NoThreshold("lam_tilde = 0: confining limit, all states bound")
    if lt < 0:
        raise ValueError(f"lam_tilde must be nonnegative, got {lt}")
    b = 1 / lt - Fraction(1, 2)
    max_n = (b.numerator - 1) // b.denominator  # largest integer < b
    return BoundStateInfo(threshold=1 / lt, normalizable_max_n=max_n)


@dataclass(frozen=True)
class EigenFunction:
    """Polynomial factor f_n plus its envelope data.

    phi_n(tau) = norm_const * (1+lt*tau^2)^envelope_exponent * f_n(tau),
    with envelope_exponent = -1/(2*lt); envelope_exponent None marks the
    lt = 0 limit where the envelope is exp(-tau^2/2).
    """
    n: int
    lam_tilde: Fraction
    e_tilde: Fraction
    coeffs: tuple[Fraction, ...]
    envelope_exponent: Optional[Fraction]
    norm_const: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n + 1:
            raise ValueError("coeffs must run c_0 .. c_n")
        for j, c in enumerate(self.coeffs):
            if (j - self.n) % 2 and c != 0:
                raise ValueError(f"parity violation at c_{j}")
        if self.coeffs[self.n] == 0:
            raise ValueError("degree must be exactly n")
        for j in range(0, self.n - 1):
            got = self.coeffs[j + 2]
            want = _next_coeff(j, self.lam_tilde, self.e_tilde, self.coeffs[j])
            if got != want:
                raise ValueError(f"series recursion broken at c_{j + 2}")
        if self.n >= 1 and _next_coeff(self.n, self.lam_tilde, self.e_tilde,
                                       self.coeffs[self.n]) != 0:
            raise ValueError("series does not terminate at degree n")

    def poly(self) -> BiPoly:
        return poly_new({(j, 0): c for j, c in enumerate(self.coeffs) if c})


def _next_coeff(j: int, lt: Fraction, e: Fraction, cj: Fraction) -> Fraction:
    bracket = lt * j * (j - 1) - 2 * j * (1 - lt) + e - 1
    return -bracket * cj / ((j + 2) * (j + 1))


def eigen_polynomial(n: int, lam_tilde: RatLike) -> EigenFunction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    lt = Fraction(lam_tilde)
    if lt < 0 or lt >= 1:
        raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
    e = spectrum_closed_dimensionless(n, lt)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n % 2] = Fraction(1)
    for j in range(n % 2, n - 1, 2):
        coeffs[j + 2] = _next_coeff(j, lt, e, coeffs[j])
    exponent = None if lt == 0 else -1 / (2 * lt)
    return EigenFunction(n=n, lam_tilde=lt, e_tilde=e, coeffs=tuple(coeffs),
                         envelope_exponent=exponent)


def _log_envelope(ef: EigenFunction, tau: float) -> float:
    if ef.envelope_exponent is None:
        return -0.5 * tau * tau
    lt = float(ef.lam_tilde)
    return float(ef.envelope_exponent) * math.log1p(lt * tau * tau)


def wavefunction_eval(ef: EigenFunction, tau: float) -> float:
    n_const = ef.norm_const if ef.norm_const is not None else 1.0
    f = horner([float(c) for c in ef.coeffs], tau)
    return n_const * math.exp(_log_envelope(ef, tau)) * f


def normalization_constant(ef: EigenFunction, quad_tol: float = 1e-10) -> float:
    """N with Integral phi^2 d tau = 1 (plain d tau measure).

    The integrand is even, so 2*Integral_0^X plus an analytic tail bound:
    power-law tau^(2n - 2/lt) when lt > 0, Gaussian when lt = 0.  X grows
    until the tail bound drops below quad_tol/4 (log-space arithmetic, so
    tiny lt cannot overflow), then the finite part is done adaptively.
    """
    lt = ef.lam_tilde
    if lt > 0:
        info = bound_state_info(lt)
        if ef.n > info.normalizable_max_n:
            raise NotNormalizable(
                f"n = {ef.n} exceeds normalizable_max_n = {info.normalizable_max_n}"
                f" at lam_tilde = {lt}")
    fc = [float(c) for c in ef.coeffs]
    coeff_sum = sum(abs(c) for c in fc)
    log_goal = math.log(quad_tol / 4)

    def log_tail(x: float) -> float:
        # integrand <= coeff_sum^2 * tau^(2n) * envelope^2 for tau >= 1
        if lt == 0:
            return (2 * math.log(coeff_sum) + 2 * ef.n * math.log(x)
                    - x * x - math.log(2 * x))
        p = 2 * ef.n - 2 / float(lt)   # tail power; p < -1 when normalizable
        return ((-1 / float(lt)) * math.log(float(lt))
                + 2 * math.log(coeff_sum)
                + (p + 1) * math.log(x) - math.log(-(p + 1)))

    x = 8.0 if lt == 0 else max(8.0, 2.0 / math.sqrt(float(lt)))
    for _ in range(200):
        if log_tail(x) < log_goal:
            break
        x *= 1.5
    else:
        raise NotNormalizable("tail bound did not converge")

    def integrand(t: float) -> float:
        f = horner(fc, t)
        return f * f * math.exp(2 * _log_envelope(ef, t))

    # dyadic segments so a slow power tail cannot hide the central hump
    # from the adaptive refinement
    cuts = [0.0]
    edge = 8.0
    while edge < x:
        cuts.append(edge)
        edge *= 2.0
    cuts.append(x)
    seg_tol = quad_tol / (4 * len(cuts))
    half = sum(adaptive_simpson(integrand, a, b, seg_tol)
               for a, b in zip(cuts, cuts[1:]))
    total = 2.0 * half
    if total <= 0:
        raise NotNormalizable("quadrature produced a nonpositive norm")
    return 1.0 / math.sqrt(total)


@dataclass(frozen=True)
class ResidualReport:
    """series_residual: u f'' - 2(1-lt) tau f' + (E-1) f, exact (zero when
    the construction is right).  ode_samples: (tau, residual) of the full
    envelope-form equation evaluated with analytic derivatives."""
    series_residual: BiPoly
    ode_samples: tuple[tuple[float, float], ...]


def residual_check(ef: EigenFunction,
                   samples: Sequence[float] = (0.3, 0.7, 1.3, 2.1)
                   ) -> ResidualReport:
    lt = ef.lam_tilde
    f = ef.poly()
    fp = poly_diff_tau(f)
    fpp = poly_diff_tau(fp)
    u = poly_new({(0, 0): 1, (2, 0): lt})
    drift = poly_new({(1, 0): 2 * (1 - lt)})
    exact = poly_sub(poly_mul(u, fpp), poly_mul(drift, fp))
    exact = poly_add(exact, poly_scale(f, ef.e_tilde - 1))
    if poly_is_zero(exact):
        exact = {}

    ode = tuple((t, _full_ode_residual(ef, t)) for t in samples)
    return ResidualReport(series_residual=exact, ode_samples=ode)


def _full_ode_residual(ef: EigenFunction, tau: float) -> float:
    """u phi'' + 2 lt tau phi' + (E - tau^2/u) phi at one point.

    phi, phi', phi'' come from the closed forms
      phi   = u^a f
      phi'  = u^(a-1) (u f' - tau f)
      phi'' = u^(a-2) (u^2 f'' - 2 tau u f' + ((1+lt) tau^2 - 1) f)
    so no numerical differentiation enters.  At lt = 0 the envelope is the
    Gaussian and the equation degenerates to phi'' + (E - tau^2) phi = 0.
    """
    lt = float(ef.lam_tilde)
    e = float(ef.e_tilde)
    fc = [float(c) for c in ef.coeffs]
    f = horner(fc, tau)
    fp = horner([j * fc[j] for j in range(1, len(fc))], tau)
    fpp = horner([j * (j - 1) * fc[j] for j in range(2, len(fc))], tau)
    if ef.envelope_exponent is None:
        env = math.exp(-0.5 * tau * tau)
        phi = env * f
        phip = env * (fp - tau * f)
        phipp = env * (fpp - 2 * tau * fp + (tau * tau - 1) * f)
        return phipp + (e - tau * tau) * phi
    a = float(ef.envelope_exponent)
    u = 1.0 + lt * tau * tau
    ua = math.exp(a * math.log(u))
    phi = ua * f
    phip = ua / u * (u * fp - tau * f)
    phipp = ua / (u * u) * (u * u * fpp - 2 * tau * u * fp
                            + ((1 + lt) * tau * tau - 1) * f)
    return u * phipp + 2 * lt * tau * phip + (e - tau * tau / u) * phi

