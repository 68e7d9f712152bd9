"""Oscillator with algebraically decaying mass: model layer.

A mass profile m(t) = m0/(1 + lam*t^2) in natural units (m0 = 1) reduces, with
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
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # annotations only: the closed form never loads exactalg
    from .exactalg import BiPoly, RatLike


class NotNormalizable(ValueError):
    """The envelope decays too slowly for this n to be square-integrable."""


class _SpectrumEntryFields(NamedTuple):
    n: int
    e_tilde: Fraction
    e_phys: Fraction
    bound: bool
    source: str
    resolution: Optional[float] = None  # an oracle level's error bar in E


class SpectrumEntry(_SpectrumEntryFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __init__(self, *args, **kwargs) -> None:
        if self.source not in ("closed_form", "aim", "oracle"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")


class BoundStateInfo(NamedTuple):
    """The level census; both fields are None in the confining limit
    lam_tilde = 0, which has no edge and binds every level.  The integer
    rules read lam_tilde = p/q off the edge threshold = q/p."""
    threshold: Optional[Fraction]       # continuum edge in E_tilde units
    normalizable_max_n: Optional[int]   # largest n with a square-integrable state

    def bound(self, n: int) -> bool:
        return self.normalizable_max_n is None or n <= self.normalizable_max_n

    def below_edge(self, n_top: int) -> int:
        """The largest n <= n_top with lt E_n < 1, strictly below the
        continuum edge, for a normalizable n_top.  lt E_n < 1 is
        (1 - n lt)(1 - (n + 1) lt) > 0; a normalizable n has n lt < 1, so at
        lt = p/q it is (n + 1) p < q: a prefix, which n = 0 joins."""
        if self.threshold is None:
            return n_top
        q, p = self.threshold.numerator, self.threshold.denominator
        return min(n_top, (q - 1) // p - 1)

    def marginal(self, n: int) -> bool:
        """E_tilde_n = num/q is on the edge q/p: num p = q^2."""
        if self.threshold is None:
            return False
        q, p = self.threshold.numerator, self.threshold.denominator
        return closed_numerator(n, p, q) * p == q * q


def aim_inputs(lam_tilde: RatLike, printed_signs: bool = False
               ) -> tuple[BiPoly, BiPoly, BiPoly]:
    """Integer seed numerators (coefficient of f', coefficient of f, shared
    denominator) for the iteration engine.

    With lt = p/q in lowest terms, l0 = 2(1-lt)tau/(1 + lt tau^2) and
    s0 = (1-E_tilde)/(1 + lt tau^2) are returned with numerator and
    denominator both scaled by q: l0 = 2(q-p)tau/u, s0 = q(1-E_tilde)/u,
    u = q + p tau^2, so every iterate has integer coefficients.  The default
    carries the self-consistent sign, f'' coefficient +2(1-lt)tau after
    moving terms across.  With printed_signs=True the sign of l0 is
    flipped; that variant's lowest excited level comes out as 2*lt - 1
    instead of 3 - 2*lt, which is how the two conventions are told apart
    experimentally.
    """
    lt = Fraction(lam_tilde)
    if lt == 1:
        raise ValueError("lam_tilde = 1 gives a vanishing y' coefficient")
    if lt < 0 or lt > 1:
        raise ValueError(f"lam_tilde must lie in [0, 1), got {lt}")
    p, q = lt.numerator, lt.denominator
    sign = -1 if printed_signs else 1
    l0_num = {(1, 0): sign * 2 * (q - p)}
    s0_num = {(0, 0): q, (0, 1): -q}                    # q(1 - E_tilde)
    u = {(0, 0): q, (2, 0): p} if p else {(0, 0): q}
    return l0_num, s0_num, u


def closed_numerator(n: int, p: int, q: int) -> int:
    """(2n + 1) q - n(n + 1) p: E_tilde_n = num/q at lam_tilde = p/q, and
    with p = lam d, q = omega d for a common d, E_n = num/(2d)."""
    return (2 * n + 1) * q - n * (n + 1) * p


def spectrum_closed_dimensionless(n: int, lam_tilde: RatLike) -> Fraction:
    if n < 0:
        raise ValueError("n must be nonnegative")
    lt = Fraction(lam_tilde)
    return Fraction(closed_numerator(n, lt.numerator, lt.denominator),
                    lt.denominator)


def bound_state_info(lam_tilde: RatLike) -> BoundStateInfo:
    """Continuum edge 1/lt and the largest normalizable n.

    The potential term tau^2/(1+lt*tau^2) saturates at 1/lt, so levels at
    or above that edge in E_tilde are not discrete.  Normalizability is
    governed by the envelope: phi_n ~ tau^(n - 1/lt) at infinity, so
    phi_n^2 is integrable iff n < 1/lt - 1/2.
    """
    lt = Fraction(lam_tilde)
    if lt < 0:
        raise ValueError(f"lam_tilde must be nonnegative, got {lt}")
    if lt == 0:
        return BoundStateInfo(threshold=None, normalizable_max_n=None)
    # with lt = p/q, 1/lt - 1/2 = (2q - p)/(2p); max_n is the largest
    # integer below it
    p, q = lt.numerator, lt.denominator
    return BoundStateInfo(threshold=Fraction(q, p),
                          normalizable_max_n=(2 * q - p - 1) // (2 * p))


class _EigenFunctionFields(NamedTuple):
    n: int
    lam_tilde: Fraction
    e_tilde: Fraction
    coeffs: tuple[Fraction, ...]
    envelope_exponent: Optional[Fraction]


class EigenFunction(_EigenFunctionFields):
    """Polynomial factor f_n plus its envelope data.

    phi_n(tau) = N * (1+lt*tau^2)^envelope_exponent * f_n(tau), with
    envelope_exponent = -1/(2*lt) and N from normalization_constant;
    envelope_exponent None marks the lt = 0 limit where the envelope is
    exp(-tau^2/2).  The instance dict holds the cached properties.
    """
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __init__(self, *args, **kwargs) -> None:
        if len(self.coeffs) != self.n + 1:
            raise ValueError("coeffs must run c_0 .. c_n")
        for j, c in enumerate(self.coeffs):
            if (j - self.n) % 2 and c != 0:
                raise ValueError(f"parity violation at c_{j}")
        if self.coeffs[self.n] == 0:
            raise ValueError("degree must be exactly n")
        for j in range(0, self.n - 1):
            want = _next_coeff(j, self.lam_tilde, self.e_tilde, self.coeffs[j])
            if self.coeffs[j + 2] != want:
                raise ValueError(f"series recursion broken at c_{j + 2}")
        if self.n >= 1 and _next_coeff(self.n, self.lam_tilde, self.e_tilde,
                                       self.coeffs[self.n]) != 0:
            raise ValueError("series does not terminate at degree n")

    def poly(self) -> BiPoly:
        from .exactalg import poly_new
        return poly_new({(j, 0): c for j, c in enumerate(self.coeffs) if c})

    @cached_property
    def envelope_floats(self) -> tuple[float, Optional[float]]:
        """(lt, envelope exponent) as floats, once per eigenfunction."""
        e = self.envelope_exponent
        return float(self.lam_tilde), None if e is None else float(e)

    @cached_property
    def integer_coeffs(self) -> tuple[int, list[int]]:
        """(den, [c_j den]) over the least common denominator den."""
        den = math.lcm(*[c.denominator for c in self.coeffs])
        return den, [c.numerator * (den // c.denominator) for c in self.coeffs]


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


def wavefunction_eval(ef: EigenFunction, taus: Sequence[float],
                      n_const: float = 1.0) -> list[float]:
    """n_const env(tau) f(tau) at each tau.  f(tau) = num/(den 2^(e top))
    is evaluated exactly in integers, with tau = a/2^e, the coefficients
    over one common denominator den and num by Horner's rule in
    homogeneous form, and rounded once.  Where f(tau) itself overflows a
    float, the product is taken in logarithms: the envelope wins for every
    normalizable n, so the value is finite (often 0)."""
    den, scaled = ef.integer_coeffs
    lt, exponent = ef.envelope_floats
    top, descending = len(scaled) - 1, scaled[::-1]
    out = []
    for tau in taus:
        a, b = tau.as_integer_ratio()
        e = b.bit_length() - 1          # b = 2^e
        num = shift = 0
        for c in descending:            # c_j a^j 2^(e (top - j)) summed
            num = num * a + (c << shift)
            shift += e
        log_env = (-0.5 * tau * tau if exponent is None
                   else exponent * math.log1p(lt * tau * tau))
        try:
            out.append(n_const * math.exp(log_env) * (num / (den << e * top)))
        except OverflowError:
            f = Fraction(num, den << e * top)
            log_abs = (math.log(n_const) + log_env
                       + math.log(abs(f.numerator)) - math.log(f.denominator))
            out.append(-math.exp(log_abs) if f < 0 else math.exp(log_abs))
    return out


def normalization_constant(ef: EigenFunction) -> float:
    """N with Integral phi^2 d tau = 1 (plain d tau measure), in closed form.

    Integral phi^2 = N^2 * sum over i, j of c_i c_j M_(i+j)/2, where
    M_m = Integral tau^(2m) (1 + lt tau^2)^(-1/lt) d tau
        = lt^(-m-1/2) B(m + 1/2, 1/lt - m - 1/2)
    (Gamma(m + 1/2) at lt = 0); odd i + j drop out by parity.  The ratio
    r_m = M_m/M_0 obeys r_(m+1) = r_m (m + 1/2)/(1 - lt (m + 3/2)), so the
    sum R = Integral f^2 env^2 / M_0 is an exact rational, and only
    M_0 = sqrt(pi/lt) Gamma(a - 1/2)/Gamma(a), a = 1/lt (sqrt(pi) at
    lt = 0), is taken in floating point.  The denominators stay positive
    for every m < n exactly when n < 1/lt - 1/2, the normalizability test.
    """
    lt = ef.lam_tilde
    info = bound_state_info(lt)
    if not info.bound(ef.n):
        raise NotNormalizable(
            f"n = {ef.n} exceeds normalizable_max_n = {info.normalizable_max_n}"
            f" at lam_tilde = {lt}")
    ratios = [Fraction(1)]
    for m in range(ef.n):
        ratios.append(ratios[m] * (2 * m + 1) / (2 - lt * (2 * m + 3)))
    terms = [(i, c) for i, c in enumerate(ef.coeffs) if c]
    r = sum(ci * cj * ratios[(i + j) // 2] for i, ci in terms for j, cj in terms)
    return 1.0 / math.sqrt(_beta_moment_0(lt) * float(r))


def _beta_moment_0(lt: Fraction) -> float:
    """M_0 = Integral (1 + lt tau^2)^(-1/lt) d tau = sqrt(pi*a) Gamma(a - 1/2)
    / Gamma(a) with a = 1/lt.  From a = 20 on, where four Stirling terms
    are accurate to a few ulp, the log of the Gamma ratio comes from the
    series with its large parts cancelled by hand; a difference of lgamma
    values would lose most digits as a grows."""
    if lt == 0:
        return math.sqrt(math.pi)
    a = float(1 / lt)
    if a < 20:
        return math.sqrt(math.pi * a) * math.gamma(a - 0.5) / math.gamma(a)

    def tail(x: float) -> float:   # Stirling remainder of log Gamma(x)
        y = 1 / (x * x)
        return (1 / 12 - y * (1 / 360 - y * (1 / 1260 - y / 1680))) / x

    return math.sqrt(math.pi) * math.exp(
        (a - 1) * math.log1p(-0.5 / a) + 0.5 + tail(a - 0.5) - tail(a))


class ResidualReport(NamedTuple):
    """series_residual: u f'' - 2(1-lt) tau f' + (E-1) f, exact (zero when
    the construction is right).  ode_samples: (tau, residual) of the full
    envelope-form equation evaluated with analytic derivatives."""
    series_residual: BiPoly
    ode_samples: tuple[tuple[float, float], ...]


def residual_check(ef: EigenFunction,
                   samples: Sequence[float] = (0.3, 0.7, 1.3, 2.1)
                   ) -> ResidualReport:
    """The ResidualReport of ef; `bench/tracing.py` wraps it by name."""
    from .exactalg import (poly_add, poly_diff_tau, poly_mul, poly_new,
                           poly_scale, poly_sub)
    lt = ef.lam_tilde
    f = ef.poly()
    fp = poly_diff_tau(f)
    fpp = poly_diff_tau(fp)
    u = poly_new({(0, 0): 1, (2, 0): lt})
    drift = poly_new({(1, 0): 2 * (1 - lt)})
    exact = poly_sub(poly_mul(u, fpp), poly_mul(drift, fp))
    exact = poly_add(exact, poly_scale(f, ef.e_tilde - 1))

    ode = tuple(zip(samples, _full_ode_residuals(ef, samples)))
    return ResidualReport(series_residual=exact, ode_samples=ode)


def _full_ode_residuals(ef: EigenFunction,
                        samples: Sequence[float]) -> list[float]:
    """u phi'' + 2 lt tau phi' + (E - tau^2/u) phi at each sample tau.

    phi, phi', phi'' come from the closed forms
      phi   = u^a f
      phi'  = u^(a-1) (u f' - tau f)
      phi'' = u^(a-2) (u^2 f'' - 2 tau u f' + ((1+lt) tau^2 - 1) f)
    so no numerical differentiation enters.  At lt = 0 the envelope is the
    Gaussian and the equation degenerates to phi'' + (E - tau^2) phi = 0.
    The model's numbers are taken as floats once, not per sample.
    """
    from .exactalg import horner
    lt, a = ef.envelope_floats
    e = float(ef.e_tilde)
    fc = [float(c) for c in ef.coeffs]
    fc1 = [j * fc[j] for j in range(1, len(fc))]
    fc2 = [j * (j - 1) * fc[j] for j in range(2, len(fc))]
    out = []
    for tau in samples:
        f = horner(fc, tau)
        fp = horner(fc1, tau)
        fpp = horner(fc2, tau)
        if a is None:
            env = math.exp(-0.5 * tau * tau)
            phi = env * f
            phip = env * (fp - tau * f)
            phipp = env * (fpp - 2 * tau * fp + (tau * tau - 1) * f)
            out.append(phipp + (e - tau * tau) * phi)
            continue
        u = 1.0 + lt * tau * tau
        ua = math.exp(a * math.log(u))
        phi = ua * f
        phip = ua / u * (u * fp - tau * f)
        phipp = ua / (u * u) * (u * u * fpp - 2 * tau * u * fp
                                + ((1 + lt) * tau * tau - 1) * f)
        out.append(u * phipp + 2 * lt * tau * phip + (e - tau * tau / u) * phi)
    return out
