"""Iterative quantization engine for y'' = l0*y' + s0*y.

The iteration rules
    l_k = l_{k-1}' + s_{k-1} + l0*l_{k-1}
    s_k = s_{k-1}' + s0*l_{k-1}
are carried out on exact polynomial numerators over the shared structural
denominator u^(k+1), so every quantity stays a rational-coefficient
polynomial in (tau, E).  Eigenvalues are the roots of the termination
determinant delta_k = l_k*s_{k-1} - l_{k-1}*s_k that persist as k grows.
Where the iteration has terminated, the ratio alpha = s_k/l_k equals
-f'/f for the polynomial eigenfunction f, so f = exp(-Integral alpha) is
read off alpha's reduced denominator exactly, with no quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (
    BiPoly,
    RatLike,
    _ideriv,
    _int_scaled,
    horner,
    isolate_real_roots,
    poly_add,
    poly_diff_tau,
    poly_eval,
    poly_eval_e,
    poly_eval_tau,
    poly_is_zero,
    poly_mul,
    poly_scale,
    poly_sub,
    refine_root,
    uni_coeffs,
    uni_reduce,
)


class LambdaZero(ValueError):
    """Seed rejected: the first-derivative coefficient must not vanish."""


class DegenerateDelta(ArithmeticError):
    """The termination determinant is identically zero at this anchor."""


class NoStableRoots(RuntimeError):
    """No quantization root persisted across iterations."""


class DivisionByZero(ZeroDivisionError):
    """The ratio s_k/l_k was requested where l_k vanishes."""


class NotTerminated(ArithmeticError):
    """s_k/l_k is not a logarithmic derivative -f'/f at the requested E."""


@dataclass(frozen=True)
class AimState:
    """Iteration state: l_k = L/u^denom_exp, s_k = S/u^denom_exp.

    The seed numerators ride along because every step multiplies by them.
    Numerators other than the seed's may legitimately vanish for special
    parameter values, so nonzero-ness is checked only at the seed.
    """
    k: int
    L: BiPoly
    S: BiPoly
    u_poly: BiPoly
    denom_exp: int
    l0: BiPoly = field(repr=False)
    s0: BiPoly = field(repr=False)

    def __post_init__(self) -> None:
        if self.denom_exp != self.k + 1:
            raise ValueError("denominator exponent must equal k + 1")


@dataclass(frozen=True)
class DeltaPoly:
    """Termination determinant at iteration k, univariate in E."""
    k: int
    poly: BiPoly


@dataclass(frozen=True)
class AimSpectrumReport:
    """Stable-root census after iterating to k_max.

    accepted: (E value, first iteration of the surviving run, stability
    residual) per root, sorted by value; exact rational roots carry
    residual 0.  rejected: transient roots as (value, first, last seen).
    """
    k_max: int
    tau0: Fraction
    accepted: tuple[tuple[Fraction | float, int, float], ...]
    rejected: tuple[tuple[Fraction | float, int, int], ...]


def aim_seed(l0_num: BiPoly, s0_num: BiPoly, u: BiPoly) -> AimState:
    """Start the iteration from l0 = l0_num/u, s0 = s0_num/u."""
    if poly_is_zero(l0_num):
        raise LambdaZero("seed coefficient of y' is identically zero")
    if poly_is_zero(u):
        raise ValueError("denominator base u must be nonzero")
    return AimState(k=0, L=dict(l0_num), S=dict(s0_num), u_poly=dict(u),
                    denom_exp=1, l0=dict(l0_num), s0=dict(s0_num))


def aim_iterate(state: AimState) -> AimState:
    """One exact iteration step; the denominator exponent grows by one."""
    u = state.u_poly
    du = poly_diff_tau(u)
    d = state.denom_exp
    # quotient rule over u^d: (X/u^d)' = (X'u - d X u')/u^(d+1)
    lk = poly_add(
        poly_add(
            poly_sub(poly_mul(poly_diff_tau(state.L), u),
                     poly_scale(poly_mul(state.L, du), d)),
            poly_mul(state.S, u)),
        poly_mul(state.l0, state.L))
    sk = poly_add(
        poly_sub(poly_mul(poly_diff_tau(state.S), u),
                 poly_scale(poly_mul(state.S, du), d)),
        poly_mul(state.s0, state.L))
    return AimState(k=state.k + 1, L=lk, S=sk, u_poly=u,
                    denom_exp=d + 1, l0=state.l0, s0=state.s0)


def quantization_delta(curr: AimState, prev: AimState, tau0: RatLike) -> DeltaPoly:
    """delta_k = l_k*s_{k-1} - l_{k-1}*s_k at the anchor tau0, in E.

    The denominator powers cancel in the combination, so numerators are
    combined directly; overall rational content is stripped and the
    leading coefficient made positive.
    """
    if curr.k != prev.k + 1:
        raise ValueError("states must be consecutive iterations")
    lc = poly_eval_tau(curr.L, tau0)
    sc = poly_eval_tau(curr.S, tau0)
    lp = poly_eval_tau(prev.L, tau0)
    sp = poly_eval_tau(prev.S, tau0)
    delta = poly_sub(poly_mul(lc, sp), poly_mul(lp, sc))
    if poly_is_zero(delta):
        raise DegenerateDelta(f"determinant vanishes identically at tau0={tau0}")
    ints = _int_scaled(uni_coeffs(delta))
    sign = 1 if ints[-1] > 0 else -1
    return DeltaPoly(k=curr.k, poly={(0, de): Fraction(sign * c)
                                     for de, c in enumerate(ints) if c})


@dataclass
class _Track:
    value: Fraction | float
    exact: bool
    first_seen: int
    run_start: int
    last_seen: int
    max_drift: float


def aim_eigenvalues(seed: AimState, k_max: int = 12, tau0: RatLike = 0,
                    stab_tol: RatLike = Fraction(1, 10 ** 10)) -> AimSpectrumReport:
    """Iterate to k_max and report roots that persist across iterations.

    A root is accepted when its run of consecutive appearances reaches the
    final iteration and started at least min(3, k_max-1) iterations before
    it.  The determinant gains one fresh root per iteration near the
    spectral frontier, and a fresh root's appearance is not yet evidence
    of convergence, so the last few arrivals are held back.  Exact
    rational roots are compared exactly; bracketed irrational roots match
    within stab_tol.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    tol = float(Fraction(stab_tol))
    refine_width = Fraction(stab_tol) / 4 if Fraction(stab_tol) > 0 \
        else Fraction(1, 10 ** 18)
    tracks: list[_Track] = []
    state = seed
    for k in range(1, k_max + 1):
        prev, state = state, aim_iterate(state)
        delta = quantization_delta(state, prev, tau0)
        for iv in isolate_real_roots(delta.poly):
            if iv.exact is not None:
                value: Fraction | float = iv.exact
                exact = True
            else:
                value = float(refine_root(delta.poly, iv, refine_width))
                exact = False
            tr = _match_track(tracks, value, exact, tol, k)
            if tr is None:
                tracks.append(_Track(value, exact, k, k, k, 0.0))
                continue
            drift = 0.0 if (tr.exact and exact and tr.value == value) \
                else abs(float(tr.value) - float(value))
            if tr.last_seen != k - 1:  # the run was broken; start over
                tr.run_start = k
                tr.max_drift = 0.0
            else:
                tr.max_drift = max(tr.max_drift, drift)
            tr.last_seen = k
            if not exact:
                tr.value = value
                tr.exact = False

    margin = min(3, k_max - 1)
    accepted = []
    rejected = []
    for tr in tracks:
        persisted = tr.last_seen == k_max and tr.run_start <= k_max - margin
        if persisted and tr.max_drift <= tol:
            accepted.append((tr.value, tr.run_start, tr.max_drift))
        else:
            rejected.append((tr.value, tr.first_seen, tr.last_seen))
    if not accepted:
        raise NoStableRoots(
            f"no root persisted through k_max={k_max} at tau0={tau0}")
    accepted.sort(key=lambda t: float(t[0]))
    rejected.sort(key=lambda t: float(t[0]))
    return AimSpectrumReport(k_max=k_max, tau0=Fraction(tau0),
                             accepted=tuple(accepted), rejected=tuple(rejected))


def _match_track(tracks: list[_Track], value: Fraction | float, exact: bool,
                 tol: float, k: int) -> Optional[_Track]:
    best = None
    for tr in tracks:
        if tr.last_seen == k:
            continue  # already matched by another root this iteration
        if exact and tr.exact:
            if tr.value == value:
                return tr
            continue
        d = abs(float(tr.value) - float(value))
        if d <= tol and (best is None or d < best[0]):
            best = (d, tr)
    return best[1] if best else None


def alpha_at(state: AimState, e_val: RatLike, tau_val: RatLike) -> Fraction:
    """Exact ratio s_k/l_k at one point; the u powers cancel."""
    den = poly_eval(state.L, tau_val, e_val)
    if den == 0:
        raise DivisionByZero(f"l_{state.k} vanishes at tau={tau_val}, E={e_val}")
    return poly_eval(state.S, tau_val, e_val) / den


# ---------------------------------------------------------------------------
# eigenfunction from the terminated ratio

def eigenfunction_via_alpha(state: AimState, e_n: RatLike,
                            tau_grid: Sequence[float]) -> list[float]:
    """Evaluate the polynomial eigenfunction f read off alpha = s_k/l_k.

    Once the iteration has terminated at e_n, alpha(., e_n) = -f'/f, so
    f = exp(-Integral alpha) is the reduced denominator of alpha itself;
    the reduced numerator must then equal minus its derivative, exactly.
    f is scaled so that its lowest-degree coefficient is 1: f(0) = 1, or
    f'(0) = 1 when 0 is a node.  Each value is the exact rational f(t),
    correctly rounded to a float.  Raises NotTerminated when alpha is not
    a logarithmic derivative: e_n is no eigenvalue, or k is too shallow.
    """
    e_n = Fraction(e_n)
    num = _coeffs_or_empty(poly_eval_e(state.S, e_n))
    den = _coeffs_or_empty(poly_eval_e(state.L, e_n))
    if not den:
        raise DivisionByZero("l_k is identically zero at this E")
    num, den = uni_reduce(num, den)
    if num != [-c for c in _ideriv(den)]:
        raise NotTerminated(
            f"s_{state.k}/l_{state.k} is not -f'/f at E={e_n}: the iteration "
            f"has not terminated there by k={state.k}")
    low = next(c for c in den if c)
    f = [Fraction(c, low) for c in den]
    return [float(horner(f, Fraction(t))) for t in tau_grid]


def _coeffs_or_empty(p: BiPoly) -> list[Fraction]:
    return uni_coeffs(p) if p else []
