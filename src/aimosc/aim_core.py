"""Iterative quantization engine for y'' = l0*y' + s0*y.

The iteration rules
    l_k = l_{k-1}' + s_{k-1} + l0*l_{k-1}
    s_k = s_{k-1}' + s0*l_{k-1}
are carried out on exact polynomial numerators over the shared structural
denominator u^(k+1), so every quantity stays a rational-coefficient
polynomial in (tau, E).  Eigenvalues are the roots of the termination
determinant delta_k = l_k*s_{k-1} - l_{k-1}*s_k that persist as k grows;
eigenfunctions follow from the converged ratio alpha = s_k/l_k through
f(tau) = exp(-Integral alpha).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactalg import (
    BiPoly,
    RatLike,
    _ideriv,
    _int_scaled,
    adaptive_simpson,
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


class PoleOnGrid(ArithmeticError):
    """Eigenfunction reconstruction met a pole it could not handle."""


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
# eigenfunction reconstruction from alpha

def eigenfunction_via_alpha(state: AimState, e_n: RatLike,
                            tau_grid: Sequence[float],
                            quad_tol: float = 1e-12,
                            cross_poles: bool = True) -> list[float]:
    """Evaluate f(tau) = exp(-Integral_0^tau alpha) on a grid of points.

    alpha(., e_n) is an exact rational function; its real poles sit at the
    nodes of f and carry integer residues (-1 at a simple node).  Marching
    outward from tau=0, each leg integrates alpha with the poles deflated
    out of its coefficients and restores them in closed form, a signed
    power of (tau - pole); that closed form also continues f through a
    node and supplies the limit f=1 normalization when the anchor itself
    is a node.
    With cross_poles=False a leg containing a pole raises PoleOnGrid; a
    grid point landing on a pole gets the limiting value 0.0.
    """
    e_n = Fraction(e_n)
    num = _coeffs_or_empty(poly_eval_e(state.S, e_n))
    den = _coeffs_or_empty(poly_eval_e(state.L, e_n))
    if not den:
        raise DivisionByZero("l_k is identically zero at this E")
    num, den = uni_reduce(num, den)

    poles = _real_poles(num, den)
    gn, gd = _deflate_poles(num, den, poles)

    def smooth_f(t: float) -> float:
        return horner(gn, t) / horner(gd, t)

    order = sorted(range(len(tau_grid)), key=lambda i: tau_grid[i])
    values = [1.0] * len(tau_grid)
    for positive_side in (True, False):
        if positive_side:
            idxs = [i for i in order if tau_grid[i] > 0.0]
        else:
            idxs = [i for i in reversed(order) if tau_grid[i] < 0.0]
        prev_t = 0.0
        log_f, f_sign = 0.0, 1.0
        for i in idxs:
            t = tau_grid[i]
            if _pole_at(poles, t) is not None:
                if not cross_poles:
                    raise PoleOnGrid(f"grid point {t} sits on a pole")
                values[i] = 0.0
                continue
            dlog, dsign = _march(smooth_f, poles, prev_t, t, quad_tol, cross_poles)
            log_f += dlog
            f_sign *= dsign
            values[i] = f_sign * math.exp(log_f)
            prev_t = t
    for i in order:
        if tau_grid[i] == 0.0:
            values[i] = 0.0 if _pole_at(poles, 0.0) is not None else 1.0
    return values


def _coeffs_or_empty(p: BiPoly) -> list[Fraction]:
    return uni_coeffs(p) if p else []


def _real_poles(num: list[Fraction],
                den: list[Fraction]) -> list[tuple[float, int, Optional[Fraction]]]:
    """(location, integer residue, exact location if rational) per pole."""
    if len(den) <= 1:
        return []
    dp: BiPoly = {(i, 0): c for i, c in enumerate(den) if c}
    dden = _ideriv(den)
    out = []
    for iv in isolate_real_roots(dp):
        if iv.exact is not None:
            r = iv.exact
            dval = horner(dden, r)
            if dval == 0:
                raise PoleOnGrid(f"pole of order > 1 at tau={r}")
            rho_exact = horner(num, r) / dval
            if rho_exact.denominator != 1:
                raise PoleOnGrid(f"non-integer residue {rho_exact} at tau={r}")
            if rho_exact == 0:
                continue  # removable point, not a pole
            out.append((float(r), int(rho_exact), r))
        else:
            m = refine_root(dp, iv, Fraction(1, 10 ** 30))
            dval = horner(dden, m)
            if dval == 0:
                raise PoleOnGrid(f"pole of order > 1 near tau={float(m)}")
            rho_f = float(horner(num, m) / dval)
            rho = round(rho_f)
            if abs(rho_f - rho) > 1e-6:
                raise PoleOnGrid(f"non-integer residue {rho_f} near tau={float(m)}")
            if rho == 0:
                continue
            out.append((float(m), rho, None))
    out.sort(key=lambda p: p[0])
    return out


def _synth_div(coeffs: list[float], r: float) -> list[float]:
    """Quotient of a polynomial (ascending coefficients) by (t - r)."""
    desc = coeffs[::-1]
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + r * out[-1])
    return out[::-1]


def _deflate_poles(num: list[Fraction], den: list[Fraction],
                   poles: list[tuple[float, int, Optional[Fraction]]],
                   ) -> tuple[list[float], list[float]]:
    """Float coefficients of num/den with every listed pole divided out.

    At a simple pole r with residue rho, num(r) = rho * defl(r) where
    defl = den/(t - r), so num - rho*defl carries an exact root at r.
    Factoring it out removes the pole from the coefficients themselves;
    pointwise subtraction of rho/(t - r) would instead cancel two huge
    floats near r and leave noise growing like 1/(t - r)^2.
    """
    n = [float(c) for c in num]
    d = [float(c) for c in den]
    for r, rho, _ in poles:
        defl = _synth_div(d, r)
        top = max(len(n), len(defl))
        h = [(n[i] if i < len(n) else 0.0)
             - rho * (defl[i] if i < len(defl) else 0.0)
             for i in range(top)]
        n = _synth_div(h, r)
        d = defl
    return n, d


def _pole_at(poles: list[tuple[float, int, Optional[Fraction]]], t: float,
             eps: float = 1e-12) -> Optional[tuple[float, int, Optional[Fraction]]]:
    for p in poles:
        if abs(p[0] - t) <= eps * max(1.0, abs(t)):
            return p
    return None


def _march(smooth_f: Callable[[float], float],
           poles: list[tuple[float, int, Optional[Fraction]]],
           a: float, b: float, tol: float,
           cross_poles: bool) -> tuple[float, float]:
    """Advance (delta log|f|, sign factor) from a to b (either order).

    smooth_f is alpha with every real pole deflated away; each pole is
    restored in closed form, contributing -rho*(log|b-r| - log|a-r|) to
    log|f| and, for odd rho, a sign flip when crossed.  A leg starting
    exactly on a pole omits the log at the start point; that is the
    limiting product form normalizing f against (tau-r)^(-rho) at the
    node.
    """
    if a == b:
        return 0.0, 1.0
    lo, hi = (a, b) if a < b else (b, a)
    if not cross_poles and any(lo < p[0] < hi for p in poles):
        raise PoleOnGrid(f"integration leg ({lo}, {hi}) contains a pole")

    dlog = -adaptive_simpson(smooth_f, a, b, tol)
    dsign = 1.0
    for r, rho, _ in poles:
        ra, rb = a - r, b - r
        if rb == 0.0:
            raise PoleOnGrid(f"leg endpoint {b} sits on a pole")
        if ra == 0.0:
            dlog += -rho * math.log(abs(rb))
            if rho % 2:
                dsign *= math.copysign(1.0, rb)
            continue
        dlog += -rho * (math.log(abs(rb)) - math.log(abs(ra)))
        if rho % 2 and (ra < 0.0) != (rb < 0.0):
            dsign *= -1.0
    return dlog, dsign

