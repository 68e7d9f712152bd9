"""Iterative quantization engine for y'' = l0*y' + s0*y.

The iteration rules
    l_k = l_{k-1}' + s_{k-1} + l0*l_{k-1}
    s_k = s_{k-1}' + s0*l_{k-1}
are carried out on exact polynomial numerators over the shared structural
denominator u^(k+1); from an integer seed they stay integer polynomials in
(tau, E).  The iteration has terminated at E when the determinant
delta_k = l_k*s_{k-1} - l_{k-1}*s_k vanishes identically in tau there, and
for an exactly solvable problem those E are the eigenvalues (Ciftci, Hall &
Saad, J. Phys. A 36 (2003) 11807).  Each eigenvalue is accepted on that
identity, checked with E substituted exactly, and on nothing else.
Where the iteration has terminated, the ratio alpha = s_k/l_k equals
-f'/f for the polynomial eigenfunction f, so f = exp(-Integral alpha) is
read off alpha's reduced denominator exactly, with no quadrature.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactalg import (
    BiPoly,
    RatLike,
    RootInterval,
    _idivexact,
    _ideriv,
    _igcd,
    _int_scaled,
    _trim,
    horner,
    isolate_real_roots,
    poly_add,
    poly_diff_tau,
    poly_mul,
    poly_restrict,
    poly_sub,
    refine_root,  # noqa: F401  bench/tracing.py looks it up on aim_core
    uni_reduce,
)


class DegenerateDelta(ArithmeticError):
    """The termination determinant is identically zero at this anchor."""


class NoStableRoots(RuntimeError):
    """No root terminated the iteration by k_max."""


class DivisionByZero(ZeroDivisionError):
    """The ratio s_k/l_k was requested where l_k vanishes."""


class NotTerminated(ArithmeticError):
    """s_k/l_k is not a logarithmic derivative -f'/f at the requested E."""


class AimState(NamedTuple):
    """Iteration state: l_k = L/u^(k+1), s_k = S/u^(k+1).

    The seed numerators ride along because every step multiplies by them.
    Numerators other than the seed's may legitimately vanish for special
    parameter values, so nonzero-ness is checked only at the seed.
    """
    k: int
    L: BiPoly
    S: BiPoly
    u_poly: BiPoly
    l0: BiPoly
    s0: BiPoly


class DeltaPoly(NamedTuple):
    """Termination determinant at iteration k, univariate in E;
    `bench/tracing.py` reads .k and .poly of `quantization_delta`'s."""
    k: int
    poly: BiPoly


class AimSpectrumReport(NamedTuple):
    """Certified roots after iterating to k_max.

    accepted: (E, k) per distinct root, sorted by E, where E is an exact
    rational at which delta_k vanishes identically in tau and k is the
    first iteration at which it was certified.  rejected: (bracket, k)
    per candidate that failed that identity at iteration k; an exact
    candidate has a collapsed bracket, and an irrational one, which the
    identity cannot check, keeps a rational bracket that `refine_root`
    narrows.
    """
    accepted: tuple[tuple[Fraction, int], ...]
    rejected: tuple[tuple[RootInterval, int], ...]


def aim_seed(l0_num: BiPoly, s0_num: BiPoly, u: BiPoly) -> AimState:
    """Start the iteration from l0 = l0_num/u, s0 = s0_num/u."""
    if not l0_num:
        raise ValueError("seed coefficient of y' is identically zero")
    if not u:
        raise ValueError("denominator base u must be nonzero")
    return AimState(k=0, L=dict(l0_num), S=dict(s0_num), u_poly=dict(u),
                    l0=dict(l0_num), s0=dict(s0_num))


def aim_iterate(state: AimState) -> AimState:
    """One exact iteration step; the denominator exponent grows by one.

    Integer seed coefficients stay integers."""
    u = state.u_poly
    d = state.k + 1
    du_d = {key: d * c for key, c in poly_diff_tau(u).items()}
    # quotient rule over u^d: (X/u^d)' = (X'u - d X u')/u^(d+1), so
    # L_k = (L' + S) u + (l0 - d u') L and S_k = S' u - d u' S + s0 L
    lk = poly_add(poly_mul(poly_add(poly_diff_tau(state.L), state.S), u),
                  poly_mul(poly_sub(state.l0, du_d), state.L))
    sk = poly_add(poly_sub(poly_mul(poly_diff_tau(state.S), u),
                           poly_mul(du_d, state.S)),
                  poly_mul(state.s0, state.L))
    return AimState(k=state.k + 1, L=lk, S=sk, u_poly=u, l0=state.l0,
                    s0=state.s0)


def quantization_delta(curr: AimState, prev: AimState, tau0: RatLike) -> DeltaPoly:
    """delta_k = l_k*s_{k-1} - l_{k-1}*s_k at the anchor tau0, in E.

    The denominator powers cancel in the combination, so numerators are
    combined directly; the result is scaled to a primitive integer
    polynomial with positive leading coefficient.
    """
    if curr.k != prev.k + 1:
        raise ValueError("states must be consecutive iterations")
    delta = _anchored_delta(poly_restrict((curr.L, curr.S), 0, tau0),
                            poly_restrict((prev.L, prev.S), 0, tau0), tau0)
    return DeltaPoly(k=curr.k, poly={(0, de): c
                                     for de, c in enumerate(delta) if c})


def aim_eigenvalues(seed: AimState, k_max: int = 12,
                    tau0: RatLike = 0) -> AimSpectrumReport:
    """Iterate to k_max and certify every root at which delta_k terminates.

    An E at which delta_k vanishes identically in tau is a root of both
    anchored determinants delta_k(tau0, E) and delta_k(tau1, E), with the
    fixed second anchor tau1 = 0 (1 when tau0 = 0), so it is a root of
    their gcd.  Termination persists to later k, so g_(k-1), the product
    of (E - root) over the roots certified so far, divides both
    determinants exactly, and only the gcd of the two quotients holds new
    candidates.  A rational candidate is certified when delta_k(tau, root)
    is zero identically in tau, and (E - root) joins g_k; every other
    candidate is rejected.  For the oscillator the new candidate at each
    k >= 2 is E_k alone, so the certified set at k_max is
    {E_n : n <= k_max} whatever the anchor.  Each state is restricted to
    each anchor once, and the next k reuses that restriction.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    anchors = (tau0, int(Fraction(tau0) == 0))
    content = [1]  # g_(k-1), ascending integer coefficients in E
    accepted: dict[Fraction, int] = {}
    rejected = []
    state = seed
    rows = [poly_restrict((seed.L, seed.S), 0, t) for t in anchors]
    for k in range(1, k_max + 1):
        prev, state = state, aim_iterate(state)
        prev_rows = rows
        rows = [poly_restrict((state.L, state.S), 0, t) for t in anchors]
        fresh = _igcd(*[
            _idivexact(_anchored_delta(curr_ls, prev_ls, t), content)
            for curr_ls, prev_ls, t in zip(rows, prev_rows, anchors)])
        candidates = {(0, de): c for de, c in enumerate(fresh) if c}
        for iv in isolate_real_roots(candidates):
            root = iv.exact
            if root is None or not terminates_at(state, prev, root):
                rejected.append((iv, k))
                continue
            accepted.setdefault(root, k)
            num, den = root.numerator, root.denominator
            content = [den * lo - num * hi
                       for hi, lo in zip(content + [0], [0] + content)]
    if not accepted:
        raise NoStableRoots(
            f"no root terminated the iteration by k_max={k_max} at tau0={tau0}")
    return AimSpectrumReport(accepted=tuple(sorted(accepted.items())),
                             rejected=tuple(rejected))


def terminates_at(curr: AimState, prev: AimState, e: RatLike) -> bool:
    """Whether delta_k = l_k*s_{k-1} - l_{k-1}*s_k vanishes identically in
    tau at E = e, with e substituted exactly."""
    return not _cross(poly_restrict((curr.L, curr.S), 1, e),
                      poly_restrict((prev.L, prev.S), 1, e))


def _cross(curr: list[list], prev: list[list]) -> list:
    """l_k*s_(k-1) - l_(k-1)*s_k from the (l, s) coefficient lists of two
    consecutive states, each restricted on its own.

    Each state's pair carries its own factor b^top, so both products carry
    the same b^(top_k + top_(k-1)) and the combination is delta_k times a
    positive factor; integer lists give integer coefficients.
    """
    (lc, sc), (lp, sp) = curr, prev
    out = [0] * max(len(lc) + len(sp), len(lp) + len(sc))
    for a, b, sign in ((lc, sp, 1), (lp, sc, -1)):
        for i, x in enumerate(a):
            if x:
                x *= sign
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return _trim(out)


def _anchored_delta(curr: list[list], prev: list[list], tau0: RatLike) -> list[int]:
    """delta_k at the anchor both states were restricted to, as a primitive
    integer list with positive leading coefficient."""
    delta = _cross(curr, prev)
    if not delta:
        raise DegenerateDelta(f"determinant vanishes identically at tau0={tau0}")
    ints = _int_scaled(delta)
    return ints if ints[-1] > 0 else [-c for c in ints]


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
    No CLI path calls it yet: it is kept for a planned `verify` check of
    the AIM eigenfunction against `fh_oscillator.eigen_polynomial`.
    """
    e_n = Fraction(e_n)
    num, den = poly_restrict((state.S, state.L), 1, e_n)
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

