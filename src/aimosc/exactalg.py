"""Exact bivariate polynomial arithmetic and real-root isolation.

Polynomials in the two symbols tau (scaled time) and E (scaled energy) are
sparse maps from exponent pairs to rational coefficients.  All arithmetic is
over arbitrary-precision rationals.  Root finding works on univariate
restrictions: Sturm-chain bisection isolates every real root, and each
isolating interval is then narrowed until it can hold at most one rational
root, which is tested exactly; rational roots come back exact, irrational
ones as rational brackets.

Two numeric helpers shared by the other layers also live here: `horner`,
the package's one polynomial evaluator (exact on rationals, plain floating
point on floats), and `adaptive_simpson`, its one float quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

BiPoly = Dict[Tuple[int, int], Fraction]

RatLike = int | Fraction | str


class ZeroPolynomial(ValueError):
    """Operation needs a nonzero polynomial but received the zero one."""


# ---------------------------------------------------------------------------
# construction and arithmetic

def poly_new(terms: Mapping[Tuple[int, int], RatLike]) -> BiPoly:
    """Build a polynomial from an exponent->coefficient mapping."""
    out: BiPoly = {}
    for (dt, de), c in terms.items():
        if dt < 0 or de < 0:
            raise ValueError(f"negative exponent in {(dt, de)}")
        q = Fraction(c)
        if q:
            out[(int(dt), int(de))] = q
    return out


def _collect(terms: Iterable[Tuple[Tuple[int, int], Fraction]],
             base: Optional[BiPoly] = None) -> BiPoly:
    """Sum (exponent pair, coefficient) terms onto a copy of base; zero
    coefficients are dropped."""
    out = dict(base) if base else {}
    for key, c in terms:
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def poly_add(a: BiPoly, b: BiPoly) -> BiPoly:
    return _collect(b.items(), a)


def poly_sub(a: BiPoly, b: BiPoly) -> BiPoly:
    return _collect(((k, -c) for k, c in b.items()), a)


def poly_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    return _collect(((i + k, j + l), ca * cb)
                    for (i, j), ca in a.items() for (k, l), cb in b.items())


def poly_scale(a: BiPoly, c: RatLike) -> BiPoly:
    q = Fraction(c)
    if not q:
        return {}
    return {k: v * q for k, v in a.items()}


def poly_diff_tau(p: BiPoly) -> BiPoly:
    """Exact partial derivative with respect to tau; E held constant."""
    out: BiPoly = {}
    for (dt, de), c in p.items():
        if dt > 0:
            out[(dt - 1, de)] = c * dt
    return out


def poly_eval(p: BiPoly, tau: RatLike, e: RatLike) -> Fraction:
    """Exact value of p at a rational point (tau, E)."""
    t = Fraction(tau)
    w = Fraction(e)
    total = Fraction(0)
    for (dt, de), c in p.items():
        total += c * t ** dt * w ** de
    return total


def poly_eval_tau(p: BiPoly, tau: RatLike) -> BiPoly:
    """Substitute tau -> rational value, leaving a univariate polynomial in E."""
    t = Fraction(tau)
    return _collect(((0, de), c * t ** dt) for (dt, de), c in p.items())


def poly_eval_e(p: BiPoly, e: RatLike) -> BiPoly:
    """Substitute E -> rational value, leaving a univariate polynomial in tau."""
    w = Fraction(e)
    return _collect(((dt, 0), c * w ** de) for (dt, de), c in p.items())


def poly_is_zero(p: BiPoly) -> bool:
    return not p


# ---------------------------------------------------------------------------
# univariate restriction

def uni_coeffs(p: BiPoly) -> list[Fraction]:
    """Ascending coefficient list of a univariate polynomial.

    Accepts polynomials in tau alone or in E alone (constants count as
    either).  Raises ZeroPolynomial on the zero polynomial and ValueError
    when both variables are genuinely present.
    """
    if not p:
        raise ZeroPolynomial("zero polynomial has no coefficient list")
    dts = {k[0] for k in p}
    des = {k[1] for k in p}
    if dts == {0}:
        deg = max(des)
        out = [Fraction(0)] * (deg + 1)
        for (_, de), c in p.items():
            out[de] = c
        return out
    if des == {0}:
        deg = max(dts)
        out = [Fraction(0)] * (deg + 1)
        for (dt, _), c in p.items():
            out[dt] = c
        return out
    raise ValueError("polynomial is not univariate")


# ---------------------------------------------------------------------------
# integer-coefficient helpers (internal)

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_scaled(coeffs: Iterable[Fraction]) -> list[int]:
    """Clear denominators and divide by content; sign of the input is kept."""
    cs = list(coeffs)
    den = 1
    for c in cs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in cs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return [c // g for c in ints] if g else ints


def _ideriv(p: list) -> list:
    """Ascending coefficients of the derivative."""
    return [i * c for i, c in enumerate(p)][1:]


def _frem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a by b over the rationals (b nonzero)."""
    a = list(a)
    while len(a) >= len(b) and _trim(a):
        q = a[-1] / b[-1]
        d = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + d] -= q * c
        _trim(a)
    return a


def _fgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    _trim(a)
    _trim(b)
    while b:
        a, b = b, _frem(a, b)
        _trim(b)
    return a


def _fdivexact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Exact quotient a / b; remainder must vanish."""
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        q = a[-1] / b[-1]
        d = len(a) - len(b)
        out[d] = q
        for i, c in enumerate(b):
            a[i + d] -= q * c
        _trim(a)
    if _trim(a):
        raise ArithmeticError("division was not exact")
    return out


def _squarefree(ip: list[int]) -> list[int]:
    """Square-free part p/gcd(p, p') with integer primitive coefficients."""
    if len(ip) <= 2:
        return ip
    fa = [Fraction(c) for c in ip]
    g = _fgcd(fa, [Fraction(c) for c in _ideriv(ip)])
    if len(g) <= 1:
        return ip
    return _int_scaled(_fdivexact(fa, g))


def _sturm_chain(ip: list[int]) -> list[list[int]]:
    chain = [ip, _int_scaled([Fraction(c) for c in _ideriv(ip)])]
    while len(chain[-1]) > 0:
        fa = [Fraction(c) for c in chain[-2]]
        fb = [Fraction(c) for c in chain[-1]]
        r = _frem(fa, fb)
        if not r:
            break
        chain.append(_int_scaled([-c for c in r]))
        if len(chain[-1]) == 1:
            break
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = horner(q, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(ip: list[int]) -> Fraction:
    lead = abs(ip[-1])
    rest = max((abs(c) for c in ip[:-1]), default=0)
    return Fraction(rest, lead) + 1


def _simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The smallest-denominator rational in the open interval (a, b)."""
    if not a < b:
        raise ValueError("empty interval")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -_simplest_between(-b, -a)
    # 0 <= a < b from here on
    ia = a.numerator // a.denominator  # floor(a)
    if ia + 1 < b:
        return Fraction(ia + 1)  # a < floor(a)+1 always, so it lies inside
    if a == ia:
        # interval (n, n + w) with w <= 1: simplest is n + 1/k, minimal k
        k = (b - a) ** -1
        return a + Fraction(1, k.numerator // k.denominator + 1)
    # strictly inside (ia, ia+1): descend via the continued-fraction step
    inner = _simplest_between((b - ia) ** -1, (a - ia) ** -1)
    return ia + 1 / inner


# ---------------------------------------------------------------------------
# root isolation

@dataclass(frozen=True)
class RootInterval:
    """One real root, either exactly (rational) or bracketed in [low, high]."""
    low: Fraction
    high: Fraction
    exact: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.exact is not None:
            if self.low != self.exact or self.high != self.exact:
                raise ValueError("exact root must collapse the interval")
        elif not self.low < self.high:
            raise ValueError("empty interval")

    @property
    def midpoint(self) -> Fraction:
        if self.exact is not None:
            return self.exact
        return (self.low + self.high) / 2

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def isolate_real_roots(p: BiPoly) -> list[RootInterval]:
    """Isolate every distinct real root of a univariate polynomial.

    Rational roots come back exact; irrational ones come back as rational
    brackets each holding exactly one root.  Results are sorted ascending.
    """
    if not p:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    coeffs = uni_coeffs(p)
    if len(coeffs) == 1:
        return []
    out = _isolate_squarefree(_squarefree(_int_scaled(coeffs)))
    out.sort(key=lambda iv: iv.midpoint)
    return out


def _isolate_squarefree(ip: list[int]) -> list[RootInterval]:
    if len(ip) == 2:
        r = Fraction(-ip[0], ip[1])
        return [RootInterval(r, r, r)]
    chain = _sturm_chain(ip)
    bound = _cauchy_bound(ip)
    lo, hi = -bound, bound  # strict bound: p(+-bound) != 0

    def var(x: Fraction) -> int:
        return _variations(chain, x)

    brackets: list[tuple[Fraction, Fraction]] = []
    exacts: list[Fraction] = []
    stack = [(lo, hi, var(lo) - var(hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            brackets.append((a, b))
            continue
        m = (a + b) / 2
        if horner(ip, m) == 0:
            exacts.append(m)
            # carve out a punctured neighbourhood containing only this root
            d = (b - a) / 4
            while horner(ip, m - d) == 0 or horner(ip, m + d) == 0 \
                    or var(m - d) - var(m + d) != 1:
                d /= 2
            va, vl = var(a), var(m - d)
            vr, vb = var(m + d), var(b)
            stack.append((a, m - d, va - vl))
            stack.append((m + d, b, vr - vb))
        else:
            vm = var(m)
            stack.append((a, m, var(a) - vm))
            stack.append((m, b, vm - var(b)))

    out = [RootInterval(r, r, r) for r in exacts]
    lc2 = ip[-1] * ip[-1]
    for a, b in brackets:
        iv = _identify_or_bracket(ip, a, b, lc2)
        out.append(iv)
    return out


def _identify_or_bracket(ip: list[int], a: Fraction, b: Fraction, lc2: int) -> RootInterval:
    """Shrink (a, b) below 1/lc^2 and test the simplest rational inside.

    Any rational root of a primitive integer polynomial has denominator
    dividing the leading coefficient, and two such rationals differ by at
    least 1/lc^2; a bracket narrower than that holds at most one candidate,
    the simplest rational in it.
    """
    iv = _bisect(ip, a, b, lambda w: w * lc2 >= 1)
    if iv.exact is None:
        cand = _simplest_between(iv.low, iv.high)
        if horner(ip, cand) == 0:
            return RootInterval(cand, cand, cand)
    return iv


def _bisect(ip: list[int], a: Fraction, b: Fraction,
            wide: Callable[[Fraction], bool]) -> RootInterval:
    """Halve [a, b], which brackets one sign change of ip, while wide(b - a);
    a midpoint that is a root comes back exact."""
    positive_at_a = horner(ip, a) > 0
    while wide(b - a):
        m = (a + b) / 2
        v = horner(ip, m)
        if v == 0:
            return RootInterval(m, m, m)
        if (v > 0) == positive_at_a:
            a = m
        else:
            b = m
    return RootInterval(a, b)


def refine_root(p: BiPoly, iv: RootInterval, tol: RatLike) -> Fraction:
    """Bisect an isolating interval to width <= tol; return the midpoint.

    Exact roots are returned unchanged, and a bracket that shrinks onto a
    rational root collapses to it exactly.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if iv.exact is not None:
        return iv.exact
    if not p:
        raise ZeroPolynomial("cannot refine a root of the zero polynomial")
    ip = _squarefree(_int_scaled(uni_coeffs(p)))
    for end in (iv.low, iv.high):
        if horner(ip, end) == 0:
            return end
    lc2 = ip[-1] * ip[-1]
    # bisect to tol, testing the one rational candidate as soon as the
    # bracket is narrower than 1/lc^2 (see _identify_or_bracket)
    iv = _bisect(ip, iv.low, iv.high, lambda w: w > tol and w * lc2 >= 1)
    if iv.exact is None and iv.width * lc2 < 1:
        cand = _simplest_between(iv.low, iv.high)
        if horner(ip, cand) == 0:
            return cand
        iv = _bisect(ip, iv.low, iv.high, lambda w: w > tol)
    return iv.midpoint


def uni_reduce(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Cancel the polynomial gcd from a rational function's coefficient lists."""
    num = _trim(list(num))
    den = _trim(list(den))
    if not den:
        raise ZeroPolynomial("zero denominator")
    if not num:
        return [], [Fraction(1)]  # zero function: no spurious denominator roots
    g = _fgcd(num, den)
    if len(g) > 1:
        num = _fdivexact(num, g)
        den = _fdivexact(den, g)
    return num, den


def sturm_count(p: BiPoly) -> int:
    """Number of distinct real roots over the whole line."""
    if not p:
        raise ZeroPolynomial("zero polynomial")
    coeffs = uni_coeffs(p)
    if len(coeffs) == 1:
        return 0
    ip = _squarefree(_int_scaled(coeffs))
    if len(ip) == 2:
        return 1
    chain = _sturm_chain(ip)
    bound = _cauchy_bound(ip)
    return _variations(chain, -bound) - _variations(chain, bound)


# ---------------------------------------------------------------------------
# evaluation and quadrature shared with the floating-point layers

def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficients `coeffs`.

    Exact when x and the coefficients are rational; with floats it performs
    the float operations of the textbook loop, in the same order.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                     tol: float, depth: int = 50) -> float:
    """Integral of fn over [a, b] to about tol, by recursive Simpson
    bisection with the Richardson correction."""
    m = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(m), fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(fn, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_rec(fn: Callable[[float], float], a: float, b: float,
                 fa: float, fm: float, fb: float, whole: float,
                 tol: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(fn, a, m, fa, flm, fm, left, tol / 2, depth - 1)
            + _simpson_rec(fn, m, b, fm, frm, fb, right, tol / 2, depth - 1))
