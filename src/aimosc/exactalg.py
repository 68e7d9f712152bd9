"""Exact bivariate polynomial arithmetic and real-root isolation.

Polynomials in the two symbols tau (scaled time) and E (scaled energy) are
sparse maps from exponent pairs to rational coefficients.  `poly_restrict`
sets one symbol to a rational value and yields coefficient lists in the
other, integer for integer input.  A univariate polynomial is cleared of
denominators into a primitive integer coefficient list, and its gcds,
remainders and exact quotients stay in integers (the primitive remainder
sequence), as does root finding: a linear square-free part gives its root
directly, and otherwise the continued-fraction form of Descartes' method
isolates every real root, hitting each rational root exactly and returning
each irrational one as a rational bracket whose ends are not roots;
`refine_root` narrows such a bracket by exact bisection.

`horner`, the package's one polynomial evaluator (exact on rationals, plain
floating point on floats), also lives here for the other layers.  No
quadrature is left in the package: eigenfunctions are normalized from exact
moment ratios.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

BiPoly = Dict[Tuple[int, int], Fraction]

RatLike = int | Fraction | str


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
    """Exact value of p at a rational point (tau, E); the tests' reference
    evaluator."""
    t = Fraction(tau)
    w = Fraction(e)
    total = Fraction(0)
    for (dt, de), c in p.items():
        total += c * t ** dt * w ** de
    return total


def poly_restrict(polys: Sequence[BiPoly], var: int, value: RatLike) -> list[list]:
    """Each of polys with tau (var 0) or E (var 1) set to value = a/b, as an
    ascending coefficient list in the other symbol; the zero polynomial
    gives [].

    Every list carries one factor b^top, top the largest degree of polys in
    the substituted symbol, so integer coefficients stay integers and no
    rational arithmetic is done.  The positive factor changes no root or
    sign, and it cancels from a ratio of two lists restricted together.
    """
    v = Fraction(value)
    a, b = v.numerator, v.denominator
    keep = 1 - var
    top = max([key[var] for p in polys for key in p], default=0)
    pw = [a ** i * b ** (top - i) for i in range(top + 1)]
    rows = []
    for p in polys:
        row = [0] * (max([key[keep] for key in p], default=-1) + 1)
        for key, c in p.items():
            row[key[keep]] += c * pw[key[var]]
        rows.append(_trim(row))
    return rows


# ---------------------------------------------------------------------------
# univariate restriction

def uni_coeffs(p: BiPoly) -> list[Fraction]:
    """Ascending coefficient list of a nonzero polynomial in E alone; the
    list of an integer polynomial is integer.  ValueError on the zero
    polynomial and on one in which tau is present."""
    if not p:
        raise ValueError("zero polynomial has no coefficient list")
    if any(dt for dt, _ in p):
        raise ValueError("polynomial is not univariate in E")
    out = [0] * (max(de for _, de in p) + 1)
    for (_, de), c in p.items():
        out[de] = c
    return out


# ---------------------------------------------------------------------------
# integer-coefficient helpers (internal)

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _int_scaled(coeffs: Iterable[Fraction]) -> list[int]:
    """Clear denominators and divide by content; sign of the input is kept."""
    cs = list(coeffs)
    # a list, not a generator: CPython builds the argument tuple from a
    # generator by resizing it, and each such tuple then joins the free
    # list of its final size, so the heap grows call after call
    den = lcm(*[c.denominator for c in cs])
    return _primitive([c.numerator * (den // c.denominator) for c in cs])


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content gcd(*p) >= 0; the sign is kept."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _ideriv(p: list) -> list:
    """Ascending coefficients of the derivative."""
    return [i * c for i, c in enumerate(p)][1:]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder of a by b (b trimmed, nonzero): each step
    scales by |lc(b)|, so the result is a positive multiple of the
    remainder over the rationals and keeps its signs."""
    a = list(a)
    m = abs(b[-1])
    while len(a) >= len(b) and _trim(a):
        q = a[-1] if b[-1] > 0 else -a[-1]
        d = len(a) - len(b)
        a = [m * c for c in a]
        for i, c in enumerate(b):
            a[i + d] -= q * c
        _trim(a)
    return a


def _igcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of trimmed integer polynomials, up to sign, by the
    primitive remainder sequence (Collins 1967; Brown 1971)."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def _idivexact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b of integer polynomials.  For primitive b it is
    integral whenever b divides a (Gauss's lemma); ArithmeticError when a
    remainder is left."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        q, r = divmod(a[-1], b[-1])
        if r:
            break
        d = len(a) - len(b)
        out[d] = q
        for i, c in enumerate(b):
            a[i + d] -= q * c
        _trim(a)
    if _trim(a):
        raise ArithmeticError("division was not exact")
    return out


def _squarefree(ip: list[int]) -> list[int]:
    """Square-free part p/gcd(p, p'), up to sign, with integer primitive
    coefficients."""
    return _primitive(_idivexact(ip, _igcd(ip, _ideriv(ip))))


# ---------------------------------------------------------------------------
# root isolation

class _RootIntervalFields(NamedTuple):
    low: Fraction
    high: Fraction
    exact: Optional[Fraction] = None


class RootInterval(_RootIntervalFields):
    """One real root, either exactly (rational) or bracketed in [low, high]."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __init__(self, *args, **kwargs) -> None:
        if self.exact is not None:
            if self.low != self.exact or self.high != self.exact:
                raise ValueError("exact root must collapse the interval")
        elif not self.low < self.high:
            raise ValueError("empty interval")

    @property
    def midpoint(self) -> Fraction:  # exact roots have low = high = exact
        return (self.low + self.high) / 2


def isolate_real_roots(p: BiPoly) -> list[RootInterval]:
    """Isolate every distinct real root of a polynomial in E.

    Rational roots come back exact; irrational ones come back as rational
    brackets each holding exactly one root, with endpoints that are not
    roots.  Results are sorted ascending.  A square-free part c0 + c1 x has
    the one root -c0/c1, returned without the continued-fraction descent.
    `bench/tracing.py` wraps it by name and reads p as a BiPoly dict.
    """
    if not p:
        raise ValueError("cannot isolate roots of the zero polynomial")
    coeffs = uni_coeffs(p)
    if len(coeffs) == 1:
        return []
    ip = _squarefree(_int_scaled(coeffs))
    if len(ip) == 2:
        r = Fraction(-ip[0], ip[1])
        return [RootInterval(r, r, r)]
    out = []
    for sign in (1, -1):
        q = [c * sign ** i for i, c in enumerate(ip)]
        if sign < 0 and q[0] == 0:
            q = q[1:]  # the root 0 is found once, on p(x)
        out += _half_line_roots(q, abs(ip[-1]), sign)
    out.sort(key=lambda iv: iv.midpoint)
    return out


def _half_line_roots(q: list[int], lc: int, sign: int) -> list[RootInterval]:
    """Roots x >= 0 of the square-free integer polynomial q, returned as
    roots sign * x of p, by continued fractions.

    Each node holds integer coefficients and the Moebius map
    x -> (a x + b)/(c x + d) that takes its positive half-line onto the
    open interval between the Farey neighbours b/d and a/c.  A rational
    root of p has a denominator dividing lc, while every rational strictly
    between b/d and a/c has denominator at least c + d; so a node with one
    sign change and c, d > lc brackets one irrational root between two
    non-roots.  Rational roots reach the point x = 0 of some node exactly.
    """
    out = []
    stack = [(q, 1, 0, 0, 1)]
    while stack:
        q, a, b, c, d = stack.pop()
        if q[0] == 0:  # x = 0, the point b/d, is a root
            r = Fraction(sign * b, d)
            out.append(RootInterval(r, r, r))
            q = q[1:]
        changes = _sign_changes(q)
        if changes == 0:
            continue
        if changes == 1 and c > lc and d > lc:
            lo, hi = sorted((Fraction(sign * b, d), Fraction(sign * a, c)))
            out.append(RootInterval(lo, hi))
            continue
        s = _positive_root_floor(q)
        if s:
            stack.append((_taylor_shift(q, s), a, a * s + b, c, c * s + d))
            continue
        stack.append((_taylor_shift(q, 1), a, a + b, c, c + d))
        q = _taylor_shift(q[::-1], 1)  # x -> 1/(x + 1)
        if q[0] == 0:
            q = q[1:]  # x = 1 again, found by the other branch
        stack.append((q, b, a + b, d, c + d))
    return out


def _sign_changes(q: list) -> int:
    """Sign changes along q, zeros skipped; on coefficients, Descartes'
    bound on the number of positive roots."""
    signs = [c > 0 for c in q if c]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def _positive_root_floor(q: list[int]) -> int:
    """A power of two s >= 1 below every positive root of q, or 0.

    Kioustelidis' bound on the reversed polynomial puts every positive root
    above min_k (|q_0| / |q_k|)^(1/k) / 2 over the q_k of sign opposite to
    q_0 != 0; bit lengths give a power of two beneath it.
    """
    l0 = abs(q[0]).bit_length()
    e = min((l0 - 1 - abs(c).bit_length()) // k
            for k, c in enumerate(q) if c and (c > 0) != (q[0] > 0)) - 1
    return 1 << e if e >= 0 else 0


def _taylor_shift(q: list[int], s: int) -> list[int]:
    """Ascending coefficients of q(x + s)."""
    q = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += s * q[j + 1]
    return q


def refine_root(p: BiPoly, iv: RootInterval, tol: RatLike) -> Fraction:
    """Bisect a bracket from `isolate_real_roots` to width <= tol and
    return its midpoint; an exact root is returned unchanged.

    The bracket must hold one irrational root of p and have endpoints that
    are not roots, as every bracket `isolate_real_roots` returns does, so
    no midpoint is a root and the sign test alone keeps the root inside.
    No CLI path calls it; `bench/tracing.py` wraps it by name on `aim_core`.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if iv.exact is not None:
        return iv.exact
    if not p:
        raise ValueError("cannot refine a root of the zero polynomial")
    ip = _squarefree(_int_scaled(uni_coeffs(p)))
    a, b = iv.low, iv.high
    positive_at_a = horner(ip, a) > 0
    while b - a > tol:
        m = (a + b) / 2
        if (horner(ip, m) > 0) == positive_at_a:
            a = m
        else:
            b = m
    return (a + b) / 2


def uni_reduce(num: list[Fraction], den: list[Fraction]) -> tuple[list[int], list[int]]:
    """Cancel the polynomial gcd from a rational function's coefficient lists.

    Both come back as integer lists on one common scale: the inputs times a
    single positive rational (clearing every denominator and the joint
    content), divided by the same primitive gcd, so their ratio is kept.
    `aim_core.eigenfunction_via_alpha` reads f off alpha with it.
    """
    num = _trim(list(num))
    den = _trim(list(den))
    if not den:
        raise ValueError("zero denominator")
    if not num:
        return [], [1]  # zero function: no spurious denominator roots
    ints = _int_scaled(num + den)
    num, den = ints[:len(num)], ints[len(num):]
    g = _igcd(num, den)
    return _idivexact(num, g), _idivexact(den, g)


# ---------------------------------------------------------------------------
# evaluation shared with the floating-point layers

def horner(coeffs, x):
    """Value at x of the polynomial with ascending coefficients `coeffs`.

    Exact when x and the coefficients are rational; with floats it performs
    the float operations of the textbook loop, in the same order.
    """
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
