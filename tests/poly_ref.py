"""Pointwise evaluation of a bivariate polynomial: the tests' reference for
the exact arithmetic, restriction and substitution of `exactalg`."""
from fractions import Fraction

from aimosc.exactalg import BiPoly, RatLike


def poly_eval(p: BiPoly, tau: RatLike, e: RatLike) -> Fraction:
    """Exact value of p at a rational point (tau, E)."""
    t = Fraction(tau)
    w = Fraction(e)
    total = Fraction(0)
    for (dt, de), c in p.items():
        total += c * t ** dt * w ** de
    return total
