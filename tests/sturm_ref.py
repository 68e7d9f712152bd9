"""Sturm-chain root count: the tests' reference for `isolate_real_roots`.

It shares only the square-free step with the isolation it checks.
"""
from aimosc.exactalg import (
    BiPoly,
    _ideriv,
    _int_scaled,
    _prem,
    _primitive,
    _sign_changes,
    _squarefree,
    horner,
    uni_coeffs,
)


def _sturm_chain(ip: list[int]) -> list[list[int]]:
    chain = [ip, _primitive(_ideriv(ip))]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    return chain


def _variations(chain: list[list[int]], x: int) -> int:
    return _sign_changes([horner(q, x) for q in chain])


def _cauchy_bound(ip: list[int]) -> int:
    """An integer above |x| for every root x of ip."""
    rest = max((abs(c) for c in ip[:-1]), default=0)
    return rest // abs(ip[-1]) + 2


def sturm_count(p: BiPoly) -> int:
    """Number of distinct real roots over the whole line."""
    if not p:
        raise ValueError("zero polynomial")
    coeffs = uni_coeffs(p)
    if len(coeffs) == 1:
        return 0
    ip = _squarefree(_int_scaled(coeffs))
    if len(ip) == 2:
        return 1
    chain = _sturm_chain(ip)
    bound = _cauchy_bound(ip)
    return _variations(chain, -bound) - _variations(chain, bound)
