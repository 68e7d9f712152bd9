"""Exact polynomial layer: ring laws, calculus rules, root isolation."""
import pytest
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from aimosc.exactalg import (
    RootInterval,
    ZeroPolynomial,
    isolate_real_roots,
    poly_add,
    poly_diff_tau,
    poly_eval,
    poly_mul,
    poly_new,
    poly_sub,
    refine_root,
    sturm_count,
    uni_coeffs,
    uni_reduce,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50)


@st.composite
def bipolys(draw, max_terms=6, max_deg=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        terms[key] = draw(rationals)
    return poly_new(terms)


def poly_from_roots(roots):
    acc = poly_new({(0, 0): 1})
    for r in roots:
        acc = poly_mul(acc, poly_new({(0, 1): 1, (0, 0): -F(r)}))
    return acc


class TestRingLaws:
    @given(bipolys(), bipolys())
    def test_add_commutes(self, p, q):
        assert poly_add(p, q) == poly_add(q, p)

    @given(bipolys(), bipolys(), bipolys())
    @settings(max_examples=60)
    def test_mul_distributes(self, p, q, r):
        left = poly_mul(p, poly_add(q, r))
        right = poly_add(poly_mul(p, q), poly_mul(p, r))
        assert left == right

    @given(bipolys(), bipolys())
    def test_sub_then_add_roundtrips(self, p, q):
        assert poly_add(poly_sub(p, q), q) == p

    @given(bipolys(), bipolys(), rationals, rationals)
    @settings(max_examples=60)
    def test_eval_is_ring_homomorphism(self, p, q, tau, e):
        pe, qe = poly_eval(p, tau, e), poly_eval(q, tau, e)
        assert poly_eval(poly_mul(p, q), tau, e) == pe * qe
        assert poly_eval(poly_add(p, q), tau, e) == pe + qe

    @given(bipolys(), bipolys())
    @settings(max_examples=60)
    def test_diff_product_rule(self, p, q):
        lhs = poly_diff_tau(poly_mul(p, q))
        rhs = poly_add(poly_mul(poly_diff_tau(p), q),
                       poly_mul(p, poly_diff_tau(q)))
        assert lhs == rhs


class TestIsolation:
    @given(st.lists(st.fractions(min_value=-8, max_value=8,
                                 max_denominator=12),
                    min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_recovers_planted_rationals(self, roots):
        found = isolate_real_roots(poly_from_roots(roots))
        assert [iv.exact for iv in found] == sorted(roots)

    def test_close_pair(self):
        p = poly_from_roots([F(1, 1000), F(1, 1001)])
        assert [iv.exact for iv in isolate_real_roots(p)] \
            == [F(1, 1001), F(1, 1000)]

    def test_root_at_a_bisection_midpoint(self):
        # 3/7 sits where naive midpoint splitting once lost it
        p = poly_from_roots([F(3, 7), F(-2), F(5)])
        assert F(3, 7) in [iv.exact for iv in isolate_real_roots(p)]

    def test_irrational_roots_bracketed(self):
        p = poly_new({(0, 2): 1, (0, 0): -2})
        ivs = isolate_real_roots(p)
        assert len(ivs) == 2 and all(iv.exact is None for iv in ivs)
        assert ivs[0].high < 0 < ivs[1].low
        for iv in ivs:
            assert poly_eval(p, 0, iv.low) * poly_eval(p, 0, iv.high) < 0

    def test_mixed_exact_and_irrational(self):
        p = poly_mul(poly_new({(0, 2): 1, (0, 0): -2}),
                     poly_from_roots([1]))
        ivs = isolate_real_roots(p)
        assert [iv.exact for iv in ivs] == [None, F(1), None]

    @given(st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=10 ** 9).filter(
                                     lambda r: r.denominator > 10 ** 6),
                    min_size=1, max_size=3, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_large_denominator_rationals_with_irrationals(self, roots):
        # denominators past any divisor-screening range, times x^2 - 2
        p = poly_mul(poly_from_roots(roots),
                     poly_new({(0, 2): 1, (0, 0): -2}))
        ivs = isolate_real_roots(p)
        assert sorted(iv.exact for iv in ivs if iv.exact is not None) \
            == sorted(roots)
        brackets = [iv for iv in ivs if iv.exact is None]
        assert len(brackets) == 2
        assert brackets[0].high < 0 < brackets[1].low
        for iv in brackets:  # each holds one of -sqrt(2), sqrt(2)
            assert (iv.low ** 2 - 2) * (iv.high ** 2 - 2) < 0
            assert poly_eval(p, 0, iv.low) * poly_eval(p, 0, iv.high) < 0
        assert len(ivs) == sturm_count(p)

    def test_repeated_roots_reported_once(self):
        p = poly_from_roots([2, 2, 2, -1])
        assert [iv.exact for iv in isolate_real_roots(p)] == [F(-1), F(2)]

    def test_rootless_and_constant(self):
        assert isolate_real_roots(poly_new({(0, 2): 1, (0, 0): 1})) == []
        assert isolate_real_roots(poly_new({(0, 0): 5})) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_real_roots(poly_new({}))

    def test_bivariate_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(poly_new({(1, 1): 1}))


class TestRefine:
    def test_exact_interval_unchanged(self):
        p = poly_from_roots([1])
        iv = isolate_real_roots(p)[0]
        assert iv.exact == F(1)
        assert refine_root(p, iv, F(1, 10 ** 9)) == F(1)

    def test_irrational_refined_to_width(self):
        p = poly_new({(0, 2): 1, (0, 0): -2})
        iv = [v for v in isolate_real_roots(p) if v.low > 0][0]
        mid = refine_root(p, iv, F(1, 10 ** 12))
        assert abs(float(mid) - 2 ** 0.5) < 1e-11

    def test_refine_lands_on_exact_root(self):
        # bisection midpoint hits the root exactly for a dyadic root
        p = poly_from_roots([F(1, 2), 3])
        iv = [v for v in isolate_real_roots(p) if v.exact == F(1, 2)][0]
        assert refine_root(p, iv, F(1, 100)) == F(1, 2)


class TestSturmCount:
    def test_counts_distinct_real_roots(self):
        p = poly_mul(poly_new({(0, 2): 1, (0, 0): -2}),
                     poly_from_roots([1]))
        assert sturm_count(p) == 3
        assert sturm_count(poly_new({(0, 2): 1, (0, 0): 1})) == 0
        assert sturm_count(poly_from_roots([2, 2, 5])) == 2

    @given(st.lists(st.fractions(min_value=-6, max_value=6,
                                 max_denominator=8),
                    min_size=1, max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_count_matches_isolation(self, roots):
        p = poly_from_roots(roots)
        assert sturm_count(p) == len(isolate_real_roots(p)) == len(roots)


class TestRootInterval:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            RootInterval(low=F(2), high=F(1))

    def test_exact_must_lie_inside(self):
        with pytest.raises(ValueError):
            RootInterval(low=F(0), high=F(1), exact=F(3))

    def test_width_and_midpoint(self):
        iv = RootInterval(low=F(0), high=F(1, 2))
        assert iv.width == F(1, 2) and iv.midpoint == F(1, 4)


class TestUniReduce:
    def test_cancels_common_factor(self):
        # (E-1)(E-2) / (E-1)(E-3) -> (E-2)/(E-3)
        num = uni_coeffs(poly_from_roots([1, 2]))
        den = uni_coeffs(poly_from_roots([1, 3]))
        rn, rd = uni_reduce(num, den)
        assert rn == uni_coeffs(poly_from_roots([2]))
        assert rd == uni_coeffs(poly_from_roots([3]))

    def test_zero_numerator_normalizes(self):
        den = uni_coeffs(poly_from_roots([1, 3]))
        assert uni_reduce([], den) == ([], [F(1)])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroPolynomial):
            uni_reduce([F(1)], [])
