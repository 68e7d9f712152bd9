"""Exact polynomial layer: ring laws, calculus rules, root isolation."""
import pytest
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from aimosc.exactalg import (
    RootInterval,
    _idivexact,
    _primitive,
    _squarefree,
    horner,
    isolate_real_roots,
    poly_add,
    poly_diff_tau,
    poly_eval,
    poly_mul,
    poly_new,
    poly_scale,
    poly_restrict,
    poly_sub,
    refine_root,
    uni_coeffs,
    uni_reduce,
)
from sturm_ref import sturm_count

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


def list_mul(a, b):
    """Product of ascending coefficient lists, by the schoolbook rule."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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

    @given(bipolys(), rationals, rationals, st.integers(0, 1),
           st.integers(0, 3))
    @settings(max_examples=60)
    def test_substitute_scales_the_value(self, p, tau, e, var, extra):
        # b^top p(value, .), read at the other symbol, is b^top p at the
        # point; a monomial restricted alongside p raises the shared top
        value = (tau, e)[var]
        top = max((key[var] for key in p), default=0) + extra
        pad = {(top, 0) if var == 0 else (0, top): F(1)}
        row, pad_row = poly_restrict((p, pad), var, value)
        other = (e, tau)[var]
        want = value.denominator ** top * poly_eval(p, tau, e)
        assert horner(row, other) == want
        assert row == [] or row[-1] != 0
        assert horner(pad_row, other) == value.numerator ** top

    def test_substitute_keeps_integers(self):
        p = {(0, 0): 3, (1, 2): -5, (2, 1): 7}
        for var in (0, 1):
            row, = poly_restrict((p,), var, F(2, 3))
            assert all(type(c) is int for c in row)

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

    @given(st.integers(1, 10 ** 40), st.sampled_from([1, -1]),
           st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 6),
           st.integers(1, 50))
    @example(7, -1, 0, 3, 1)
    @example(10 ** 40, 1, -(10 ** 40) + 1, 10 ** 6, 49)
    @settings(max_examples=60, deadline=None)
    def test_linear_root_is_read_directly(self, a, sign, b, g, den):
        # g*(sign*a x + b)/den: non-primitive, any sign, maybe b = 0
        p = poly_new({(0, 1): F(g * sign * a, den), (0, 0): F(g * b, den)})
        r = F(-b, sign * a)
        assert isolate_real_roots(p) == [RootInterval(r, r, r)]
        assert sturm_count(p) == 1

    @given(st.integers(-10 ** 6, 10 ** 6).filter(bool),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 9))
    @example(1, 0, 2)
    @settings(max_examples=40, deadline=None)
    def test_linear_factor_of_a_product_keeps_every_root(self, a, b, c):
        # (a x + b)(x^2 - c) still goes through the continued fractions
        lin = poly_new({(0, 1): a, (0, 0): b})
        p = poly_mul(lin, poly_new({(0, 2): 1, (0, 0): -c}))
        r = F(-b, a)
        ivs = isolate_real_roots(p)
        rational = {F(s) for s in (-3, -2, -1, 1, 2, 3) if s * s == c}
        want_exact = sorted({r} | rational)
        assert [iv.exact for iv in ivs if iv.exact is not None] == want_exact
        irrational = [iv for iv in ivs if iv.exact is None]
        assert len(irrational) == (0 if rational else 2)
        for iv in irrational:
            assert (iv.low ** 2 - c) * (iv.high ** 2 - c) < 0
        assert sturm_count(p) == len(ivs)

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

    @given(st.lists(st.one_of(st.just(F(0)), st.integers(-5, 5).map(F),
                              st.fractions(min_value=-3, max_value=3,
                                           max_denominator=10 ** 9)),
                    max_size=4),
           st.data(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_isolator_invariants(self, planted, data, cube_root):
        # planted rationals (repeats allowed) times (x - c)^2 - m, whose
        # irrational roots c +- sqrt(m) sit close to c, and maybe x^3 - 2
        c = data.draw(st.sampled_from(planted) if planted and data.draw(
            st.booleans()) else st.fractions(min_value=-3, max_value=3,
                                             max_denominator=10 ** 6))
        m = data.draw(st.sampled_from([F(2), F(3, 7), F(2, 10 ** 12)]))
        quad = poly_new({(0, 2): 1, (0, 1): -2 * c, (0, 0): c * c - m})
        sqfree = poly_mul(poly_from_roots(set(planted)), quad)
        p = poly_mul(poly_from_roots(planted), quad)
        if cube_root:
            cubic = poly_new({(0, 3): 1, (0, 0): -2})
            sqfree, p = poly_mul(sqfree, cubic), poly_mul(p, cubic)
        ivs = isolate_real_roots(p)
        assert [iv.exact for iv in ivs if iv.exact is not None] \
            == sorted(set(planted))
        brackets = [iv for iv in ivs if iv.exact is None]
        assert len(brackets) == 2 + cube_root
        assert len(ivs) == sturm_count(p)
        for left, right in zip(ivs, ivs[1:]):
            assert left.high <= right.low
        for iv in brackets:
            lo, hi = poly_eval(sqfree, 0, iv.low), poly_eval(sqfree, 0, iv.high)
            assert lo * hi < 0  # nonzero ends of opposite sign
            tol = (iv.high - iv.low) / 1000
            mid = refine_root(p, iv, tol)
            assert iv.low < mid < iv.high
            assert poly_eval(sqfree, 0, max(iv.low, mid - tol)) \
                * poly_eval(sqfree, 0, min(iv.high, mid + tol)) < 0

    def test_repeated_roots_reported_once(self):
        p = poly_from_roots([2, 2, 2, -1])
        assert [iv.exact for iv in isolate_real_roots(p)] == [F(-1), F(2)]

    def test_rootless_and_constant(self):
        assert isolate_real_roots(poly_new({(0, 2): 1, (0, 0): 1})) == []
        assert isolate_real_roots(poly_new({(0, 0): 5})) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="cannot isolate roots of the "
                                             "zero polynomial"):
            isolate_real_roots(poly_new({}))

    def test_bivariate_rejected(self):
        with pytest.raises(ValueError):
            isolate_real_roots(poly_new({(1, 1): 1}))

    @pytest.mark.parametrize("terms", [{(1, 0): 1}, {(2, 0): 3, (0, 0): -1},
                                       {(1, 0): 1, (0, 2): 1}])
    def test_polynomial_in_tau_rejected(self, terms):
        # the coefficient lists are in E alone: tau, alone or with E, is
        # refused, and a constant is a polynomial in E of degree 0
        with pytest.raises(ValueError, match="not univariate in E"):
            uni_coeffs(poly_new(terms))
        assert uni_coeffs(poly_new({(0, 0): 5})) == [5]


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
                    min_size=1, max_size=4, unique=True),
           st.sampled_from([1, -1]), st.integers(0, 5))
    @example([F(0)], -1, 1)
    @settings(max_examples=40, deadline=None)
    def test_count_matches_isolation(self, roots, sign, c):
        # a negative leading coefficient, and maybe a root-free x^2 + c,
        # which the chain's pseudo-remainders must not flip; in the example,
        # -x^3 - x by -3x^2 - 1, the remainder has no x^2 term, so the
        # pseudo-remainder takes one step by a negative leading coefficient
        p = poly_scale(poly_from_roots(roots), sign)
        if c:
            p = poly_mul(p, poly_new({(0, 2): 1, (0, 0): c}))
        assert sturm_count(p) == len(isolate_real_roots(p)) == len(roots)


class TestSquarefree:
    @given(st.lists(st.fractions(min_value=-5, max_value=5,
                                 max_denominator=10 ** 9),
                    max_size=3, unique=True),
           st.integers(1, 50), st.booleans(),
           st.lists(st.integers(1, 3), min_size=5, max_size=5),
           st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_planted_factors(self, roots, c, cube_root, mults, sign):
        # distinct primitive factors q x - p, x^2 + c and maybe x^3 - 2,
        # raised to multiplicities 1..3: the square-free part is their
        # product, whatever the gcd inside _squarefree does
        factors = [[-r.numerator, r.denominator] for r in roots]
        factors += [[c, 0, 1]] + ([[-2, 0, 0, 1]] if cube_root else [])
        p, sqfree = [sign], [1]
        for f, m in zip(factors, mults):
            sqfree = list_mul(sqfree, f)
            for _ in range(m):
                p = list_mul(p, f)
        sqfree = _primitive(sqfree)
        assert _squarefree(p) in (sqfree, [-x for x in sqfree])
        assert list_mul(_idivexact(p, factors[0]), factors[0]) == p
        with pytest.raises(ArithmeticError):
            _idivexact(p, [2 * c + 1, 0, 2])  # irreducible, no factor of p


class TestRootInterval:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            RootInterval(low=F(2), high=F(1))

    def test_exact_must_lie_inside(self):
        with pytest.raises(ValueError):
            RootInterval(low=F(0), high=F(1), exact=F(3))

    def test_width_and_midpoint(self):
        iv = RootInterval(low=F(0), high=F(1, 2))
        assert iv.midpoint == F(1, 4)


class TestUniReduce:
    def test_cancels_common_factor(self):
        # (E-1)(E-2) / (E-1)(E-3) -> (E-2)/(E-3)
        num = uni_coeffs(poly_from_roots([1, 2]))
        den = uni_coeffs(poly_from_roots([1, 3]))
        rn, rd = uni_reduce(num, den)
        assert rn == uni_coeffs(poly_from_roots([2]))
        assert rd == uni_coeffs(poly_from_roots([3]))

    @given(st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=20),
                    min_size=1, max_size=5, unique=True),
           st.lists(st.fractions(min_value=-4, max_value=4,
                                 max_denominator=20), min_size=1, max_size=3),
           st.lists(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=30).filter(
                                     lambda q: q.denominator > 1),
                    min_size=2, max_size=2),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_cancels_planted_common_factor(self, roots, g_roots, scales,
                                           data):
        # a and b coprime (disjoint roots, x^2 + 1 in b only), times g
        split = data.draw(st.integers(0, len(roots)))
        a = poly_scale(poly_from_roots(roots[:split]), scales[0])
        b = poly_scale(poly_mul(poly_from_roots(roots[split:]),
                                poly_new({(0, 2): 1, (0, 0): 1})), scales[1])
        g = poly_from_roots(g_roots)
        rn, rd = uni_reduce(uni_coeffs(poly_mul(a, g)),
                            uni_coeffs(poly_mul(b, g)))
        a, b = uni_coeffs(a), uni_coeffs(b)
        assert list_mul(rn, b) == list_mul(rd, a)  # same ratio as a / b
        assert len(rd) == len(b)

    def test_zero_numerator_normalizes(self):
        den = uni_coeffs(poly_from_roots([1, 3]))
        assert uni_reduce([], den) == ([], [F(1)])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            uni_reduce([F(1)], [])
