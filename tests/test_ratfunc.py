"""Exact polynomial / rational-function arithmetic over the integers."""

import pytest
from decimal import Decimal
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from conftest import schoolbook_product
from coxgrowth.ratfunc import (Poly, RatFunc, cancel_factors, cyclotomic, cyclotomic_product,
                               format_poly, format_ratfunc, poly_gcd, series_expand,
                               substitute_inverse)


def P(*coeffs):
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_normalization_strips_trailing_zeros():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0, 0).degree == -1
    assert P().coeffs == ()


def test_poly_arithmetic():
    a = P(1, 1)          # 1 + t
    b = P(1, -1)         # 1 - t
    assert a + b == P(2)
    assert a - b == P(0, 2)
    assert a * b == P(1, 0, -1)
    assert -a == P(-1, -1)
    assert a + 1 == P(2, 1)
    assert 2 * a == P(2, 2)


def test_poly_evaluation():
    p = P(1, 2, 3)  # 1 + 2t + 3t^2
    assert p(0) == 1
    assert p(2) == 17 and type(p(2)) is int
    assert p(Fraction(1, 2)) == Fraction(11, 4)


def test_poly_exact_division():
    quotient = P(1, 0, -1).exact_div(P(1, 1))
    assert quotient == P(1, -1)
    with pytest.raises(ValueError, match="not exact"):
        P(1, 0, -1).exact_div(P(1, 2))


def test_poly_gcd():
    a = P(1, 1) * P(1, 0, 1)
    b = P(1, 1) * P(2, 3)
    assert poly_gcd(a, b) == P(1, 1)
    # gcd normalizes the sign of the leading coefficient
    assert poly_gcd(-a, -b) == P(1, 1)
    assert poly_gcd(P(), P(2, 4)) == P(1, 2)


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=5)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_poly_ring_axioms(a, b, c):
    pa, pb, pc = Poly(a), Poly(b), Poly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists)
def test_poly_gcd_divides_both(a, b):
    g = poly_gcd(Poly(a), Poly(b))
    if g.degree >= 0:
        for p in (Poly(a), Poly(b)):
            if p.degree >= 0:
                p.exact_div(g)  # must not raise


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_ratfunc_canonical_reduction():
    r = RatFunc(P(1, 0, -1), P(1, 1))  # (1-t^2)/(1+t) = 1-t
    assert r.num == P(1, -1)
    assert r.den == P(1)
    r = RatFunc(P(2, 2), P(4))
    assert (r.num, r.den) == (P(1, 1), P(2))


def test_ratfunc_sign_convention():
    # lowest-order nonzero denominator coefficient is made positive
    r = RatFunc(P(1), P(-1, 1))
    assert r.den == P(1, -1)
    assert r.num == P(-1)
    r = RatFunc(P(1), P(0, -2, 4))
    assert r.den.coeffs[1] > 0


def test_ratfunc_zero_and_equality():
    assert RatFunc(P(), P(5)) == RatFunc(P(), P(1, 7))
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(1), P())


def test_ratfunc_arithmetic():
    one = RatFunc(P(1), P(1))
    r = one - 2 / RatFunc(P(1, 1), P(1))
    assert r == RatFunc(P(-1, 1), P(1, 1))
    assert r + 1 == RatFunc(P(0, 2), P(1, 1))
    with pytest.raises(ZeroDivisionError):
        one / RatFunc(P(), P(1))


def test_ratfunc_reciprocal_and_call():
    r = RatFunc(P(1, 1), P(1, -1))
    assert r.reciprocal() == RatFunc(P(1, -1), P(1, 1))
    assert r(Fraction(1, 2)) == 3 and type(r(Fraction(1, 2))) is Fraction
    assert r(0) == 1 and type(r(0)) is Fraction


@pytest.mark.parametrize("x", [0.5, 2.0, float("inf"), complex(1, 0), Decimal("0.5")],
                         ids=repr)
def test_exact_evaluation_rejects_inexact_points(x):
    # no float may feed an exact result, not even a whole-number one
    with pytest.raises(TypeError, match="int or a Fraction"):
        P(1, 1)(x)
    with pytest.raises(TypeError, match="int or a Fraction"):
        RatFunc(P(1, 1), P(1, -1))(x)


def rat_strategy():
    nonzero = coeff_lists.filter(lambda c: any(c))
    return st.builds(lambda n, d: RatFunc(Poly(n), Poly(d)), coeff_lists, nonzero)


@given(rat_strategy(), rat_strategy(), rat_strategy())
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == RatFunc(P(), P(1))
    if b.num.degree >= 0:
        assert (a / b) * b == a


def _sympy_canonical(num, den):
    """sympy.cancel of num/den, normalised like RatFunc: integer coefficients
    with coprime contents, lowest-order denominator coefficient positive."""
    sympy = pytest.importorskip("sympy")
    from math import gcd, lcm

    t = sympy.Symbol("t")
    expr = sum(c * t ** k for k, c in enumerate(num)) / sum(c * t ** k for k, c in enumerate(den))
    top, bottom = sympy.fraction(sympy.cancel(expr))
    cs = [[sympy.Rational(c) for c in reversed(sympy.Poly(side, t).all_coeffs())]
          for side in (top, bottom)]
    scale = lcm(*(int(c.q) for side in cs for c in side))
    cs = [[int(c * scale) for c in side] for side in cs]
    content = gcd(*(c for side in cs for c in side))
    cs = [[c // content for c in side] for side in cs]
    if next(c for c in cs[1] if c) < 0:
        cs = [[-c for c in side] for side in cs]
    return tuple(Poly(side).coeffs for side in cs)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists.filter(lambda c: any(c)), coeff_lists.filter(lambda c: any(c)))
def test_canonical_form_matches_sympy_cancel(num, den, common):
    # a shared factor makes cancellation happen on most examples
    n, d = Poly(num) * Poly(common), Poly(den) * Poly(common)
    r = RatFunc(n, d)
    assert (r.num.coeffs, r.den.coeffs) == _sympy_canonical(n.coeffs, d.coeffs)


@given(rat_strategy())
def test_substitute_inverse_is_involutive(r):
    assert substitute_inverse(substitute_inverse(r)) == r


def _substitute_inverse_by_gcd(r):
    """The gcd path: reverse both sides, clear powers of t, reduce in the constructor."""
    if not r.num:
        return RatFunc(0)
    num, den = r.num.reversed(), r.den.reversed()
    if r.den.degree >= r.num.degree:
        num = num.shifted(r.den.degree - r.num.degree)
    else:
        den = den.shifted(r.num.degree - r.den.degree)
    return RatFunc(num, den)


@settings(max_examples=80)
@given(rat_strategy(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_substitute_inverse_matches_gcd_path(r, a, b):
    # powers of t on either side exercise both shifts
    r = r * RatFunc(Poly.t_power(a), Poly.t_power(b))
    assert substitute_inverse(r) == _substitute_inverse_by_gcd(r)


exponent_maps = st.dictionaries(st.integers(min_value=1, max_value=60),
                                st.integers(min_value=0, max_value=4), max_size=8)


@settings(max_examples=120, deadline=None)
@given(exponent_maps)
def test_cyclotomic_product_matches_schoolbook_product(exponents):
    assert cyclotomic_product(exponents) == schoolbook_product(exponents)


def test_cyclotomic_product_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for exponents in ({2: 3, 3: 2, 5: 1}, {1: 3, 6: 2, 10: 1, 15: 1}, {30: 2, 7: 1, 12: 3},
                      {k: k % 3 for k in range(1, 25)}):
        expected = sympy.Integer(1)
        for k, e in exponents.items():
            expected *= sympy.cyclotomic_poly(k, t) ** e
        coeffs = sympy.Poly(sympy.expand(expected), t).all_coeffs()[::-1]
        assert cyclotomic_product(exponents).coeffs == tuple(int(c) for c in coeffs), exponents


@settings(max_examples=80, deadline=None)
@given(coeff_lists,
       st.dictionaries(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=3),
                       max_size=5),
       st.lists(st.integers(min_value=2, max_value=12), max_size=6))
def test_cancel_factors_matches_gcd_reduction(base, exponents, shared):
    # a random polynomial times a random sub-product of L = prod Phi_k^e_k
    # (and possibly further cyclotomic factors), reduced both ways up
    factors = {k: (cyclotomic(k), e) for k, e in sorted(exponents.items())}
    L = schoolbook_product(exponents)
    num = Poly(base)
    for k in shared:
        num = num * cyclotomic(k)
    reduced, rest = cancel_factors(num, factors)
    assert RatFunc.from_coprime(reduced, rest) == RatFunc(num, L)
    if num:
        assert RatFunc.from_coprime(rest, reduced) == RatFunc(L, num)


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for k in range(1, 301):
        expected = sympy.Poly(sympy.cyclotomic_poly(k, t), t).all_coeffs()[::-1]
        assert cyclotomic(k).coeffs == tuple(int(c) for c in expected), k


def test_cyclotomic_of_twice_a_large_prime():
    # Phi_2p(t) = Phi_p(-t) = 1 - t + t^2 - ... + t^(p-1); of the factors
    # 1 - t^d, d = 2p, p, 2, 1, the first two are 1 modulo t^p
    p = 99991
    assert cyclotomic(p).coeffs == (1,) * p
    assert cyclotomic(2 * p).coeffs == (1, -1) * (p // 2) + (1,)


def test_from_coprime_normalises_content_and_sign():
    assert RatFunc.from_coprime(P(2, 4), P(-6, 2)) == RatFunc(P(1, 2), P(-3, 1))
    assert repr(RatFunc.from_coprime(P(2, 4), P(-6, 2))) == "RatFunc((-1, -2), (3, -1))"
    assert RatFunc.from_coprime(P(), P(0, 5)) == RatFunc(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc.from_coprime(P(1), P())


def test_substitute_inverse_examples():
    # W(t) = (1+t)/(1-t)  ->  W(1/t) = -(1+t)/(1-t)
    r = RatFunc(P(1, 1), P(1, -1))
    assert substitute_inverse(r) == RatFunc(P(-1, -1), P(1, -1))
    assert substitute_inverse(RatFunc(P(), P(1))) == RatFunc(P(), P(1))
    # t^2 -> t^-2
    assert substitute_inverse(RatFunc(P(0, 0, 1), P(1))) == RatFunc(P(1), P(0, 0, 1))


# ---------------------------------------------------------------------------
# power series expansion
# ---------------------------------------------------------------------------

def test_series_expand_geometric():
    r = RatFunc(P(1, 1), P(1, -1))
    assert series_expand(r, 4) == [1, 2, 2, 2, 2]


def test_series_expand_polynomial():
    r = RatFunc(P(1, 2, 2, 1), P(1))
    assert series_expand(r, 5) == [1, 2, 2, 1, 0, 0]


def test_series_expand_requires_unit_at_zero():
    with pytest.raises(ValueError, match="denominator vanishes"):
        series_expand(RatFunc(P(1), P(0, 1)), 3)


def test_series_expand_rejects_fraction_at_t0():
    with pytest.raises(ValueError,
                       match=r"series coefficient of t\^0 is not an integer: 1/2$"):
        series_expand(RatFunc(P(1), P(2, -1)), 3)


def _fraction_series(r, n):
    """The first n+1 coefficients of r, expanded in exact Fractions."""
    den = list(r.den.coeffs) + [0] * (n + 1)
    num = list(r.num.coeffs) + [0] * (n + 1)
    acc = []
    for k in range(n + 1):
        c = Fraction(num[k])
        for j in range(1, k + 1):
            c -= den[j] * acc[k - j]
        acc.append(c / den[0])
    return acc


@pytest.mark.parametrize("num,den,k,value", [
    ((2, 0, 0, 1), (2, -2), 3, "3/2"),       # (2 + t^3) / (2 (1 - t))
    ((-2, 0, 0, 1), (2, -2), 3, "-1/2"),
    ((3, 3, 3, 3, 1), (3, -3), 4, "13/3"),
])
def test_series_expand_names_first_fraction(num, den, k, value):
    r = RatFunc(P(*num), P(*den))
    reference = _fraction_series(r, 8)
    first = next(j for j, c in enumerate(reference) if c.denominator != 1)
    assert (first, reference[first]) == (k, Fraction(value))
    assert series_expand(r, k - 1) == reference[:k]
    with pytest.raises(ValueError,
                       match=rf"series coefficient of t\^{k} is not an integer: {value}$"):
        series_expand(r, 8)


@given(rat_strategy())
def test_series_expand_matches_rational_evaluation(r):
    # reference expansion in exact Fractions, then multiply back
    if not r.den.coeffs or r.den.coeffs[0] == 0:
        return
    n = 8
    den = list(r.den.coeffs) + [0] * (n + 1)
    num = list(r.num.coeffs) + [0] * (n + 1)
    expected = []
    for k in range(n + 1):
        c = Fraction(num[k])
        for j in range(1, k + 1):
            c -= den[j] * expected[k - j]
        expected.append(c / den[0])
    if all(c.denominator == 1 for c in expected):
        assert series_expand(r, n) == expected
    else:
        # integer-only by design: growth series never need fractions
        with pytest.raises(ValueError, match="not an integer"):
            series_expand(r, n)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_format_poly():
    assert format_poly(P()) == "0"
    assert format_poly(P(1)) == "1"
    assert format_poly(P(0, 1)) == "t"
    assert format_poly(P(1, 2, 2, 1)) == "1 + 2*t + 2*t^2 + t^3"
    assert format_poly(P(1, -2, 1)) == "1 - 2*t + t^2"
    assert format_poly(P(-1, 1)) == "-1 + t"
    assert format_poly(P(0, 0, -3)) == "-3*t^2"


def test_format_ratfunc():
    assert format_ratfunc(RatFunc(P(1, 1), P(1, -1))) == "(1 + t) / (1 - t)"
    assert format_ratfunc(RatFunc(P(), P(1))) == "(0) / (1)"
