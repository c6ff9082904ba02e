import random
from fractions import Fraction as Q

import pytest

import route_oracle
from ppchow.errors import DegreeMismatch, NotPolynomial
from ppchow.polyring import (HomogPoly, RatFun, divide_exact, equal_on_span,
                             monomial_exponents, ratfun_sum_to_poly)


def random_homog(rng, dim, degree, coeff_range=9):
    """Deterministic random polynomial with small rational coefficients."""
    coeffs = {}
    for e in monomial_exponents(dim, degree):
        num = rng.randint(-coeff_range, coeff_range)
        den = rng.randint(1, 3)
        if num:
            coeffs[e] = Q(num, den)
    return HomogPoly(dim, degree, coeffs)


def x_(dim=2, i=0):
    return HomogPoly.variable(dim, i)


def test_mul_examples():
    x = x_()
    assert x * x == HomogPoly(2, 2, {(2, 0): 1})
    t = x_(2, 1)
    one = HomogPoly.constant(2, 1)
    assert (x + t) * (x - t) == HomogPoly(2, 2, {(2, 0): 1, (0, 2): -1})


def test_exponents_must_be_integers():
    # (1.5,) is not read as (1,)
    with pytest.raises(ValueError, match="bad exponent"):
        HomogPoly(1, 1, {(1.5,): 1})
    with pytest.raises(ValueError, match="bad exponent"):
        HomogPoly(2, 2, {(Q(1), 1): 1})
    assert HomogPoly(2, 2, {(1, 1): 1}).coeffs == {(1, 1): 1}


def test_add_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        x_() + x_() * x_()


def test_random_product_by_evaluation():
    rng = random.Random(3)
    p = random_homog(rng, 2, 3)
    q = random_homog(rng, 2, 2)
    prod = p * q
    assert prod.degree == 5
    for _ in range(6):
        pt = (Q(rng.randint(-9, 9), rng.randint(1, 5)),
              Q(rng.randint(-9, 9), rng.randint(1, 5)))
        assert prod.evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_ring_axioms_sampled():
    rng = random.Random(4)
    a, b, c = (random_homog(rng, 2, 1) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_equal_on_span_examples():
    x, t = x_(), x_(2, 1)
    assert equal_on_span(x * x, t * t, [(1, 1)])
    assert equal_on_span(x, HomogPoly.zero(2, 1), [(0, 1)])
    assert not equal_on_span(x * x, x * t, [(1, 2)])


def test_equal_on_span_properties():
    rng = random.Random(5)
    p = random_homog(rng, 3, 2)
    assert equal_on_span(p, p, [(1, 0, 0), (0, 1, 0)])
    q = random_homog(rng, 3, 2)
    big = [(1, 0, 0), (0, 1, 0)]
    small = [(1, 0, 0)]
    if equal_on_span(p, q, big):
        assert equal_on_span(p, q, small)


def test_restrict_to_span():
    x, t = x_(), x_(2, 1)
    r = route_oracle.restrict_to_span(x * t, [(1, 2)])
    assert r == HomogPoly(1, 2, {(2,): 2})


def test_divide_exact():
    x, t = x_(), x_(2, 1)
    q, r = divide_exact(x * x - t * t, x - t)
    assert r.is_zero() and q == x + t
    q, r = divide_exact(x * x, x - t)
    assert not r.is_zero()


def test_ratfun_sum_examples():
    x = HomogPoly.variable(1, 0)
    one = HomogPoly.constant(1, 1)
    # x/x + 0 -> 1
    assert ratfun_sum_to_poly([RatFun(x, [x])]) == one
    # f+/x + f-/(-x) with f+ = x, f- = 0 -> 1
    assert ratfun_sum_to_poly([RatFun(x, [x]),
                               RatFun(HomogPoly.zero(1, 1), [-x])]) == one
    # 1/x + 1/(-x) -> 0
    out = ratfun_sum_to_poly([RatFun(one, [x]), RatFun(one, [-x])],
                             dim=1, degree=-1)
    assert out.is_zero()


def test_ratfun_not_polynomial():
    x, t = x_(), x_(2, 1)
    with pytest.raises(NotPolynomial) as exc:
        ratfun_sum_to_poly([RatFun(t, [x])])
    assert exc.value.remainder is not None


def test_monomials():
    assert monomial_exponents(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomial_exponents(0, 0) == [()]
