"""Elements of Q[Q_+]: support geometry, products, exponent scaling."""

import random
from fractions import Fraction

import pytest

from puiseux import (
    DomainError,
    PuiseuxPoly,
    QPoly,
    Rat,
    ResourceLimitError,
    cyclotomic_poly,
    parse_poly,
)

from randgen import random_cyclotomic_product, random_puiseux_poly


def test_ord_deg_supp():
    f = parse_poly("X + 1")
    assert (f.order, f.degree) == (0, 1)
    assert f.support == {Rat(0), Rat(1)}

    g = parse_poly("3*X^(5/2) - X^(1/3)")
    assert (g.order, g.degree) == (Rat(1, 3), Rat(5, 2))
    assert g.support == {Rat(1, 3), Rat(5, 2)}

    assert parse_poly("X^3 + X + 2").support == {Rat(0), Rat(1), Rat(3)}


def test_ord_deg_undefined_for_zero():
    zero = PuiseuxPoly.zero()
    for attr in ("order", "degree", "support"):
        with pytest.raises(DomainError):
            getattr(zero, attr)


def test_product_examples():
    f = parse_poly("X + 1")
    g = parse_poly("X^2 - X + 2")
    assert f * g == parse_poly("X^3 + X + 2")

    a = parse_poly("X^(1/2) - 1")
    b = parse_poly("X^(1/2) + 1")
    assert a * b == parse_poly("X - 1")

    assert (f * PuiseuxPoly.zero()).is_zero


def test_integral_domain_and_additivity():
    rng = random.Random(61)
    for _ in range(200):
        f = random_puiseux_poly(rng)
        g = random_puiseux_poly(rng)
        product = f * g
        assert not product.is_zero
        assert product.order == f.order + g.order
        assert product.degree == f.degree + g.degree


def test_symmetric_support_examples():
    assert parse_poly("X + 1").is_symmetric_support()
    assert parse_poly("X^2 - X + 2").is_symmetric_support()
    assert not parse_poly("X^3 + X + 2").is_symmetric_support()
    assert parse_poly("7*X^(5/3)").is_symmetric_support()
    assert parse_poly("X^4 + X^2 + 1").is_symmetric_support()


def test_symmetric_support_not_closed_under_products():
    # Mandatory regression: two symmetric-support elements whose product is not.
    f = parse_poly("X + 1")
    g = parse_poly("X^2 - X + 2")
    assert f.is_symmetric_support() and g.is_symmetric_support()
    assert not (f * g).is_symmetric_support()


def test_substitute_examples():
    assert parse_poly("X^(1/2) + 1").substitute(2) == parse_poly("X + 1")
    assert parse_poly("X - 1").substitute(Rat(1, 2)) == parse_poly("X^(1/2) - 1")
    f = parse_poly("X^3 + X + 2")
    assert f.substitute(1) is f and f.substitute(Rat(2, 2)) is f
    assert f.clear_denominators() == (1, f.to_qpoly())
    with pytest.raises(DomainError):
        parse_poly("X").substitute(0)


def test_substitute_is_ring_isomorphism():
    rng = random.Random(67)
    for _ in range(500):
        f = random_puiseux_poly(rng)
        g = random_puiseux_poly(rng)
        r = Rat(rng.randint(1, 9), rng.randint(1, 6))
        inverse = Rat(1) / r
        assert (f + g).substitute(r) == f.substitute(r) + g.substitute(r)
        assert (f * g).substitute(r) == f.substitute(r) * g.substitute(r)
        assert f.substitute(r).substitute(inverse) == f


def test_symmetric_support_invariant_under_scaling():
    rng = random.Random(71)
    for _ in range(200):
        f = random_puiseux_poly(rng)
        r = Rat(rng.randint(1, 9), rng.randint(1, 6))
        assert f.is_symmetric_support() == f.substitute(r).is_symmetric_support()


def test_generalized_cyclotomic_products_have_symmetric_support():
    rng = random.Random(73)
    scales = [Rat(1, 2), Rat(2), Rat(5, 3)]
    for _ in range(60):
        product = random_cyclotomic_product(rng, max_degree=16)
        for s in scales:
            assert PuiseuxPoly.from_qpoly(product, s).is_symmetric_support()


def test_clear_denominators_examples():
    assert parse_poly("X^(1/2) - 1").clear_denominators() == (2, QPoly([-1, 1]))
    assert parse_poly("X^3 + X + 2").clear_denominators() == (1, QPoly([2, 1, 0, 1]))
    m, g = parse_poly("X^(3/2) - X^(1/3)").clear_denominators()
    assert m == 6
    assert g == QPoly([0, 0, -1, 0, 0, 0, 0, 0, 0, 1])


def test_clear_denominators_round_trip():
    rng = random.Random(79)
    for _ in range(200):
        f = random_puiseux_poly(rng)
        m, g = f.clear_denominators()
        assert PuiseuxPoly.from_qpoly(g, Rat(1, m)) == f
        assert all(e.denominator == 1 for e in f.substitute(m).support)


def test_generalized_poly_examples():
    assert PuiseuxPoly.from_qpoly(QPoly([-1, 1]), 2) == parse_poly("X^2 - 1")
    assert PuiseuxPoly.from_qpoly(cyclotomic_poly(2), Rat(1, 2)) == parse_poly("X^(1/2) + 1")
    assert PuiseuxPoly.from_qpoly(cyclotomic_poly(6), 3) == parse_poly("X^6 - X^3 + 1")
    with pytest.raises(DomainError):
        PuiseuxPoly.from_qpoly(QPoly([-1, 1]), 0)


def test_negative_exponents_rejected():
    with pytest.raises(DomainError):
        PuiseuxPoly([(Fraction(-1, 2), Fraction(1))])


def test_addition_merges_and_cancels():
    f = parse_poly("X^(1/2) + 1") + parse_poly("-1")
    assert f == parse_poly("X^(1/2)")
    assert (parse_poly("X") - parse_poly("X")).is_zero


def test_to_qpoly_requires_integer_exponents():
    with pytest.raises(DomainError):
        parse_poly("X^(1/2)").to_qpoly()
    assert parse_poly("X^2 - 1").to_qpoly() == QPoly([-1, 0, 1])


def test_to_qpoly_caps_the_dense_degree():
    from puiseux.ppoly import MAX_DENSE_DEGREE

    top = PuiseuxPoly.monomial(1, MAX_DENSE_DEGREE)
    assert top.to_qpoly().degree == MAX_DENSE_DEGREE
    with pytest.raises(ResourceLimitError):
        (top * parse_poly("X")).to_qpoly()
    assert PuiseuxPoly.zero().to_qpoly() == QPoly()
