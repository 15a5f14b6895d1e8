"""Seeded random generators shared by the property-style tests, and the
QPoly power, factor list and expansion that the tests build with."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from puiseux import PuiseuxPoly, QPoly, Rat, canonical_factorization, cyclotomic_poly


def power(f: QPoly, n: int) -> QPoly:
    """f^n for n >= 0, by repeated multiplication."""
    return math.prod([f] * n, start=QPoly([1]))


def factor_over_q(f: QPoly) -> tuple[Fraction, list[tuple[QPoly, int]]]:
    """(c, factors) with f = c * prod(q^m) for a nonzero f: the monic
    irreducibles q over Q, X and every Phi_n included, sorted by degree and
    coefficients, read off the canonical factorization of f in Q[Q_+]."""
    cf = canonical_factorization(PuiseuxPoly.from_qpoly(f))
    assert cf.clearing_denominator == 1
    k = int(cf.monomial_exponent)
    found = [(QPoly([0, 1]), k)] if k else []
    found += [(cyclotomic_poly(n), e) for n, e in cf.cyclotomic_part] + list(cf.prime_part)
    return cf.constant, sorted(found, key=lambda item: (item[0].degree, item[0].coeffs))


def expand(constant: Fraction, factors: list[tuple[QPoly, int]]) -> QPoly:
    """constant * prod(q^m)."""
    return math.prod((power(q, m) for q, m in factors), start=QPoly([constant]))


def random_fraction(rng: random.Random, max_num=9, max_den=4, signed=True) -> Fraction:
    num = rng.randint(1, max_num)
    if signed and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, max_den))


def random_qpoly(rng: random.Random, max_degree=6, signed=True) -> QPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [
        random_fraction(rng, signed=signed) if rng.random() < 0.7 else 0
        for _ in range(degree)
    ]
    coeffs.append(random_fraction(rng, signed=signed))
    return QPoly(coeffs)


def random_puiseux_poly(rng: random.Random, max_terms=5, max_den=6) -> PuiseuxPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        e = Rat(rng.randint(0, 12), rng.randint(1, max_den))
        terms.append((e, random_fraction(rng)))
    return PuiseuxPoly(terms)


def random_cyclotomic_product(rng: random.Random, max_index=30, max_degree=24) -> QPoly:
    """A product of cyclotomic polynomials with total degree <= max_degree."""
    poly = QPoly([1])
    while True:
        n = rng.randint(1, max_index)
        step = cyclotomic_poly(n)
        if poly.degree + step.degree > max_degree:
            break
        poly = poly * step
        if rng.random() < 0.3:
            break
    if poly.degree == 0:
        poly = poly * cyclotomic_poly(rng.randint(1, 6))
    return poly


# Small non-cyclotomic irreducibles used to assemble random composites.
NONCYCLOTOMIC_IRREDUCIBLES = [
    QPoly([2, -1, 1]),    # X^2 - X + 2
    QPoly([-2, 0, 1]),    # X^2 - 2
    QPoly([3, 0, 1]),     # X^2 + 3
    QPoly([2, 1]),        # X + 2
    QPoly([-1, 3]),       # 3X - 1
    QPoly([1, 1, 0, 1]),  # X^3 + X + 1
]


def random_composite(rng: random.Random, max_cleared_degree=16) -> PuiseuxPoly:
    """Product of random cyclotomics, non-cyclotomic irreducibles, and a monomial
    with denominator <= 6; cleared degree bounded by max_cleared_degree."""
    den = rng.randint(1, 6)
    scale = Rat(1, den)
    budget = max_cleared_degree // den
    poly = QPoly([1])
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            step = cyclotomic_poly(rng.randint(1, 8))
        else:
            step = rng.choice(NONCYCLOTOMIC_IRREDUCIBLES)
        if poly.degree + step.degree > budget:
            break
        poly = poly * step
    result = PuiseuxPoly.from_qpoly(poly, scale)
    exponent = Rat(rng.randint(0, max(0, budget - poly.degree)), den)
    coeff = random_fraction(rng)
    return result * PuiseuxPoly.monomial(coeff, exponent)
