"""Rational polynomials: division, gcd, squarefree parts, factorization."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from puiseux import (
    DomainError,
    QPoly,
    cyclotomic_poly,
    factor_over_rationals,
    poly_divrem,
    poly_gcd,
    squarefree_decompose,
)

from reference import evaluate, kronecker_monic_factors, mul, q_divmod, q_monic, q_sub, strip
from randgen import random_qpoly

X = QPoly.variable()


def test_divrem_examples():
    q, r = poly_divrem(QPoly([-1, 0, 1]), QPoly([-1, 1]))
    assert (q, r) == (QPoly([1, 1]), QPoly())
    q, r = poly_divrem(QPoly([2, 1, 0, 1]), QPoly([1, 1]))
    assert (q, r) == (QPoly([2, -1, 1]), QPoly())
    q, r = poly_divrem(QPoly([0, 0, 1]), QPoly([1, 1]))
    assert (q, r) == (QPoly([-1, 1]), QPoly([1]))


def test_divrem_zero_divisor():
    with pytest.raises(DomainError):
        poly_divrem(X, QPoly())


def test_divrem_identity_random():
    rng = random.Random(23)
    for _ in range(300):
        f = random_qpoly(rng, max_degree=8)
        g = random_qpoly(rng, max_degree=5)
        if g.is_zero:
            continue
        q, r = poly_divrem(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_gcd_examples():
    assert poly_gcd(QPoly([-1, 0, 1]), QPoly([0, -1, 1])) == QPoly([-1, 1])
    assert poly_gcd(QPoly([2, -1, 1]), QPoly([-1, 0, 0, 0, 0, 0, 1])) == QPoly([1])
    f = QPoly([2, 4])
    assert poly_gcd(f, QPoly()) == f.monic()


def test_gcd_divides_and_monic():
    rng = random.Random(29)
    for _ in range(200):
        f = random_qpoly(rng, max_degree=6)
        g = random_qpoly(rng, max_degree=6)
        if f.is_zero and g.is_zero:
            continue
        d = poly_gcd(f, g)
        assert d.is_monic
        if not f.is_zero:
            assert (f % d).is_zero
        if not g.is_zero:
            assert (g % d).is_zero


def test_gcd_both_zero():
    with pytest.raises(DomainError):
        poly_gcd(QPoly(), QPoly())


def test_squarefree_examples():
    f = QPoly([-1, 1]) ** 2 * QPoly([1, 1])
    assert sorted(squarefree_decompose(f), key=lambda t: t[1]) == [
        (QPoly([1, 1]), 1),
        (QPoly([-1, 1]), 2),
    ]
    f6 = QPoly([-1, 0, 0, 0, 0, 0, 1])
    assert squarefree_decompose(f6) == [(f6, 1)]
    assert squarefree_decompose(QPoly([0, 0, 1])) == [(X, 2)]


def test_squarefree_recomposition_random():
    rng = random.Random(31)
    for _ in range(60):
        f = random_qpoly(rng, max_degree=4)
        if f.is_zero or f.degree == 0:
            continue
        g = f * random_qpoly(rng, max_degree=2) ** 2
        if g.is_zero or g.degree == 0:
            continue
        parts = squarefree_decompose(g)
        recomposed = QPoly.one()
        for part, mult in parts:
            assert part.is_monic
            recomposed = recomposed * part**mult
        assert recomposed == g.monic()
        for i, (a, _) in enumerate(parts):
            for b, _ in parts[i + 1 :]:
                assert poly_gcd(a, b) == QPoly([1])


def test_factor_examples():
    fact = factor_over_rationals(QPoly([-1, 0, 1]))
    assert fact.constant == 1
    assert fact.factors == ((QPoly([-1, 1]), 1), (QPoly([1, 1]), 1))

    fact = factor_over_rationals(QPoly([2, 1, 0, 1]))
    assert fact.factors == ((QPoly([1, 1]), 1), (QPoly([2, -1, 1]), 1))

    # X^4 + X^2 + 1 = (X^2+X+1)(X^2-X+1); checked by expansion.
    a, b = QPoly([1, 1, 1]), QPoly([1, -1, 1])
    assert a * b == QPoly([1, 0, 1, 0, 1])
    fact = factor_over_rationals(QPoly([1, 0, 1, 0, 1]))
    assert fact.factors == ((b, 1), (a, 1))

    fact = factor_over_rationals(QPoly([-2, 0, 1]))
    assert fact.factors == ((QPoly([-2, 0, 1]), 1),)


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor_over_rationals(QPoly())


def _rational_root_free(p: QPoly) -> bool:
    # Rational root theorem: candidate roots r/s with r | constant, s | leading.
    _, ints = p.primitive_integer()
    if ints[0] == 0:
        return False
    lead, const = ints[-1], ints[0]
    for r in range(1, abs(const) + 1):
        if const % r:
            continue
        for s in range(1, abs(lead) + 1):
            if lead % s:
                continue
            for sign in (1, -1):
                if p.evaluate(Fraction(sign * r, s)) == 0:
                    return False
    return True


def test_factor_soundness_random():
    rng = random.Random(37)
    for _ in range(80):
        f = random_qpoly(rng, max_degree=3)
        g = random_qpoly(rng, max_degree=3)
        h = (f * g) if not (f * g).is_zero else QPoly([1, 1])
        if h.is_zero:
            continue
        fact = factor_over_rationals(h)
        assert fact.expand() == h
        total = sum(m * p.degree for p, m in fact.factors)
        assert total == h.degree
        for p, _ in fact.factors:
            assert p.is_monic
            if 2 <= p.degree <= 3:
                assert _rational_root_free(p)


def test_factor_matches_kronecker_oracle():
    rng = random.Random(41)
    cases = [
        QPoly([-1, 0, 0, 0, 0, 0, 1]),        # X^6 - 1
        QPoly([1, 0, 1, 0, 1]),               # X^4 + X^2 + 1
        QPoly([0, 2, 1]) * QPoly([2, -1, 1]),  # X(X+2)(X^2-X+2)
        QPoly([-2, 0, 1]) ** 2,
    ]
    for _ in range(40):
        f = random_qpoly(rng, max_degree=4, signed=True)
        g = random_qpoly(rng, max_degree=4, signed=True)
        h = f * g
        if h.is_zero or h.degree < 1 or h.degree > 8:
            continue
        cases.append(h)
    for h in cases:
        fact = factor_over_rationals(h)
        mine = []
        for p, m in fact.factors:
            mine.extend([p.coeffs] * m)
        mine.sort(key=lambda t: (len(t), t))
        _, ints = h.primitive_integer()
        assert tuple(mine) == kronecker_monic_factors(ints)


def test_factor_deterministic_order():
    f = QPoly([-1, 0, 0, 0, 0, 0, 1]) * QPoly([2, -1, 1])
    first = factor_over_rationals(f)
    second = factor_over_rationals(f)
    assert first == second
    degrees = [p.degree for p, _ in first.factors]
    assert degrees == sorted(degrees)


def _random_rationals(rng: random.Random) -> list[Fraction]:
    """Rational lists with fractional contents, either sign of leading
    coefficient, trailing zeros, and sometimes nothing but zeros."""
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
    coeffs = [
        scale * Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        for _ in range(rng.randint(0, 7))
    ]
    return coeffs + [Fraction(0)] * rng.randint(0, 2)


def test_stored_pair_is_canonical_random():
    rng = random.Random(53)
    previous = QPoly()
    for _ in range(400):
        coeffs = _random_rationals(rng)
        p = QPoly(coeffs)
        expected = tuple(strip(list(coeffs)))
        assert p.coeffs == expected
        assert all(isinstance(c, Fraction) for c in p.coeffs)
        assert len(p.prim) == len(expected)
        assert all(type(c) is int and p.content * c == e for c, e in zip(p.prim, expected))
        if expected:
            assert p.prim[-1] > 0 and math.gcd(*p.prim) == 1
        else:
            assert (p.content, p.prim) == (0, ())
        assert p.primitive_integer() == (p.content, list(p.prim))
        # The pair is unique: another route to the same coefficients gives an
        # equal, equally hashed polynomial, and == agrees with the lists.
        lcm = math.lcm(*(c.denominator for c in coeffs))
        alt = QPoly.from_ints(Fraction(-1, lcm), [int(-c * lcm) for c in coeffs])
        assert alt == p and hash(alt) == hash(p)
        assert (p == previous) == (p.coeffs == previous.coeffs)
        previous = p


def _q_add(f, g):
    return q_sub(f, [-c for c in g])


def test_operations_match_fraction_references_random():
    rng = random.Random(59)
    for _ in range(300):
        f, g = _random_rationals(rng), _random_rationals(rng)
        pf, pg = QPoly(f), QPoly(g)
        f, g = strip(list(f)), strip(list(g))
        assert (pf + pg).coeffs == tuple(_q_add(f, g))
        assert (pf - pg).coeffs == tuple(q_sub(f, g))
        assert (-pf).coeffs == tuple(-c for c in f)
        assert (pf * pg).coeffs == tuple(strip(mul(f, g)))
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert pf.evaluate(x) == evaluate(f, x)
        scale = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ints = [rng.randint(-9, 9) for _ in range(4)]
        assert QPoly.from_ints(scale, ints).coeffs == tuple(strip([scale * c for c in ints]))
        if not g:
            continue
        q, r = divmod(pf, pg)
        oq, orem = q_divmod(f, g)
        assert (q.coeffs, r.coeffs) == (tuple(oq), tuple(orem))
        assert pg.monic().coeffs == tuple(q_monic(g))
        k, core = pg.split_monomial()
        assert g[:k] == [0] * k and g[k] != 0 and core.coeffs == tuple(g[k:])


def test_uncached_phi_65537_retains_under_a_megabyte():
    # Phi_65537 = 1 + X + ... + X^65536 has degree exactly MAX_DENSE_DEGREE.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phi = cyclotomic_poly.__wrapped__(65537)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert phi.degree == 65536 and phi.prim[:3] == (1, 1, 1)
    assert retained < 1 << 20
