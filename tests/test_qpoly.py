"""Rational polynomials as values, and the integer division, gcd and
squarefree kernels behind them, against Fraction oracles."""

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
    squarefree_decompose,
)
from puiseux._intpoly import (
    zz_add,
    zz_gcd,
    zz_mul,
    zz_mul_scalar,
    zz_pseudo_divmod,
    zz_sub,
    zz_trial_div,
)

from reference import evaluate, kronecker_monic_factors, mul, q_divmod, q_gcd, q_monic, q_sub, strip
from randgen import expand, power, random_qpoly

X = QPoly.variable()


def _divmod_over_q(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """f = (q/a)*g + r/a over Q from the pseudo-division a*f = q*g + r."""
    a, q, r = zz_pseudo_divmod(f, g)
    return [Fraction(c, a) for c in q], [Fraction(c, a) for c in r]


def test_divrem_examples():
    assert zz_pseudo_divmod([-1, 0, 1], [-1, 1]) == (1, [1, 1], [])
    assert zz_pseudo_divmod([2, 1, 0, 1], [1, 1]) == (1, [2, -1, 1], [])
    assert zz_pseudo_divmod([0, 0, 1], [1, 1]) == (1, [-1, 1], [1])
    # 2^2 * (X^2 + 1) = (2X - 1)(2X + 1) + 5
    assert zz_pseudo_divmod([1, 0, 1], [1, 2]) == (4, [-1, 2], [5])


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        zz_trial_div([0, 1], [])


def test_divrem_identity_random():
    rng = random.Random(23)
    for _ in range(300):
        f = random_qpoly(rng, max_degree=8)
        g = random_qpoly(rng, max_degree=5)
        if g.is_zero:
            continue
        a, q, r = zz_pseudo_divmod(f.prim, g.prim)
        assert zz_add(zz_mul(q, g.prim), r) == zz_mul_scalar(f.prim, a)
        assert len(r) < len(g.prim)
        assert _divmod_over_q(f.prim, g.prim) == q_divmod(f.prim, g.prim)


def test_gcd_examples():
    assert zz_gcd([-1, 0, 1], [0, -1, 1]) == [-1, 1]
    assert zz_gcd([2, -1, 1], [-1, 0, 0, 0, 0, 0, 1]) == [1]
    assert zz_gcd([2, 4], []) == [1, 2]


def test_gcd_divides_and_monic():
    rng = random.Random(29)
    for _ in range(200):
        f = random_qpoly(rng, max_degree=6)
        g = random_qpoly(rng, max_degree=6)
        if f.is_zero and g.is_zero:
            continue
        d = zz_gcd(f.prim, g.prim)
        assert d[-1] > 0 and math.gcd(*d) == 1
        assert q_monic(d) == q_gcd(f.coeffs, g.coeffs)
        assert zz_trial_div(list(f.prim), d) is not None
        assert zz_trial_div(list(g.prim), d) is not None


def test_gcd_both_zero():
    assert zz_gcd([], []) == []


def test_squarefree_examples():
    f = power(QPoly([-1, 1]), 2) * QPoly([1, 1])
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
        g = f * power(random_qpoly(rng, max_degree=2), 2)
        if g.is_zero or g.degree == 0:
            continue
        parts = squarefree_decompose(g)
        recomposed = QPoly([1])
        for part, mult in parts:
            assert part.is_monic
            recomposed = recomposed * power(part, mult)
        assert recomposed == g * (1 / g.leading_coefficient)
        for i, (a, _) in enumerate(parts):
            for b, _ in parts[i + 1 :]:
                assert zz_gcd(a.prim, b.prim) == [1]


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
    ints = p.prim
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
                if evaluate(ints, Fraction(sign * r, s)) == 0:
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
        assert expand(fact) == h
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
        power(QPoly([-2, 0, 1]), 2),
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
        assert tuple(mine) == kronecker_monic_factors(list(h.prim))


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
        a, b = list(pf.prim), list(pg.prim)
        assert zz_add(a, b) == _q_add(a, b)
        assert zz_sub(a, b) == q_sub(a, b)
        assert (pf * pg).coeffs == tuple(strip(mul(f, g)))
        assert (pf * -1).coeffs == tuple(-c for c in f)
        scale = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ints = [rng.randint(-9, 9) for _ in range(4)]
        assert QPoly.from_ints(scale, ints).coeffs == tuple(strip([scale * c for c in ints]))
        if f:
            assert q_monic(zz_gcd(a, b)) == q_gcd(f, g)
        if not g:
            continue
        assert _divmod_over_q(a, b) == q_divmod(a, b)
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
