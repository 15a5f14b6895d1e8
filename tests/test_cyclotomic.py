"""Cyclotomic generation/recognition, symmetric values, vanishing pattern."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from puiseux import (
    DomainError,
    QPoly,
    ResourceLimitError,
    classify_cyclotomic,
    cyclotomic_poly,
    elementary_symmetric,
    factor_over_rationals,
    inverse_totient,
    reciprocal_vanishing_check,
    totient,
)

from reference import classify_by_fiber, cyclotomic_coeffs, evaluate, factor_without_split
from puiseux.cyclotomic import _cyclotomic_value, _prime_factors, _totients_up_to, split_cyclotomic
from puiseux.exact import is_prime
from randgen import NONCYCLOTOMIC_IRREDUCIBLES, power, random_cyclotomic_product, random_fraction


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == QPoly([-1, 1])
    assert cyclotomic_poly(2) == QPoly([1, 1])
    assert cyclotomic_poly(3) == QPoly([1, 1, 1])
    assert cyclotomic_poly(6) == QPoly([1, -1, 1])


def test_cyclotomic_index_error():
    with pytest.raises(DomainError):
        cyclotomic_poly(0)


def test_cyclotomic_product_identity():
    for n in range(1, 41):
        product = QPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_poly(d)
        assert product == QPoly([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_matches_division_oracle():
    for n in range(1, 401):
        assert cyclotomic_poly(n).coeffs == cyclotomic_coeffs(n), n


def test_cyclotomic_cold_build_is_fast():
    start = time.perf_counter()
    phi = cyclotomic_poly.__wrapped__(2310)
    elapsed = time.perf_counter() - start
    assert phi.degree == 480 and phi.coeffs[0] == 1
    assert elapsed < 0.05


def test_cyclotomic_degree_cap_refuses_before_building():
    for n in (510510, 1000000007, 2**17 * 3):  # degrees 92160, 10^9 + 6, 2^17
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="cap"):
            cyclotomic_poly(n)
        assert time.perf_counter() - start < 0.05


def test_memo_caches_are_bounded():
    for cached in (cyclotomic_poly, totient, inverse_totient, is_prime):
        assert cached.cache_info().maxsize is not None


def test_factoring_past_the_trial_division_limit_is_refused():
    assert _prime_factors(2**60 * 1_000_003) == [(2, 60), (1_000_003, 1)]
    with pytest.raises(ResourceLimitError):
        _prime_factors(1_000_000_000_039 * 1_000_000_000_061)


def test_split_caches_are_bounded():
    assert _cyclotomic_value.cache_info().maxsize is not None
    # One candidate table serves every degree: 200 distinct degrees near 2000
    # keep one table of about 4300 pairs, not 200 tables of O(d) pairs each.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in range(2000, 2200):
            _totients_up_to(d)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _totients_up_to(2) == ((1, 1), (1, 2), (2, 3), (2, 4), (2, 6))
    assert retained < 1 << 21


def test_cyclotomic_values_are_the_polynomials_at_the_point():
    for n in range(1, 121):
        for b in (2, 3, 256):
            assert _cyclotomic_value(n, b) == evaluate(cyclotomic_poly(n).prim, b), (n, b)


def test_totients_up_to_lists_every_index():
    assert _totients_up_to(4) == ((1, 1), (1, 2), (2, 3), (2, 4), (2, 6), (4, 5), (4, 8), (4, 10), (4, 12))
    for d in (1, 7, 30):
        assert sorted(n for _, n in _totients_up_to(d)) == sorted(
            n for n in range(1, 2 * d * d + 3) if totient(n) <= d
        )


def test_split_cyclotomic_examples():
    x105 = [-1] + [0] * 104 + [1]
    assert split_cyclotomic(x105) == ([1, 3, 5, 7, 15, 21, 35, 105], [1])
    f = list((QPoly([-1] + [0] * 11 + [1]) * QPoly([2, 1]) * QPoly([-2, 0, 1])).prim)
    assert split_cyclotomic(f) == ([1, 2, 3, 4, 6, 12], [-4, -2, 2, 1])
    # X - 2 makes 2 a root, so the first point moves on to 3.
    f = list((cyclotomic_poly(6) * QPoly([-2, 1])).prim)
    assert split_cyclotomic(f) == ([6], [-2, 1])


def random_split_case(rng: random.Random) -> QPoly:
    """A rational content times X^k, cyclotomic and non-cyclotomic
    irreducibles, and a cyclotomic product that may be squared."""
    f = random_cyclotomic_product(rng)
    for _ in range(rng.randint(0, 2)):
        f = f * rng.choice(NONCYCLOTOMIC_IRREDUCIBLES)
    f = f * power(random_cyclotomic_product(rng, max_degree=10), rng.randint(1, 2))
    c = random_fraction(rng)
    return f * QPoly([0] * rng.randint(0, 2) + [c])


def test_split_matches_factoring_without_it():
    rng = random.Random(83)
    cases = [random_split_case(rng) for _ in range(40)]
    assert any(f.prim[0] == 0 for f in cases)  # an X^k factor
    assert any(f.content.denominator > 1 for f in cases)  # a rational content
    repeated = 0
    for f in cases:
        fact = factor_over_rationals(f)
        assert fact.constant == f.leading_coefficient
        assert [(q.coeffs, m) for q, m in fact.factors] == factor_without_split(f.prim), f
        repeated += any(m > 1 for _, m in fact.factors)
    assert repeated >= 10


def test_cyclotomic_degree_is_totient():
    for n in range(1, 81):
        assert cyclotomic_poly(n).degree == totient(n)


def test_inverse_totient_examples():
    assert inverse_totient(1) == {1, 2}
    assert inverse_totient(2) == {3, 4, 6}
    assert inverse_totient(3) == frozenset()


def test_inverse_totient_complete_small():
    # A totient sieve over n < 4*300^2 + 10 covers every preimage of d <= 300,
    # since phi(n) >= sqrt(n/2).
    top = 300
    bound = 4 * top * top + 10
    phi = list(range(bound))
    for p in range(2, bound):
        if phi[p] == p:
            for k in range(p, bound, p):
                phi[k] -= phi[k] // p
    direct: dict[int, set[int]] = {}
    for n in range(1, bound):
        if phi[n] <= top:
            direct.setdefault(phi[n], set()).add(n)
    for d in range(1, top + 1):
        assert inverse_totient(d) == direct.get(d, set()), d
    assert all(totient(n) == phi[n] for n in range(1, 500))


def test_classify_examples():
    assert classify_cyclotomic(QPoly([1, 1, 1])) == 3
    assert classify_cyclotomic(QPoly([2, -1, 1])) is None
    assert classify_cyclotomic(QPoly([-1, 1])) == 1


def test_classify_round_trip():
    for n in range(1, 101):
        assert classify_cyclotomic(cyclotomic_poly(n)) == n


def test_classify_matches_fiber_oracle():
    cases = [cyclotomic_poly(n) for n in range(1, 301)]
    cases += [QPoly.variable(), QPoly([Fraction(1, 2), 1])]
    cases += [q * (1 / q.leading_coefficient) for q in NONCYCLOTOMIC_IRREDUCIBLES]
    for p in cases:
        assert classify_cyclotomic(p) == classify_by_fiber(p), p


def test_classify_rejects_bad_input():
    with pytest.raises(DomainError):
        classify_cyclotomic(QPoly([-1, 0, 1]))  # reducible
    with pytest.raises(DomainError):
        classify_cyclotomic(QPoly([2, 2]))  # non-monic
    with pytest.raises(DomainError):
        classify_cyclotomic(QPoly([1]))  # unit


def test_elementary_symmetric_examples():
    assert elementary_symmetric(QPoly([2, -3, 1])) == (1, 3, 2)
    assert elementary_symmetric(QPoly([1, 0, 1, 1]), 2) == (1, 1, 0, 1)
    assert elementary_symmetric(QPoly([1, 0, 1, 0, 1])) == (1, 0, 1, 0, 1)


def test_elementary_symmetric_requires_monic():
    with pytest.raises(DomainError):
        elementary_symmetric(QPoly([1, 2]))
    with pytest.raises(DomainError):
        elementary_symmetric(QPoly([1, 1, 2]), 3)
    with pytest.raises(TypeError):
        elementary_symmetric((1, 0, 1))


def test_vanishing_check_examples():
    report = reciprocal_vanishing_check(QPoly([1, 0, 1, 0, 1]))
    assert report.holds and report.witnesses == ()

    report = reciprocal_vanishing_check(QPoly([1, 0, 1, 1]), 2)
    assert not report.holds
    assert report.witnesses == (2,)

    report = reciprocal_vanishing_check(QPoly([-1, 1]))
    assert report.holds


def test_vanishing_check_on_random_cyclotomic_products():
    rng = random.Random(53)
    for _ in range(60):
        product = random_cyclotomic_product(rng)
        assert reciprocal_vanishing_check(product).holds
