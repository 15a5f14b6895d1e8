"""Cyclotomic generation/recognition, symmetric values, vanishing pattern."""

import bisect
import importlib
import math
import pkgutil
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import puiseux
from puiseux import (
    DomainError,
    PuiseuxPoly,
    QPoly,
    ResourceLimitError,
    canonical_factorization,
    cyclotomic_poly,
    elementary_symmetric,
    inverse_totient,
    reciprocal_vanishing_check,
    totient,
)

from reference import (
    classify_by_fiber,
    cyclotomic_coeffs,
    evaluate,
    factor_without_split,
    totient_pairs,
    totient_search,
)
from puiseux import cyclotomic
from puiseux.cyclotomic import (
    MAX_SPLIT_DEGREE,
    _cyclotomic_value,
    _prime_factors,
    _split_candidates,
    classify_cyclotomic,
)
from randgen import (
    NONCYCLOTOMIC_IRREDUCIBLES,
    factor_over_q,
    power,
    random_cyclotomic_product,
    random_fraction,
)


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == QPoly([-1, 1])
    assert cyclotomic_poly(2) == QPoly([1, 1])
    assert cyclotomic_poly(3) == QPoly([1, 1, 1])
    assert cyclotomic_poly(6) == QPoly([1, -1, 1])


def test_cyclotomic_index_error():
    with pytest.raises(DomainError):
        cyclotomic_poly(0)
    with pytest.raises(DomainError, match="positive integers"):
        totient(0)
    with pytest.raises(DomainError, match="positive integers"):
        inverse_totient(0)


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
    # Exactly the three caches whose worst cases CACHE_SIZE's comment states.
    cached = {
        (fn.__module__, fn.__qualname__): fn.cache_info().maxsize
        for info in pkgutil.iter_modules(puiseux.__path__, "puiseux.")
        for module in [importlib.import_module(info.name)]
        for fn in vars(module).values()
        if hasattr(fn, "cache_info")
    }
    assert cached == {
        ("puiseux.cyclotomic", name): cyclotomic.CACHE_SIZE
        for name in ("cyclotomic_poly", "_split_candidates", "_cyclotomic_value")
    }


def test_a_cyclotomic_entry_with_large_coefficients_stays_within_its_bound():
    # CACHE_SIZE's comment bounds an entry by 8 bytes a coefficient and 32 for
    # each of at most 58,075 outside CPython's small ints (counted over every
    # index up to MAX_DENSE_DEGREE).  Phi_115115, degree 63360, has 29,081.
    phi = cyclotomic_poly.__wrapped__(115115)
    large = {id(c): c for c in phi.prim if not -5 <= c <= 256}
    assert phi.degree == 63360 and len(large) == 29081
    held = sys.getsizeof(phi.prim) + sum(map(sys.getsizeof, large.values()))
    assert held < 8 * 65537 + 32 * 58075


def test_factoring_past_the_trial_division_limit_is_refused():
    assert _prime_factors(2**60 * 1_000_003) == [(2, 60), (1_000_003, 1)]
    with pytest.raises(ResourceLimitError):
        _prime_factors(1_000_000_000_039 * 1_000_000_000_061)


def candidates(d: int) -> tuple[tuple[int, int], ...]:
    """The split's candidates for a part of degree d: the pairs (phi(n), n)
    with phi(n) <= d, increasing, sliced from the table the split reads."""
    table = _split_candidates(1 << (d - 1).bit_length())
    return table[: bisect.bisect(table, (d, math.inf))]


def test_split_caches_are_bounded():
    assert _cyclotomic_value.cache_info().maxsize is not None
    # One candidate table per power of two: 200 distinct degrees near 2000
    # keep the tables to 2048 and 4096 (3991 and 7980 pairs), not 200 tables
    # of O(d) pairs each.
    _split_candidates.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in range(2000, 2200):
            candidates(d)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert candidates(2) == ((1, 1), (1, 2), (2, 3), (2, 4), (2, 6))
    assert retained < 1 << 21


def test_cyclotomic_values_are_the_polynomials_at_the_point():
    for n in range(1, 121):
        for b in (2, 3, 256):
            assert _cyclotomic_value(n, b) == evaluate(cyclotomic_poly(n).prim, b), (n, b)


def test_totients_up_to_lists_every_index():
    assert candidates(4) == ((1, 1), (1, 2), (2, 3), (2, 4), (2, 6), (4, 5), (4, 8), (4, 10), (4, 12))
    for d in (1, 7, 30):
        assert sorted(n for _, n in candidates(d)) == sorted(
            n for n in range(1, 2 * d * d + 3) if totient(n) <= d
        )


def test_split_candidates_match_one_inverse_totient_search_per_value():
    reference = totient_pairs(MAX_SPLIT_DEGREE)
    for d in range(1, MAX_SPLIT_DEGREE + 1):
        assert candidates(d) == reference[: bisect.bisect(reference, (d, math.inf))], d


def test_totient_table_is_built_without_inverse_totient(monkeypatch):
    # A fresh table (to 64, for degree 60) comes from its own sieve, so the
    # split never pays for an inverse_totient search.
    calls = []
    monkeypatch.setattr(cyclotomic, "inverse_totient", lambda d: calls.append(d))
    _split_candidates.cache_clear()
    candidates(60)
    indices, rest = classify_cyclotomic([-1] + [0] * 59 + [1])
    assert indices == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60] and rest == [1]
    assert calls == []


def test_split_cyclotomic_examples():
    x105 = [-1] + [0] * 104 + [1]
    assert classify_cyclotomic(x105) == ([1, 3, 5, 7, 15, 21, 35, 105], [1])
    f = list((QPoly([-1] + [0] * 11 + [1]) * QPoly([2, 1]) * QPoly([-2, 0, 1])).prim)
    assert classify_cyclotomic(f) == ([1, 2, 3, 4, 6, 12], [-4, -2, 2, 1])
    # X - 2 makes 2 a root, so the first point moves on to 3.
    f = list((cyclotomic_poly(6) * QPoly([-2, 1])).prim)
    assert classify_cyclotomic(f) == ([6], [-2, 1])


def random_split_case(rng: random.Random) -> QPoly:
    """A rational content times X^k, cyclotomic and non-cyclotomic
    irreducibles, and a cyclotomic product that may be squared."""
    f = random_cyclotomic_product(rng)
    for _ in range(rng.randint(0, 2)):
        f = f * rng.choice(NONCYCLOTOMIC_IRREDUCIBLES)
    f = f * power(random_cyclotomic_product(rng, max_degree=10), rng.randint(1, 2))
    c = random_fraction(rng)
    return f * QPoly([0] * rng.randint(0, 2) + [c])


def test_split_refuses_a_part_above_the_cap_before_evaluating(monkeypatch):
    def no_value(n, b):
        raise AssertionError("a candidate was evaluated")

    monkeypatch.setattr(cyclotomic, "_cyclotomic_value", no_value)
    part = [1, 1] + [0] * (MAX_SPLIT_DEGREE - 1) + [1]  # X^4097 + X + 1
    with pytest.raises(ResourceLimitError, match="cap"):
        classify_cyclotomic(part)


def test_split_matches_factoring_without_it():
    rng = random.Random(83)
    cases = [random_split_case(rng) for _ in range(40)]
    assert any(f.prim[0] == 0 for f in cases)  # an X^k factor
    assert any(f.content.denominator > 1 for f in cases)  # a rational content
    repeated = 0
    for f in cases:
        constant, factors = factor_over_q(f)
        assert constant == f.leading_coefficient
        assert [(q.coeffs, m) for q, m in factors] == factor_without_split(f.prim), f
        repeated += any(m > 1 for _, m in factors)
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


def test_inverse_totient_matches_the_recursive_search():
    # the last two fill tables of 1.1e5 and 1.2e5 products, below the cap
    rng = random.Random(25)
    seeded = [2 * rng.randrange(1, 10**9) for _ in range(200)]
    for d in [*range(1, 5001), *seeded, 6983776800, 720720000]:
        assert inverse_totient(d) == totient_search(d), d


def test_inverse_totient_makes_no_product_it_cannot_complete(monkeypatch):
    # Unpruned, these tables pass 151,356 and 151,789 products held.
    monkeypatch.setattr(cyclotomic, "MAX_TOTIENT_STEPS", 150_000)
    assert len(inverse_totient(6983776800)) == 12181
    assert len(inverse_totient(720720000)) == 13894


def classify(p: QPoly) -> int | None:
    """n when the canonical factorization of the monic irreducible p is
    Phi_n, else None."""
    cf = canonical_factorization(PuiseuxPoly.from_qpoly(p))
    parts = cf.cyclotomic_part + cf.prime_part
    assert cf.constant == 1 and cf.monomial_exponent + sum(e for _, e in parts) == 1, p
    return cf.cyclotomic_part[0][0] if cf.cyclotomic_part else None


def test_classify_examples():
    assert classify(QPoly([1, 1, 1])) == 3
    assert classify(QPoly([2, -1, 1])) is None
    assert classify(QPoly([-1, 1])) == 1


def test_classify_round_trip():
    for n in range(1, 101):
        assert classify(cyclotomic_poly(n)) == n


def test_classify_matches_fiber_oracle():
    cases = [cyclotomic_poly(n) for n in range(1, 301)]
    cases += [QPoly([0, 1]), QPoly([Fraction(1, 2), 1])]
    cases += [q * (1 / q.leading_coefficient) for q in NONCYCLOTOMIC_IRREDUCIBLES]
    for p in cases:
        assert classify(p) == classify_by_fiber(p), p


def test_elementary_symmetric_examples():
    assert elementary_symmetric(QPoly([2, -3, 1])) == (1, 3, 2)
    assert elementary_symmetric(QPoly([1, 0, 1, 1]), 2) == (1, 1, 0, 1)
    assert elementary_symmetric(QPoly([1, 0, 1, 0, 1])) == (1, 0, 1, 0, 1)


def test_elementary_symmetric_requires_monic():
    with pytest.raises(DomainError):
        elementary_symmetric(QPoly([1, 2]))
    with pytest.raises(DomainError):
        elementary_symmetric(QPoly([1, 1, 2]), 3)
    with pytest.raises(DomainError, match="no image in F_2"):
        elementary_symmetric(QPoly([1, Fraction(1, 2)]), 2)
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

    with pytest.raises(DomainError, match="degree >= 1"):
        reciprocal_vanishing_check(QPoly([1]))


def test_vanishing_check_on_random_cyclotomic_products():
    rng = random.Random(53)
    for _ in range(60):
        product = random_cyclotomic_product(rng)
        assert reciprocal_vanishing_check(product).holds
