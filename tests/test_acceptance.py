"""End-to-end acceptance checks.

Each test exercises one documented criterion at its stated tolerance (all
exact) and time budget, and prints a single PASS line when it holds.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from puiseux import (
    PuiseuxMonoid,
    PuiseuxPoly,
    QPoly,
    Rat,
    canonical_factorization,
    cyclotomic_poly,
    divisors_in_algebra,
    elementary_symmetric,
    factor_over_rationals,
    ff_divisor_count,
    parse_poly,
    reciprocal_vanishing_check,
    recompose,
    totient,
)

from reference import brute_divisor_set, dp_membership, kronecker_monic_factors
from randgen import random_composite, random_cyclotomic_product


def _report(number: int, elapsed: float, budget: float, detail: str):
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.3f}s)"
    print(f"criterion {number:02d} PASS ({elapsed:.3f}s / {budget:g}s): {detail}")


def test_criterion_01_prime_field_counterexample():
    poly = QPoly([1, 0, 1, 1])
    elementary_symmetric(poly, 2)  # warm any caches before timing
    start = time.perf_counter()
    values = elementary_symmetric(poly, 2)
    report = reciprocal_vanishing_check(poly, 2)
    elapsed = time.perf_counter() - start
    assert values == (1, 1, 0, 1)
    assert report.holds is False
    assert report.witnesses == (2,)
    assert values[2] == 0 and values[1] != 0
    _report(1, elapsed, 0.001, "e-vector (1,1,0,1) over F_2, violation at k=2")


def test_criterion_02_symmetric_support_product():
    start = time.perf_counter()
    f = parse_poly("X+1")
    g = parse_poly("X^2-X+2")
    product = f * g
    assert f.is_symmetric_support()
    assert g.is_symmetric_support()
    assert product == parse_poly("X^3+X+2")
    assert not product.is_symmetric_support()
    elapsed = time.perf_counter() - start
    _report(2, elapsed, 1.0, "(X+1)(X^2-X+2) = X^3+X+2 loses symmetric support")


def test_criterion_03_vanishing_suite():
    rng = random.Random(211)
    start = time.perf_counter()
    special = cyclotomic_poly(3) * cyclotomic_poly(6)
    assert special == QPoly([1, 0, 1, 0, 1])
    values = elementary_symmetric(special)
    assert values[1] == 0 and values[3] == 0
    assert reciprocal_vanishing_check(special).holds
    checked = 1
    while checked < 200:
        product = random_cyclotomic_product(rng, max_index=30, max_degree=24)
        assert reciprocal_vanishing_check(product).holds
        checked += 1
    elapsed = time.perf_counter() - start
    _report(3, elapsed, 10.0, f"{checked} cyclotomic products, all vanishing-symmetric")


def test_criterion_04_generalized_symmetric_support():
    rng = random.Random(223)
    scales = [Rat(1, 2), Rat(2), Rat(5, 3)]
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        product = random_cyclotomic_product(rng, max_index=30, max_degree=24)
        for s in scales:
            assert PuiseuxPoly.from_qpoly(product, s).is_symmetric_support()
        checked += 1
    elapsed = time.perf_counter() - start
    _report(4, elapsed, 10.0, f"{checked} products x 3 scales, symmetric support")


def test_criterion_05_cyclotomic_identities():
    start = time.perf_counter()
    for n in range(1, 101):
        product = QPoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_poly(d)
        assert product == QPoly([-1] + [0] * (n - 1) + [1])
    for n in range(1, 201):
        assert cyclotomic_poly(n).degree == totient(n)
    elapsed = time.perf_counter() - start
    _report(5, elapsed, 5.0, "prod of Phi_d = X^n - 1 (n<=100), deg Phi_n = phi(n) (n<=200)")


def test_criterion_06_factorization_soundness():
    rng = random.Random(227)
    start = time.perf_counter()
    oracle_checked = 0
    for _ in range(300):
        f = random_composite(rng, max_cleared_degree=16)
        cf = canonical_factorization(f)
        assert recompose(cf) == f
        _, cleared = f.clear_denominators()
        _, core = cleared.split_monomial()
        if 1 <= core.degree <= 8:
            mine = []
            for p, m in factor_over_rationals(core).factors:
                mine.extend([p.coeffs] * m)
            mine.sort(key=lambda t: (len(t), t))
            assert tuple(mine) == kronecker_monic_factors(list(core.prim))
            oracle_checked += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        elapsed,
        60.0,
        f"300 composites round-trip; {oracle_checked} matched the Kronecker oracle",
    )


def test_criterion_07_divisor_enumeration_witness():
    start = time.perf_counter()
    S23 = PuiseuxMonoid([2, 3])
    result = divisors_in_algebra(parse_poly("X^6-1"), S23)
    expected = {
        parse_poly("1"),
        parse_poly("X^2-1"),
        parse_poly("X^3-1"),
        parse_poly("X^3+1"),
        parse_poly("X^4+X^2+1"),
        parse_poly("X^6-1"),
    }
    assert set(result.divisors) == expected

    pool = [
        QPoly([-1, 1]),
        QPoly([1, 1]),
        QPoly([1, 1, 1]),
        QPoly([1, -1, 1]),
        QPoly([2, -1, 1]),
        QPoly([-2, 0, 1]),
        QPoly([2, 1]),
        QPoly([1, 0, 1]),
    ]
    rng = random.Random(229)
    compared = 0
    for S in (PuiseuxMonoid([1]), S23):
        for _ in range(60):
            f = QPoly([rng.randint(1, 3)])
            while True:
                step = rng.choice(pool)
                if f.degree + step.degree > 6:
                    break
                f = f * step
                if rng.random() < 0.35:
                    break
            shift = rng.randint(0, max(0, 6 - f.degree))
            f = f * QPoly([0] * shift + [1])
            element = PuiseuxPoly.from_qpoly(f, 1)
            if any(not S.contains(e) for e in element.support):
                continue
            mine = {g.terms for g in divisors_in_algebra(element, S).divisors}
            oracle = {
                tuple((Rat(e), c) for e, c in terms)
                for terms in brute_divisor_set(element.terms, S.generators)
            }
            assert mine == oracle
            compared += 1
    elapsed = time.perf_counter() - start
    assert compared >= 80
    _report(7, elapsed, 30.0, f"6 divisor classes of X^6-1; {compared} oracle matches")


def test_criterion_08_generalized_cyclotomic_ff_witness():
    start = time.perf_counter()
    products = [
        cyclotomic_poly(1) * cyclotomic_poly(2),
        cyclotomic_poly(3),
        cyclotomic_poly(2) * cyclotomic_poly(6),
    ]
    grids = [
        (PuiseuxMonoid([2, 3]), [Rat(2), Rat(3)]),
        (PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]), [Rat(1, 2), Rat(2, 3)]),
    ]
    instances = 0
    for S, scales in grids:
        for product in products:
            for s in scales:
                f = PuiseuxPoly.from_qpoly(product, s)
                count = ff_divisor_count(f, S)
                assert count >= 2
                for g in divisors_in_algebra(f, S).divisors:
                    if not g.is_monomial:
                        assert g.is_symmetric_support()
                instances += 1
    elapsed = time.perf_counter() - start
    _report(8, elapsed, 30.0, f"{instances} generalized cyclotomics: finite, symmetric divisors")


def test_criterion_09_scaling_divisor_bijection():
    rng = random.Random(233)
    monoids = [
        PuiseuxMonoid([1]),
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]),
        PuiseuxMonoid([Rat(3, 4), Rat(5, 6)]),
    ]
    ratios = [Rat(1, 2), Rat(2), Rat(3, 2), Rat(5, 3), Rat(3)]
    start = time.perf_counter()
    for _ in range(100):
        S = rng.choice(monoids)
        gens = list(S.generators)
        f = PuiseuxPoly.monomial(rng.randint(1, 3), rng.choice(gens))
        for _ in range(rng.randint(1, 2)):
            g = rng.choice(gens)
            f = f * (PuiseuxPoly.monomial(1, g) + (-1) ** rng.randint(0, 1))
        r = rng.choice(ratios)
        before = divisors_in_algebra(f, S)
        after = divisors_in_algebra(f.substitute(r), S.scaled(r))
        assert len(before.divisors) == len(after.divisors)
        mapped = {g.substitute(r) * (1 / g.leading_coefficient) for g in before.divisors}
        assert mapped == set(after.divisors)
    elapsed = time.perf_counter() - start
    _report(9, elapsed, 30.0, "100 scaled instances give divisor-set bijections")


def test_criterion_10_monoid_layer():
    start = time.perf_counter()
    assert PuiseuxMonoid([2, 3]).divisors_of(6) == (0, 2, 3, 4, 6)
    assert PuiseuxMonoid([2, 3, 5]).atoms() == (2, 3)
    rng = random.Random(239)
    monoids = [
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]),
        PuiseuxMonoid([4, 6, 9]),
    ]
    for _ in range(1000):
        S = rng.choice(monoids)
        q = Fraction(rng.randint(0, 60), rng.randint(1, 12))
        assert S.contains(q) == dp_membership(q, S.generators)
    elapsed = time.perf_counter() - start
    _report(10, elapsed, 5.0, "divisors/atoms exact; 1000 membership queries match DP")
