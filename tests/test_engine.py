"""Canonical factorization and divisor enumeration in Q[S]."""

import random
import time
from fractions import Fraction

import pytest

from puiseux import (
    CanonicalFactorization,
    DomainError,
    PuiseuxMonoid,
    PuiseuxPoly,
    QPoly,
    Rat,
    ResourceLimitError,
    canonical_factorization,
    classify_cyclotomic,
    cyclotomic_poly,
    divisors_in_algebra,
    ff_divisor_count,
    is_atom_in_algebra,
    parse_poly,
    recompose,
)
from puiseux import cyclotomic, engine
from puiseux._intpoly import zz_gcd, zz_trial_div

from reference import brute_divisor_set, canonical_by_fiber, untruncated_divisors
from randgen import (
    NONCYCLOTOMIC_IRREDUCIBLES,
    power,
    random_composite,
    random_cyclotomic_product,
    random_fraction,
)


def test_canonical_factorization_examples():
    cf = canonical_factorization(parse_poly("X^3 + X + 2"))
    assert cf.constant == 1
    assert cf.clearing_denominator == 1
    assert cf.monomial_exponent == 0
    assert cf.cyclotomic_part == ((2, 1),)
    assert cf.prime_part == ((QPoly([2, -1, 1]), 1),)

    cf = canonical_factorization(parse_poly("X^(1/2) - 1"))
    assert (cf.constant, cf.clearing_denominator) == (1, 2)
    assert cf.monomial_exponent == 0
    assert cf.cyclotomic_part == ((1, 1),)
    assert cf.prime_part == ()

    cf = canonical_factorization(parse_poly("X^(3/2) - X^(1/2)"))
    assert (cf.constant, cf.clearing_denominator) == (1, 2)
    assert cf.monomial_exponent == Rat(1, 2)
    assert cf.cyclotomic_part == ((1, 1), (2, 1))
    assert cf.prime_part == ()

    cf = canonical_factorization(parse_poly("2*X^(5/2)"))
    assert cf.constant == 2
    assert cf.monomial_exponent == Rat(5, 2)
    assert cf.cyclotomic_part == () and cf.prime_part == ()


def test_canonical_factorization_zero_rejected():
    with pytest.raises(DomainError):
        canonical_factorization(PuiseuxPoly.zero())


def test_recompose_examples():
    for text in ("X^3 + X + 2", "X^(1/2) - 1", "X^(3/2) - X^(1/2)", "2*X^(5/2)"):
        f = parse_poly(text)
        assert recompose(canonical_factorization(f)) == f
    trivial = CanonicalFactorization(Fraction(1), 1, Rat(0), (), ())
    assert recompose(trivial) == PuiseuxPoly.one()
    half = CanonicalFactorization(Fraction(1), 2, Rat(0), ((1, 1),), ())
    assert recompose(half) == parse_poly("X^(1/2) - 1")


def test_round_trip_random_composites():
    rng = random.Random(103)
    for _ in range(120):
        f = random_composite(rng)
        assert recompose(canonical_factorization(f)) == f


def test_canonical_factorization_matches_fiber_classification():
    # The route that classifies each factor of factor_over_rationals by its
    # inverse-totient fiber, on random composites and on cyclotomic products
    # times powers of non-cyclotomic irreducibles, a squared cyclotomic
    # product, a monomial X^(k/den) and a rational constant.
    rng = random.Random(307)
    cases = [random_composite(rng) for _ in range(60)]
    for _ in range(40):
        q = random_cyclotomic_product(rng) * power(random_cyclotomic_product(rng, max_degree=8), 2)
        q = q * power(rng.choice(NONCYCLOTOMIC_IRREDUCIBLES), rng.randint(1, 3))
        den = rng.randint(1, 4)
        monomial = PuiseuxPoly.monomial(random_fraction(rng), Rat(rng.randint(0, 3), den))
        cases.append(PuiseuxPoly.from_qpoly(q, Rat(1, den)) * monomial)
    results = [canonical_factorization(f) for f in cases]
    assert results == [canonical_by_fiber(f) for f in cases]
    assert sum(cf.clearing_denominator > 1 for cf in results) >= 40
    assert sum(cf.monomial_exponent > 0 for cf in results) >= 40
    assert sum(any(e > 1 for _, e in cf.cyclotomic_part + cf.prime_part) for cf in results) >= 40
    assert sum(bool(cf.cyclotomic_part and cf.prime_part) for cf in results) >= 40


def test_binomial_shortcut_matches_dense_path(monkeypatch):
    # c*X^(j/m)*(X^(n/m) +- 1) read off its terms against the dense route
    # (clear, factor over Q with the cyclotomic split).  The primitive
    # cleared cores are X^k +- 1 with k <= 60, so their factorizations are
    # memoized.
    factored: dict[tuple[int, ...], tuple] = {}
    factor_primitive = cyclotomic.factor_primitive

    def factor(core):
        if tuple(core) not in factored:
            factored[tuple(core)] = factor_primitive(core)
        return factored[tuple(core)]

    monkeypatch.setattr(cyclotomic, "factor_primitive", factor)
    rng = random.Random(211)
    for n in range(1, 61):
        for m in range(1, 7):
            for sign in (1, -1):
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                j = rng.randint(0, 2 * m)
                f = PuiseuxPoly([(Fraction(j, m), sign * c), (Fraction(j + n, m), c)])
                shortcut = engine._binomial_factorization(f)
                assert shortcut == engine._dense_factorization(f), (n, m, sign, j, c)
                if n % 15 == 0:
                    assert recompose(shortcut) == f


def test_shortcut_leaves_other_elements_to_the_dense_path(monkeypatch):
    calls = []
    factor = cyclotomic.factor_primitive
    monkeypatch.setattr(cyclotomic, "factor_primitive", lambda f: calls.append(f) or factor(f))
    for text in ("X^5 - 2", "2*X^3 + 3", "X^2 + X + 1", "X^(1/2) + 2*X"):
        f = parse_poly(text)
        before = len(calls)
        assert recompose(canonical_factorization(f)) == f
        assert len(calls) == before + 1, text


def test_binomials_factor_without_dense_work(monkeypatch):
    def refuse(f):
        raise AssertionError("a binomial reached the dense factorizer")

    monkeypatch.setattr(cyclotomic, "factor_primitive", refuse)
    cf = canonical_factorization(parse_poly("X^3000000 + 1"))
    assert cf.cyclotomic_part[0] == (128, 1) and cf.cyclotomic_part[-1] == (6_000_000, 1)
    assert len(cf.cyclotomic_part) == 14 and cf.prime_part == ()
    cf = canonical_factorization(parse_poly("X^(7/3) - 1"))
    assert (cf.constant, cf.clearing_denominator, cf.monomial_exponent) == (1, 3, 0)
    assert cf.cyclotomic_part == ((1, 1), (7, 1))
    cf = canonical_factorization(parse_poly("X^105 - 1"))
    assert [n for n, _ in cf.cyclotomic_part] == [1, 3, 5, 7, 15, 21, 35, 105]


def test_prime_components_are_noncyclotomic():
    rng = random.Random(107)
    for _ in range(40):
        f = random_composite(rng, max_cleared_degree=10)
        cf = canonical_factorization(f)
        for q, _ in cf.prime_part:
            assert q.is_monic
            assert classify_cyclotomic(q) is None
            # coprime to X^d - 1 for every candidate d up to the degree fiber
            for d in range(1, 13):
                xd = QPoly([-1] + [0] * (d - 1) + [1])
                assert zz_gcd(q.prim, xd.prim) == [1]


def test_divisors_examples():
    S = PuiseuxMonoid([2, 3])
    result = divisors_in_algebra(parse_poly("X^6 - 1"), S)
    expected = {
        parse_poly("1"),
        parse_poly("X^2 - 1"),
        parse_poly("X^3 - 1"),
        parse_poly("X^3 + 1"),
        parse_poly("X^4 + X^2 + 1"),
        parse_poly("X^6 - 1"),
    }
    assert set(result.divisors) == expected

    result = divisors_in_algebra(parse_poly("X^2 - 1"), S)
    assert set(result.divisors) == {parse_poly("1"), parse_poly("X^2 - 1")}

    result = divisors_in_algebra(parse_poly("X - 1"), PuiseuxMonoid([1]))
    assert set(result.divisors) == {parse_poly("1"), parse_poly("X - 1")}


def test_divisors_preconditions():
    S = PuiseuxMonoid([2, 3])
    with pytest.raises(DomainError):
        divisors_in_algebra(parse_poly("X - 1"), S)  # supp not inside S
    with pytest.raises(DomainError):
        divisors_in_algebra(PuiseuxPoly.zero(), S)


def test_atom_examples():
    S = PuiseuxMonoid([2, 3])
    assert is_atom_in_algebra(parse_poly("X^2 - 1"), S)
    assert not is_atom_in_algebra(parse_poly("X^2 - 1"), PuiseuxMonoid([1]))
    assert is_atom_in_algebra(parse_poly("X^2 + 1"), S)
    with pytest.raises(DomainError):
        is_atom_in_algebra(parse_poly("5"), S)


def test_count_examples():
    S = PuiseuxMonoid([2, 3])
    assert ff_divisor_count(parse_poly("X^6 - 1"), S) == 6
    assert ff_divisor_count(parse_poly("X - 1"), PuiseuxMonoid([1])) == 2
    assert ff_divisor_count(parse_poly("2*X^2"), S) == 2


def test_divisor_set_contains_unit_and_self_classes():
    S = PuiseuxMonoid([2, 3])
    f = parse_poly("3*X^6 - 3")
    result = divisors_in_algebra(f, S)
    assert parse_poly("1") in result.divisors
    assert f * (1 / f.leading_coefficient) in result.divisors


def test_divisor_cofactor_closure_and_support():
    S = PuiseuxMonoid([Rat(1, 2), Rat(2, 3)])
    f = PuiseuxPoly.from_qpoly(cyclotomic_poly(1) * cyclotomic_poly(2), Rat(1, 2))
    result = divisors_in_algebra(f, S)
    scale, numerical = S.normalization()
    monic = f * (1 / f.leading_coefficient)
    divisors = set(result.divisors)
    for g in result.divisors:
        for e in g.support:
            assert S.contains(e)
        # exact cofactor via the scaled polynomial ring
        num = monic.substitute(scale).to_qpoly()
        den = g.substitute(scale).to_qpoly()
        q = zz_trial_div(list(num.prim), list(den.prim))
        assert q is not None
        cofactor = PuiseuxPoly.from_qpoly(QPoly.from_ints(Fraction(1, q[-1]), q), Rat(1) / scale)
        assert cofactor in divisors
        for e in cofactor.support:
            assert S.contains(e)


def test_generalized_cyclotomic_divisors_symmetric():
    products = [
        cyclotomic_poly(1) * cyclotomic_poly(2),
        cyclotomic_poly(3),
        cyclotomic_poly(2) * cyclotomic_poly(6),
    ]
    grids = [
        (PuiseuxMonoid([2, 3]), [Rat(2), Rat(3)]),
        (PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]), [Rat(1, 2), Rat(2, 3)]),
    ]
    for S, scales in grids:
        for product in products:
            for s in scales:
                f = PuiseuxPoly.from_qpoly(product, s)
                result = divisors_in_algebra(f, S)
                assert len(result.divisors) >= 2
                for g in result.divisors:
                    assert g.is_symmetric_support()


def test_scaling_gives_divisor_bijection():
    rng = random.Random(109)
    monoids = [
        PuiseuxMonoid([1]),
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]),
    ]
    ratios = [Rat(1, 2), Rat(2), Rat(3, 2), Rat(5, 3)]
    for _ in range(40):
        S = rng.choice(monoids)
        gens = list(S.generators)
        f = PuiseuxPoly.one()
        for _ in range(rng.randint(1, 2)):
            g = rng.choice(gens)
            f = f * (PuiseuxPoly.monomial(1, g) + (-1) ** rng.randint(0, 1))
        f = f * PuiseuxPoly.monomial(rng.randint(1, 3), rng.choice(gens))
        r = rng.choice(ratios)
        before = divisors_in_algebra(f, S)
        after = divisors_in_algebra(f.substitute(r), S.scaled(r))
        assert len(before.divisors) == len(after.divisors)
        mapped = {g.substitute(r) * (1 / g.leading_coefficient) for g in before.divisors}
        assert mapped == set(after.divisors)


def test_matches_brute_force_oracle():
    pool = [
        QPoly([-1, 1]),
        QPoly([1, 1]),
        QPoly([1, 1, 1]),
        QPoly([1, -1, 1]),
        QPoly([2, -1, 1]),
        QPoly([-2, 0, 1]),
        QPoly([2, 1]),
        # monic associates with non-integer coefficients: the primitive
        # integer associates used by the walk differ from them
        QPoly([1, 2]),
        QPoly([1, 0, 3]),
        QPoly([Fraction(1, 2), 1]),
    ]
    rng = random.Random(113)
    for S in (PuiseuxMonoid([1]), PuiseuxMonoid([2, 3])):
        for _ in range(30):
            f = QPoly([1])
            while True:
                step = rng.choice(pool)
                if f.degree + step.degree > 6:
                    break
                f = f * step
                if rng.random() < 0.4:
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


def test_cyclotomic_rich_divisor_walk_is_fast():
    start = time.perf_counter()
    result = divisors_in_algebra(parse_poly("X^60 - 1"), PuiseuxMonoid([2, 3]))
    assert time.perf_counter() - start < 1.0
    assert len(result.divisors) == 1120


def test_divisor_count_and_atom_test_build_no_divisor(monkeypatch):
    built = []
    original = PuiseuxPoly._from_canonical

    def counting(cls, terms):
        built.append(terms)
        return original(terms)

    monkeypatch.setattr(PuiseuxPoly, "_from_canonical", classmethod(counting))
    f, S = parse_poly("X^60 - 1"), PuiseuxMonoid([2, 3])
    assert ff_divisor_count(f, S) == 1120
    assert built == []
    assert not is_atom_in_algebra(f, S)
    assert len(built) <= 3
    built.clear()
    assert len(divisors_in_algebra(f, S).divisors) == 1120
    assert len(built) == 1120


def _element_in(rng: random.Random, S: PuiseuxMonoid) -> PuiseuxPoly:
    """c * Y^t * prod B(Y^g)^e with Y = X^(1/scale): blocks B composed with
    generators g of the scaled monoid N, some squared or cubed, and t a
    member of N up to just past its conductor, so the support lies in S and
    straddles the conductor."""
    scale, N = S.normalization()
    pool = [cyclotomic_poly(n) for n in (1, 2, 3, 4, 6)] + NONCYCLOTOMIC_IRREDUCIBLES
    t = rng.choice([x for x in range(N.conductor + 4) if N.contains(x)])
    f = PuiseuxPoly.monomial(random_fraction(rng), t)
    for _ in range(rng.randint(1, 4)):
        g = rng.choice(N.generators)
        block = rng.choice(pool)
        power = rng.choice((1, 1, 2, 3))
        if f.degree - t + block.degree * g * power > 36:
            break
        f = f * PuiseuxPoly.from_qpoly(block, g) ** power
    return f.substitute(Rat(1) / scale)


def test_divisors_match_untruncated_walk():
    rng = random.Random(127)
    monoids = [
        PuiseuxMonoid([1]),
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([3, 5, 7]),
        PuiseuxMonoid([5, 7]),
        PuiseuxMonoid([Rat(1, 2), Rat(1, 3)]),
        PuiseuxMonoid([Rat(2, 3), 1]),
    ]
    for S in monoids:
        for _ in range(12):
            f = _element_in(rng, S)
            expected = untruncated_divisors(f, S)
            result = divisors_in_algebra(f, S)
            assert result.divisors == expected
            for g in result.divisors:
                assert all(type(e) is Rat and type(c) is Fraction for e, c in g.terms)
            keys, _ = engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)
            assert len(list(keys)) == len(set(expected)) == ff_divisor_count(f, S)


def test_cyclotomic_rich_dense_factorization_is_fast():
    seven = QPoly([1])
    for n in (7, 9, 15, 21, 35, 45, 63):
        seven = seven * cyclotomic_poly(n)
    cases = [
        (parse_poly("X^106 + 2*X^105 - X - 2"), (1, 3, 5, 7, 15, 21, 35, 105), 1),
        (PuiseuxPoly.from_qpoly(seven), (7, 9, 15, 21, 35, 45, 63), 0),
    ]
    for f, indices, primes in cases:
        start = time.perf_counter()
        cf = canonical_factorization(f)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"{f.degree}: {elapsed:.3f}s"
        assert cf.cyclotomic_part == tuple((n, 1) for n in indices)
        assert len(cf.prime_part) == primes
        assert recompose(cf) == f


def test_resource_limit_guard():
    S = PuiseuxMonoid([1])
    f = parse_poly("X^6 - 1")
    with pytest.raises(ResourceLimitError):
        divisors_in_algebra(f, S, limit=4)
    # generous limit succeeds
    assert len(divisors_in_algebra(f, S, limit=1 << 20).divisors) > 2
