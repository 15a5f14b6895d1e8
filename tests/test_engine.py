"""Canonical factorization and divisor enumeration in Q[S]."""

import random
import time
from fractions import Fraction

import pytest

from puiseux import (
    CanonicalFactorization,
    DomainError,
    NumericalMonoid,
    PuiseuxMonoid,
    PuiseuxPoly,
    QPoly,
    Rat,
    ResourceLimitError,
    canonical_factorization,
    cyclotomic_poly,
    divisors_in_algebra,
    ff_divisor_count,
    is_atom_in_algebra,
    parse_poly,
    recompose,
)
from puiseux import engine
from puiseux._intpoly import zz_gcd, zz_mul, zz_trial_div

import reference
from reference import (
    brute_divisor_set,
    canonical_by_fiber,
    classify_by_fiber,
    dense_factorization,
    untruncated_divisors,
)
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
        canonical_factorization(PuiseuxPoly())


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
    # The route that factors over Q without the cyclotomic split and
    # classifies each factor by its inverse-totient fiber, on random
    # composites and on cyclotomic products times powers of
    # non-cyclotomic irreducibles, a squared cyclotomic product, a monomial
    # X^(k/den) and a rational constant.
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


# Irreducible over Q and not cyclotomic, with leading coefficients 2, 3, 4,
# 5 and 7: primes of one degree are ordered by their monic coefficients
# alone, and 2X^2 + 1, 2X^2 + 2X + 1 and 4X^2 + X + 2 tie at 1/2 in the first.
NON_MONIC = [
    QPoly(c)
    for c in ([1, 0, 2], [1, 2, 2], [2, 1, 4], [1, 1, 3], [-1, 2, 5], [3, 0, 7], [1, 2], [-1, 3], [5, 4], [1, 1, 0, 2])
]
BENCH_MONOIDS = [
    PuiseuxMonoid([2, 3]),
    PuiseuxMonoid([3, 5, 7]),
    PuiseuxMonoid([Rat(1, 2), Rat(1, 3)]),
    PuiseuxMonoid([Rat(2, 3), 1]),
]


def _outcome(call):
    """call()'s value, or the type and text of the library error it raises."""
    try:
        return call()
    except (DomainError, ResourceLimitError) as exc:
        return type(exc), str(exc)


def test_integer_route_matches_the_route_through_rational_objects():
    rng = random.Random(39)
    cases = []
    for _ in range(60):
        poly = QPoly([random_fraction(rng)])
        for q in rng.sample(NON_MONIC, rng.randint(2, 5)):
            poly = poly * power(q, rng.choice((1, 1, 2)))
        if rng.random() < 0.5:
            poly = poly * cyclotomic_poly(rng.randint(1, 12))
        den = rng.randint(1, 6)
        shift = PuiseuxPoly.monomial(1, Rat(rng.randint(0, 6), den))
        cases.append(PuiseuxPoly.from_qpoly(poly, Rat(1, den)) * shift)
    cases += [random_composite(rng) for _ in range(40)]
    texts = (
        "X^(5/2) - 1", "3*X^(7/3) + 3*X^(1/3)", "2*X^(1/2) + 3*X^(1/3) - X^(1/6)", "-2/3*X^(4/5)",
        # both sides of the dense cap, which reads the full scaled degree
        "X^(65536/3) + 2*X^(65535/3)", "X^(65537/3) + 2*X^(65535/3)", "X^70000 + 2*X^69990",
        "X^70000 + X^69990",
    )
    cases += [parse_poly(text) for text in texts]
    results = [_outcome(lambda: canonical_factorization(f)) for f in cases]
    assert results == [_outcome(lambda: reference.canonical_by_clearing(f)) for f in cases]
    assert [r for r in results if type(r) is tuple] == [
        (ResourceLimitError, f"dense degree {n} exceeds the cap of 65536") for n in (65537, 70000)
    ]
    leads = [{q.prim[-1] for q, _ in cf.prime_part} for cf in results[:60]]
    assert sum(len(lc) >= 3 for lc in leads) >= 20


def test_divisors_match_the_route_through_rational_objects():
    rng = random.Random(39)
    cases = []
    for S in BENCH_MONOIDS:
        scale, N = S.normalization()
        for _ in range(6):
            f = PuiseuxPoly.monomial(random_fraction(rng), rng.choice(N.generators))
            for q in rng.sample(NON_MONIC, rng.randint(1, 3)):
                f = f * PuiseuxPoly.from_qpoly(q, rng.choice(N.generators))
            cases.append((f.substitute(Rat(1) / scale), S))
    outside = (
        ("X^(1/5) + 1", [Rat(1, 2), Rat(1, 3)]),
        ("X^70001 + 3*X", [2, 3]),  # outside the monoid, and past the cap
        ("X^(1/2) + 2*X^(1/3) + 1", [Rat(2, 3), 1]),
    )
    cases += [(parse_poly(text), PuiseuxMonoid(gens)) for text, gens in outside]
    # both sides of the dense cap, with two splits of X^65535 and of X^65536
    cases += [
        (parse_poly("X^65536 + 2*X^65535"), PuiseuxMonoid([65535, 65536])),
        (parse_poly("X^65537 + 2*X^65536"), PuiseuxMonoid([65536, 65537])),
    ]
    for f, S in cases:
        expected = _outcome(lambda: reference.untruncated_divisors(f, S))
        assert _outcome(lambda: divisors_in_algebra(f, S).divisors) == expected, (f, S)
        walk = lambda: list(engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)[0])
        assert _outcome(walk) == _outcome(lambda: reference.list_walk_keys(f, S)), (f, S)
    errors = [_outcome(lambda: divisors_in_algebra(f, S)) for f, S in cases[-5:]]
    assert errors[:3] == [
        (DomainError, f"support exponent {e} lies outside the monoid") for e in ("1/5", "1", "1/3")
    ]
    assert len(errors[3].divisors) == 2
    assert errors[4] == (ResourceLimitError, "dense degree 65537 exceeds the cap of 65536")


def test_binomial_shortcut_matches_dense_path(monkeypatch):
    # c*X^(j/m)*(X^(n/m) +- 1) read off its terms against the dense route
    # of the reference (clear, factor over Q with the cyclotomic split).
    # The primitive cleared cores are X^k +- 1 with k <= 60, so their
    # factorizations are memoized.
    factored: dict[tuple[int, ...], tuple] = {}
    factor_primitive = reference.factor_primitive

    def factor(core):
        if tuple(core) not in factored:
            factored[tuple(core)] = factor_primitive(core)
        return factored[tuple(core)]

    monkeypatch.setattr(reference, "factor_primitive", factor)
    rng = random.Random(211)
    for n in range(1, 61):
        for m in range(1, 7):
            for sign in (1, -1):
                c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                j = rng.randint(0, 2 * m)
                f = PuiseuxPoly([(Fraction(j, m), sign * c), (Fraction(j + n, m), c)])
                shortcut = canonical_factorization(f)
                assert shortcut == dense_factorization(f), (n, m, sign, j, c)
                if n % 15 == 0:
                    assert recompose(shortcut) == f


def test_shortcut_leaves_other_elements_to_the_dense_path(monkeypatch):
    calls = []
    factor = engine.factor_primitive
    monkeypatch.setattr(engine, "factor_primitive", lambda f: calls.append(f) or factor(f))
    for text in ("X^5 - 2", "2*X^3 + 3", "X^2 + X + 1", "X^(1/2) + 2*X"):
        f = parse_poly(text)
        before = len(calls)
        assert recompose(canonical_factorization(f)) == f
        assert len(calls) == before + 1, text


def test_binomials_factor_without_dense_work(monkeypatch):
    def refuse(f):
        raise AssertionError("a binomial reached the dense factorizer")

    monkeypatch.setattr(engine, "factor_primitive", refuse)
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
            assert q.leading_coefficient == 1
            assert classify_by_fiber(q) is None
            # coprime to X^d - 1 for every candidate d up to the degree fiber
            for d in range(1, 13):
                xd = QPoly([-1] + [0] * (d - 1) + [1])
                assert zz_gcd(q.prim, xd.prim)[0] == [1]


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
        divisors_in_algebra(PuiseuxPoly(), S)


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
            f = f * PuiseuxPoly([(g, 1), (0, (-1) ** rng.randint(0, 1))])
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


def test_walk_in_a_scaled_monoid_builds_no_element_and_no_qpoly(monkeypatch):
    # <1/2, 1/3> scales by 6, so the walk reads X^10 - 1 at X^6; counts and
    # atom tests build no element and no QPoly but the Phi_n cyclotomic_poly
    # caches, and listing builds one element per kept divisor
    f, S = parse_poly("X^10 - 1"), PuiseuxMonoid([Rat(1, 2), Rat(1, 3)])
    built, qpolys = [], []
    canonical, checking = PuiseuxPoly._from_canonical, PuiseuxPoly.__init__
    monkeypatch.setattr(
        PuiseuxPoly, "_from_canonical", classmethod(lambda cls, t: built.append(t) or canonical(t))
    )
    monkeypatch.setattr(PuiseuxPoly, "__init__", lambda g, *a: built.append(a) or checking(g, *a))
    # every QPoly is made by _normalize (QPoly(), from_ints) or by _monic
    normalize, monic = QPoly._normalize, QPoly._monic
    monkeypatch.setattr(QPoly, "_normalize", lambda q, *a: qpolys.append(a) or normalize(q, *a))
    monkeypatch.setattr(QPoly, "_monic", lambda g: qpolys.append(g) or monic(g))
    misses = cyclotomic_poly.cache_info().misses
    assert ff_divisor_count(f, S) == 1120
    assert not is_atom_in_algebra(f, S)
    assert built == []
    assert len(qpolys) == cyclotomic_poly.cache_info().misses - misses
    assert len(divisors_in_algebra(f, S).divisors) == 1120
    assert len(built) == 1120


def test_divisor_walk_tests_membership_with_one_gap_mask(monkeypatch):
    # the walk reads one bitmask of the gaps below k + c, not one
    # membership query per coefficient and split at every leaf
    calls = []
    contains = NumericalMonoid.contains
    monkeypatch.setattr(NumericalMonoid, "contains", lambda N, x: calls.append(x) or contains(N, x))
    assert ff_divisor_count(parse_poly("X^60 - 1"), PuiseuxMonoid([2, 3])) == 1120
    assert len(calls) < 20


def test_build_makes_each_prefix_once_in_any_key_order(monkeypatch):
    f, S = parse_poly("X^60 - 1"), PuiseuxMonoid([2, 3])
    products, divisors = [], []
    for order in ("walk", "shuffled"):
        keys, rank, build = engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)
        keys = list(keys)
        if order == "shuffled":
            random.Random(28).shuffle(keys)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(engine, "zz_mul", lambda g, h: calls.append(1) or zz_mul(g, h))
            divisors.append(sorted(map(build, map(rank, keys)), key=lambda g: (g.degree, g.terms)))
        products.append(len(calls))
    assert products[0] == products[1]
    assert divisors[0] == divisors[1] and len(divisors[0]) == 1120


def _count_walk_products(monkeypatch) -> tuple[list, list]:
    """Record the engine's list products and the walk's packed products."""
    calls, steps = [], []

    class Power(int):
        # a packed factor power: counts every product g * power of the walk
        def __and__(self, mask):
            return Power(int(self) & mask)

        def __rmul__(self, g):
            steps.append(1)
            return g * int(self)

    pack = engine.zz_eval_pow2
    monkeypatch.setattr(engine, "zz_mul", lambda g, h: calls.append(1) or zz_mul(g, h))
    monkeypatch.setattr(engine, "zz_eval_pow2", lambda f, w: Power(pack(f, w)))
    return calls, steps


def test_divisor_walk_multiplies_each_choice_with_its_mirror(monkeypatch):
    # one packed product per node and choice pair, none by the unit power:
    # 16,380 before the walk paired each choice with its mirror.  The only
    # list products are the factor powers: X^60 - 1 has twelve cyclotomic
    # factors, each to the first power; the walk on lists made 4,107 here.
    calls, steps = _count_walk_products(monkeypatch)
    f, S = parse_poly("X^60 - 1"), PuiseuxMonoid([2, 3])
    assert ff_divisor_count(f, S) == 1120
    assert len(calls) == sum(e for _, e in canonical_factorization(f).cyclotomic_part) == 12
    assert 0 < len(steps) <= 4095


def test_walk_yields_a_choice_equal_to_its_mirror_once():
    # all multiplicities even, so the choice (2, 1, 1) is its own mirror
    S = PuiseuxMonoid([2, 3])
    f = parse_poly("X^4") * parse_poly("X^2 - 2") ** 2 * parse_poly("X^2 + X + 1") ** 2
    f = f * parse_poly("X + 1") ** 4
    keys = list(engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)[0])
    assert (2, (2, 1, 1)) in keys
    assert len(keys) == len(set(keys)) == ff_divisor_count(f, S) == len(untruncated_divisors(f, S))


def test_divisors_sort_by_degree_then_terms_across_leading_coefficients():
    # divisors are sorted as integer ranks, scaled by the product of the
    # factors' leading coefficients; 2X^2+3X+3 and 3X^2+2 give divisors of
    # one degree whose order only the coefficients decide
    rng = random.Random(131)
    pool = [QPoly([3, 3, 2]), QPoly([2, 0, 3]), QPoly([-1, 3]), cyclotomic_poly(1), cyclotomic_poly(3)]
    for S in (PuiseuxMonoid([2, 3]), PuiseuxMonoid([3, 5, 7]), PuiseuxMonoid([Rat(1, 2), Rat(1, 3)])):
        scale, N = S.normalization()
        for _ in range(8):
            f = PuiseuxPoly.monomial(random_fraction(rng), rng.choice(N.generators))
            for _ in range(rng.randint(2, 4)):
                block = PuiseuxPoly.from_qpoly(rng.choice(pool), rng.choice(N.generators))
                power = rng.choice((1, 2, 2))
                if f.degree + block.degree * power > 30:
                    break
                f = f * block**power
            divisors = divisors_in_algebra(f.substitute(Rat(1) / scale), S).divisors
            assert divisors == tuple(sorted(divisors, key=lambda g: (g.degree, g.terms)))


def test_support_outside_the_monoid_names_the_smallest_exponent():
    for text, gens, exponent in (
        ("X^(1/2) + 1", [1], "1/2"),
        ("X + 1", [2, 3], "1"),
        ("X^(1/2) + X^(1/3) + 1", [1], "1/3"),
    ):
        match = f"support exponent {exponent} lies outside the monoid"
        with pytest.raises(DomainError, match=match):
            divisors_in_algebra(parse_poly(text), PuiseuxMonoid(gens))
    for text in ("X + 1", "7"):
        with pytest.raises(DomainError):
            ff_divisor_count(parse_poly(text), PuiseuxMonoid([]))


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
        PuiseuxMonoid([10, 11]),
        PuiseuxMonoid([7, 11, 13]),
    ]
    for S in monoids:
        for _ in range(12):
            f = _element_in(rng, S)
            expected = untruncated_divisors(f, S)
            result = divisors_in_algebra(f, S)
            assert result.divisors == expected
            for g in result.divisors:
                assert all(type(e) is Rat and type(c) is Fraction for e, c in g.terms)
            keys = engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)[0]
            assert len(list(keys)) == len(set(expected)) == ff_divisor_count(f, S)
            if f.degree > 0:
                assert is_atom_in_algebra(f, S) == (len(expected) == 2)


def test_truncating_the_monoid_at_deg_f_keeps_every_answer():
    # S is T plus generators above deg f (and some below it, in [1, deg f]),
    # with denominators dividing T's, so that the walk on all of S stays
    # small.  The public calls walk S cut at max(deg f, least generator), and
    # _divisor_walk on S itself walks every generator.
    rng = random.Random(161)
    bases = [
        PuiseuxMonoid([1]),
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([3, 5, 7]),
        PuiseuxMonoid([Rat(1, 2), Rat(1, 3)]),
        PuiseuxMonoid([Rat(2, 3), 1]),
    ]
    for case in range(60):
        T = bases[case % len(bases)]
        f = _element_in(rng, T)
        degree, dens = f.degree, [d for d in (1, 2, 3, 6) if T.normalization()[0].numerator % d == 0]
        above = [degree + Rat(rng.randint(1, 9), rng.choice(dens)) for _ in range(rng.randint(1, 3))]
        below = [Rat(rng.randint(1, 12), rng.choice(dens)) for _ in range(rng.randint(0, 2))]
        S = PuiseuxMonoid(list(T.generators) + above + [g for g in below if g <= degree])
        keys, rank, build = engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)
        expected = tuple(map(build, sorted(map(rank, keys))))
        result = divisors_in_algebra(f, S)
        assert result.divisors == expected, (f, S)
        assert result.monoid is S
        assert ff_divisor_count(f, S) == len(expected)
        if degree > 0:
            assert is_atom_in_algebra(f, S) == (len(expected) == 2)
        truncated = engine._truncated(f, S)
        assert all(g <= max(degree, S.generators[0]) for g in truncated.generators)
        assert set(truncated.generators) < set(S.generators)
        assert engine._truncated(f, truncated) is truncated


def test_truncation_keeps_a_generator_equal_to_deg_f_and_the_least_one():
    for text, gens, kept in (("X^3 - 1", [2, 3, 7], [2, 3]), ("X^2 - 1", [2, 3], [2]), ("7", [2, 3], [2])):
        f, S = parse_poly(text), PuiseuxMonoid(gens)
        assert engine._truncated(f, S).generators == tuple(map(Rat, kept))
        keys = engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)[0]
        assert ff_divisor_count(f, S) == len(list(keys))


def test_generators_above_deg_f_cost_nothing():
    # <(3/2)^0, ..., (3/2)^7>: the last three generators exceed deg f = 6 and
    # raise the clearing denominator from 16 to 128, and the walk on all eight
    # took about 10 s on a 2-vCPU virtual machine
    S = PuiseuxMonoid([Rat(3, 2) ** k for k in range(8)])
    f = parse_poly("X^6-1")
    assert engine._truncated(f, S).generators == tuple(Rat(3, 2) ** k for k in range(5))
    start = time.perf_counter()
    assert ff_divisor_count(f, S) == 24
    assert time.perf_counter() - start < 3.0


# irreducible over Q, with coefficients near 10^20 and gaps in their support
BIG_BLOCKS = [
    [10**20 + 1, 0, 1],
    [-(10**20 + 3), 1],
    [10**20, 1, 1],
    [-3, 0, -(10**20), 1],
]


def _big_element_in(rng: random.Random, S: PuiseuxMonoid) -> PuiseuxPoly:
    """Like _element_in, with blocks whose coefficients are near 10^20."""
    scale, N = S.normalization()
    t = rng.choice([x for x in range(N.conductor + 4) if N.contains(x)])
    f = PuiseuxPoly.monomial(random_fraction(rng), t)
    for _ in range(rng.randint(1, 3)):
        block = PuiseuxPoly.from_qpoly(QPoly(rng.choice(BIG_BLOCKS)), rng.choice(N.generators))
        f = f * block ** rng.choice((1, 1, 2))
    return f.substitute(Rat(1) / scale)


def test_packed_walk_matches_list_walk(monkeypatch):
    # the same keys in the same order as the walk on truncated lists
    rng = random.Random(32)
    monoids = [
        PuiseuxMonoid([1]),
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([3, 5, 7]),
        PuiseuxMonoid([5, 7]),
        PuiseuxMonoid([Rat(1, 2), Rat(1, 3)]),
        PuiseuxMonoid([Rat(2, 3), 1]),
        PuiseuxMonoid([10, 11]),
        PuiseuxMonoid([7, 11, 13]),
    ]
    cases = [(_element_in(rng, S), S) for S in monoids for _ in range(8)]
    cases += [(_big_element_in(rng, S), S) for S in monoids[1:] for _ in range(4)]
    # c = 0 in <1>; c is the core degree plus one in <100003, 100019>
    cases += [(parse_poly(text), PuiseuxMonoid([100003, 100019])) for text in ("7", "-2/3")]
    big = parse_poly(f"X^6 - {10**20}") ** 2 * parse_poly("X^2 - 1")
    cases += [(parse_poly(f"X^2 + {10**20}"), PuiseuxMonoid([2, 3])), (big, PuiseuxMonoid([2, 3]))]
    # a coefficient of exactly 2^63 at a gap: a 64-bit slot would read it as zero
    cases += [(parse_poly(f"X^4 + {2**63}*X^3 + X^2"), PuiseuxMonoid([2, 3]))]
    widths = []
    pack = engine.zz_eval_pow2
    monkeypatch.setattr(engine, "zz_eval_pow2", lambda f, w: widths.append(w) or pack(f, w))
    for f, S in cases:
        keys = list(engine._divisor_walk(f, S, engine.DEFAULT_DIVISOR_LIMIT)[0])
        assert keys == reference.list_walk_keys(f, S), (f, S)
    assert any(64 < w <= 128 for w in widths) and max(widths) > 128


def test_count_at_the_combination_cap_ends_in_seconds(monkeypatch):
    # 2^18 combinations in <7, 11, 13>: the list walk took 11 s here, the
    # packed one about 0.8 s, with no list product past the 18 factor powers.
    # The time bound only guards against a hang.
    calls, steps = _count_walk_products(monkeypatch)
    S = PuiseuxMonoid([7, 11, 13])
    start = time.perf_counter()
    assert ff_divisor_count(parse_poly("X^180 - 1"), S) == 30
    assert time.perf_counter() - start < 15.0
    assert len(calls) == 18 and 0 < len(steps) < 1 << 18


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


def test_binomials_past_the_dense_cap_reach_the_divisor_walk():
    # X^65537 - 1 = Phi_1 * Phi_65537 is read off its two terms, never made dense
    f, S = parse_poly("X^65537 - 1"), PuiseuxMonoid([1])
    phi = PuiseuxPoly.from_qpoly(cyclotomic_poly(65537))
    assert divisors_in_algebra(f, S).divisors == (PuiseuxPoly.one(), parse_poly("X - 1"), phi, f)
    assert ff_divisor_count(f, S) == 4
    assert not is_atom_in_algebra(f, S)
    assert ff_divisor_count(f, PuiseuxMonoid([2, 3])) == 2


def test_gap_mask_stops_at_the_core_degree():
    # the conductor of <100003, 100019> is 10,002,000,036, so a mask of
    # every gap below it would never be built
    S = PuiseuxMonoid([100003, 100019])
    start = time.perf_counter()
    assert ff_divisor_count(parse_poly("7"), S) == 1
    assert divisors_in_algebra(parse_poly("7"), S).divisors == (PuiseuxPoly.one(),)
    assert time.perf_counter() - start < 1.0


def test_divisor_cap_refuses_before_building_any_phi(monkeypatch):
    # X^3000000 - 1 has 98 cyclotomic indices, so 2^98 combinations
    built = []
    build = engine.cyclotomic_poly
    monkeypatch.setattr(engine, "cyclotomic_poly", lambda n: built.append(n) or build(n))
    with pytest.raises(ResourceLimitError, match="candidate divisors"):
        ff_divisor_count(parse_poly("X^3000000 - 1"), PuiseuxMonoid([1]))
    assert built == []


def test_build_cap_refuses_binomials_whose_divisors_are_too_large_to_build():
    # X^131072 - 1 has 2^18 classes of mean degree 2^16; X^131074 - 1 has 16,
    # but building them multiplies Phi_65537 by Phi_131074 in schoolbook
    S = PuiseuxMonoid([1])
    for f, T in (
        (parse_poly("X^131072 - 1"), S),
        (parse_poly("X - 1"), PuiseuxMonoid([Rat(1, 131072)])),
        (parse_poly("X^131074 - 1"), S),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="coefficient products"):
            divisors_in_algebra(f, T)
        assert time.perf_counter() - start < 2.0
    # the walk builds nothing, so counts and atom tests are still answered
    assert ff_divisor_count(parse_poly("X^131074 - 1"), S) == 16
    assert not is_atom_in_algebra(parse_poly("X^131072 - 1"), S)


def test_build_cap_refuses_at_the_first_key_not_after_the_walk(monkeypatch):
    # keys are ranked as the walk yields them, so the cap at the memo's root
    # is met before the other 2^18 - 1 keys of X^131072 - 1 are walked
    calls = []
    monkeypatch.setattr(engine, "zz_mul", lambda g, h: calls.append(1) or zz_mul(g, h))
    with pytest.raises(ResourceLimitError, match="coefficient products"):
        divisors_in_algebra(parse_poly("X^131072 - 1"), PuiseuxMonoid([1]))
    assert len(calls) < 1000


def test_resource_limit_guard():
    S = PuiseuxMonoid([1])
    f = parse_poly("X^6 - 1")
    with pytest.raises(ResourceLimitError):
        divisors_in_algebra(f, S, limit=4)
    # generous limit succeeds
    assert len(divisors_in_algebra(f, S, limit=1 << 20).divisors) > 2


def test_dense_paths_build_no_checked_element(monkeypatch):
    """Clearing denominators and the divisor walk never rebuild an element
    through the checking constructor; a return to that path fails here."""
    dense = parse_poly("2*X^(5/2) - X^(4/3) + 3*X^(1/2) + X^(1/6) - 1")
    element = parse_poly("X^6 - X^(7/2) + X^(5/2) - 1")
    monoid = PuiseuxMonoid([Rat(1, 2), Rat(1, 3)])
    calls = []
    checking = PuiseuxPoly.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        checking(self, *args, **kwargs)

    monkeypatch.setattr(PuiseuxPoly, "__init__", counted)
    assert canonical_factorization(dense).clearing_denominator == 6
    assert len(divisors_in_algebra(element, monoid).divisors) > 2
    assert calls == []
    PuiseuxPoly.one()
    assert len(calls) == 1
