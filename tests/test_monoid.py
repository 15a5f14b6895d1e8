"""Finitely generated Puiseux monoids and their numerical normal forms."""

import math
import random
import time
from fractions import Fraction

import pytest

from puiseux import DomainError, NumericalMonoid, PuiseuxMonoid, Rat, ResourceLimitError
from puiseux.monoid import APERY_LIMIT
from puiseux.ppoly import MAX_DENSE_DEGREE

from reference import conductor_by_dp, dp_membership


def test_normalize_examples():
    r, n = PuiseuxMonoid([Rat(1, 2), Rat(3, 4)]).normalization()
    assert r == 4 and n == NumericalMonoid([2, 3])

    r, n = PuiseuxMonoid([1]).normalization()
    assert r == 1 and n == NumericalMonoid([1])

    r, n = PuiseuxMonoid([2, 3]).normalization()
    assert r == 1 and n == NumericalMonoid([2, 3])


def test_normalization_is_bijective_on_members():
    rng = random.Random(83)
    S = PuiseuxMonoid([Rat(1, 2), Rat(2, 3)])
    r, n = S.normalization()
    for _ in range(300):
        q = Fraction(rng.randint(0, 40), rng.randint(1, 8))
        scaled = q * r
        expected = scaled.denominator == 1 and n.contains(int(scaled))
        assert S.contains(q) == expected


def test_contains_examples():
    assert not PuiseuxMonoid([2, 3]).contains(1)
    assert PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]).contains(Fraction(7, 6))
    assert PuiseuxMonoid([2, 3]).contains(7)
    assert PuiseuxMonoid([2, 3]).contains(0)
    assert not NumericalMonoid([2, 3]).contains(-1)


def test_contains_rejects_negative():
    with pytest.raises(DomainError):
        PuiseuxMonoid([2, 3]).contains(Fraction(-1))


def test_contains_closure_under_addition():
    rng = random.Random(89)
    S = PuiseuxMonoid([Rat(3, 2), Rat(5, 3)])
    members = [Rat(0)]
    for _ in range(60):
        a = rng.choice(members) + rng.choice(list(S.generators))
        members.append(Rat(a))
    for _ in range(200):
        a, b = rng.choice(members), rng.choice(members)
        assert S.contains(a) and S.contains(b)
        assert S.contains(a + b)


def test_membership_matches_direct_dp():
    rng = random.Random(97)
    monoids = [
        PuiseuxMonoid([2, 3]),
        PuiseuxMonoid([Rat(1, 2), Rat(2, 3)]),
        PuiseuxMonoid([Rat(3, 4), Rat(5, 6), 2]),
        PuiseuxMonoid([4, 6, 9]),
    ]
    for _ in range(1000):
        S = rng.choice(monoids)
        q = Fraction(rng.randint(0, 60), rng.randint(1, 12))
        assert S.contains(q) == dp_membership(q, S.generators)


def test_apery_table_matches_direct_dp():
    rng = random.Random(131)
    checked = 0
    while checked < 60:
        gens = [rng.randint(2, 40) for _ in range(rng.randint(1, 4))] + [rng.randint(2, 40)]
        if math.gcd(*gens) != 1:
            continue
        N = NumericalMonoid(gens)
        a = N.generators[0]
        for r, least in enumerate(N._apery):
            # least is a member of class r; least - a, one step lower, is not
            assert least % a == r
            assert dp_membership(least, N.generators)
            assert least < a or not dp_membership(least - a, N.generators)
        checked += 1


def test_conductor_matches_dp_reachability():
    rng = random.Random(89)
    checked = 0
    while checked < 60:
        gens = [rng.randint(1, 24) for _ in range(rng.randint(1, 4))]
        if math.gcd(*gens) != 1:
            continue
        N = NumericalMonoid(gens)
        c = N.conductor
        assert c == conductor_by_dp(N.generators)
        assert all(N.contains(x) for x in range(c, c + N.generators[0]))
        assert c == 0 or not N.contains(c - 1)
        checked += 1


def gaps_by_reachability(generators, n: int) -> list[int]:
    """The gaps below n, from a reachability table."""
    reachable = [True] + [False] * (n - 1)
    for x in range(1, n):
        reachable[x] = any(g <= x and reachable[x - g] for g in generators)
    return [x for x in range(n) if not reachable[x]]


@pytest.mark.parametrize("generators", [
    ("2", "3"), ("3", "5", "7"), ("1/2", "1/3"), ("2/3", "1"),  # the divisors benchmark's monoids
    ("7", "11", "13"),
    ("65535", "65536"),
])
def test_gap_mask_matches_membership_at_every_position(generators):
    _, N = PuiseuxMonoid([Fraction(g) for g in generators]).normalization()
    c = N.conductor
    # 262,145 = k + c positions in the walk of X^131072 - 1 in <65535, 65536>
    for n in (0, 1, c, c + 1, 2 * c + 3) if c < 1000 else (0, 1, 262145):
        mask = N.gap_mask(n)
        assert mask >> n == 0
        bits = mask.to_bytes(n // 8 + 1, "little")
        assert [x for x in range(n) if bits[x >> 3] >> (x & 7) & 1] == gaps_by_reachability(N.generators, n)


def test_atoms_of_large_generators_are_fast():
    start = time.perf_counter()
    atoms = PuiseuxMonoid([10007, 20011, 30011]).atoms()
    assert time.perf_counter() - start < 0.5
    assert atoms == (10007, 20011, 30011)


def test_apery_table_cap_refuses_before_allocating():
    monoid = NumericalMonoid([APERY_LIMIT + 1, APERY_LIMIT + 2])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap"):
        monoid.contains(5)
    with pytest.raises(ResourceLimitError, match="cap"):
        PuiseuxMonoid([100000007, 100000037]).atoms()
    assert time.perf_counter() - start < 0.05


def test_divisors_examples():
    assert PuiseuxMonoid([2, 3]).divisors_of(6) == (0, 2, 3, 4, 6)
    assert PuiseuxMonoid([2, 3]).divisors_of(0) == (Rat(0),)
    assert PuiseuxMonoid([1]).divisors_of(3) == (0, 1, 2, 3)


def test_divisors_requires_membership():
    with pytest.raises(DomainError):
        PuiseuxMonoid([2, 3]).divisors_of(1)


def test_divisor_scan_is_capped():
    monoid = NumericalMonoid([2, 3])
    assert len(monoid.divisors(MAX_DENSE_DEGREE)) == MAX_DENSE_DEGREE - 1
    with pytest.raises(ResourceLimitError):
        monoid.divisors(3_000_000)
    with pytest.raises(DomainError):  # a Frobenius number above the cap
        NumericalMonoid([1000, 1001]).divisors(1000 * 1001 - 1000 - 1001)


def test_divisor_cofactor_symmetry():
    rng = random.Random(101)
    S = PuiseuxMonoid([Rat(1, 2), Rat(2, 3)])
    for _ in range(50):
        s = Rat(0)
        for _ in range(rng.randint(1, 6)):
            s = Rat(s + rng.choice(list(S.generators)))
        divisors = S.divisors_of(s)
        assert Rat(0) in divisors and s in divisors
        for t in divisors:
            assert Rat(s - t) in divisors


def test_atoms_examples():
    assert PuiseuxMonoid([2, 3]).atoms() == (2, 3)
    assert PuiseuxMonoid([4, 6, 9]).atoms() == (4, 6, 9)
    assert PuiseuxMonoid([2, 3, 5]).atoms() == (2, 3)


def test_atoms_generate_members():
    S = PuiseuxMonoid([Rat(1, 2), Rat(2, 3), Rat(7, 6)])
    atoms = S.atoms()
    assert atoms == (Rat(1, 2), Rat(2, 3))
    for num in range(0, 61):
        q = Fraction(num, 6)
        assert S.contains(q) == dp_membership(q, atoms)


def test_numerical_monoid_validation():
    with pytest.raises(DomainError):
        NumericalMonoid([2, 4])
    with pytest.raises(DomainError):
        NumericalMonoid([])
    with pytest.raises(DomainError):
        NumericalMonoid([0, 1])


def test_puiseux_monoid_validation():
    with pytest.raises(DomainError):
        PuiseuxMonoid([0])
    with pytest.raises(DomainError):
        PuiseuxMonoid([Fraction(-1, 2)])
    trivial = PuiseuxMonoid([])  # the monoid {0}
    assert trivial.contains(0) and not trivial.contains(1)
    with pytest.raises(DomainError, match="at least one generator"):
        trivial.normalization()
    with pytest.raises(DomainError, match="at least one generator"):
        trivial.atoms()


def test_scaled_monoid():
    S = PuiseuxMonoid([2, 3])
    T = S.scaled(Rat(1, 2))
    assert T.generators == (1, Rat(3, 2))
    assert T.contains(Fraction(5, 2))
    with pytest.raises(DomainError, match="positive"):
        S.scaled(0)
