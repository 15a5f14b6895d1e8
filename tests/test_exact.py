"""Rational substrate, primality and the prime-field modulus check."""

import random
from fractions import Fraction

import pytest

from puiseux import DomainError, PuiseuxPoly, QPoly, Rat, ResourceLimitError, elementary_symmetric
from puiseux.exact import PRIME_BASES, PRIME_PREFIXES, PRIME_TEST_LIMIT, is_prime

from reference import is_prime_all_bases, strong_probable_prime


# Rat(num, den) is the reduced form of num/den, the library's exponent type.


def test_reduce_rat_examples():
    assert Rat(6, 4) == Rat(3, 2)
    assert Rat(0, 5) == Rat(0, 1)
    assert Rat(0, 5).denominator == 1
    assert Rat(5, 1) == 5


def test_reduce_rat_accessors():
    r = Rat(10, 4)
    assert (r.numerator, r.denominator) == (5, 2)


def test_reduce_rat_errors():
    with pytest.raises(DomainError):
        Rat(1, 0)
    with pytest.raises(DomainError):
        Rat(1, -2)
    with pytest.raises(DomainError):
        Rat(-1, 2)


def test_reduce_rat_scale_invariance():
    rng = random.Random(7)
    for _ in range(1000):
        a = rng.randint(0, 500)
        b = rng.randint(1, 500)
        k = rng.randint(1, 50)
        assert Rat(a, b) == Rat(k * a, k * b)


def test_rat_is_always_reduced():
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randint(0, 300)
        b = rng.randint(1, 300)
        r = Rat(a, b)
        import math

        assert math.gcd(r.numerator, r.denominator) == 1
        assert r.denominator >= 1


def _clearing_denominator(exponents):
    return PuiseuxPoly((e, 1) for e in exponents).clear_denominators()[0]


def test_lcm_denominators_examples():
    assert _clearing_denominator([Rat(1, 2), Rat(2, 3)]) == 6
    assert _clearing_denominator([Rat(2, 1)]) == 1
    assert _clearing_denominator([Rat(5, 2), Rat(1, 3), Rat(7, 4)]) == 12


def test_lcm_denominators_empty():
    with pytest.raises(DomainError):
        _clearing_denominator([])


def test_rational_arithmetic_cross_check():
    # (a/b) + (c/d) and (a/b) * (c/d) against integer arithmetic on a common
    # denominator.
    rng = random.Random(11)
    for _ in range(1000):
        a, c = rng.randint(-60, 60), rng.randint(-60, 60)
        b, d = rng.randint(1, 60), rng.randint(1, 60)
        x, y = Fraction(a, b), Fraction(c, d)
        s = x + y
        assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
        m = x * y
        assert m.numerator * (b * d) == (a * c) * m.denominator


def test_prime_field_modulus_validation():
    f = QPoly([1, 0, 1, 1])
    with pytest.raises(DomainError, match="not prime"):
        elementary_symmetric(f, 4)
    with pytest.raises(DomainError, match="2\\^31"):
        elementary_symmetric(f, 2**31 + 11)


def test_rat_text_round_trip():
    assert str(Rat(3, 2)) == "3/2"
    assert str(Rat(5, 1)) == "5"
    assert str(Rat(0)) == "0"


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if _trial_division_is_prime(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 fools the bases 2, 3, 5, 7; 3825123056546413051 the first nine primes
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2)


def test_is_prime_refuses_at_its_limit():
    assert not is_prime(PRIME_TEST_LIMIT - 2)
    for n in (PRIME_TEST_LIMIT, 2**100 + 1):
        with pytest.raises(ResourceLimitError):
            is_prime(n)


def test_each_prefix_bound_is_composite():
    # each bound is the least strong pseudoprime to its prefix of the bases,
    # so it needs the next prefix, which is also the shortest proven there
    for bound, count in PRIME_PREFIXES[:-1]:
        assert strong_probable_prime(bound, PRIME_BASES[:count]), bound
        assert not is_prime(bound), bound
    assert [count for _, count in PRIME_PREFIXES][-1] == len(PRIME_BASES)
    assert PRIME_PREFIXES[-1][0] == PRIME_TEST_LIMIT


def test_prefix_test_agrees_with_every_base():
    rng = random.Random(39)
    cases = [bound + d for bound, _ in PRIME_PREFIXES[:-1] for d in range(-30, 31)]
    # Carmichael numbers and strong pseudoprimes to base 2, or to 2 and 3
    cases += [561, 1105, 1729, 2465, 8911, 41041, 825265, 321197185, 5394826801]
    cases += [3277, 4033, 4681, 8321, 15841, 29341, 1530787, 1987021, 2284453, 3116107]
    for bits in range(2, 82):
        cases += [rng.getrandbits(bits) | 1 for _ in range(30)]
        n = rng.getrandbits(bits) | 1
        while not is_prime_all_bases(n):
            n += 2
        m = rng.getrandbits(bits) | 1
        while not is_prime_all_bases(m):
            m += 2
        cases += [n, n * m, n * n]
    cases = [n for n in cases if n < PRIME_TEST_LIMIT]
    assert sum(map(is_prime_all_bases, cases)) >= 150
    for n in cases:
        assert is_prime(n) == is_prime_all_bases(n), n
