"""Rational substrate and prime-field arithmetic."""

import random
from fractions import Fraction
from itertools import product

import pytest

from puiseux import (
    DomainError,
    PrimeFieldElement,
    Rat,
    ResourceLimitError,
    lcm_denominators,
    reduce_rat,
)
from puiseux.exact import PRIME_TEST_LIMIT, is_prime


def test_reduce_rat_examples():
    assert reduce_rat(6, 4) == Rat(3, 2)
    assert reduce_rat(0, 5) == Rat(0, 1)
    assert reduce_rat(0, 5).denominator == 1
    assert reduce_rat(5, 1) == Rat(5, 1)


def test_reduce_rat_accessors():
    r = reduce_rat(10, 4)
    assert (r.numerator, r.denominator) == (5, 2)


def test_reduce_rat_errors():
    with pytest.raises(DomainError):
        reduce_rat(1, 0)
    with pytest.raises(DomainError):
        reduce_rat(1, -2)
    with pytest.raises(DomainError):
        reduce_rat(-1, 2)
    with pytest.raises(DomainError):
        Rat(-1, 2)


def test_reduce_rat_scale_invariance():
    rng = random.Random(7)
    for _ in range(1000):
        a = rng.randint(0, 500)
        b = rng.randint(1, 500)
        k = rng.randint(1, 50)
        assert reduce_rat(a, b) == reduce_rat(k * a, k * b)


def test_rat_is_always_reduced():
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randint(0, 300)
        b = rng.randint(1, 300)
        r = Rat(a, b)
        import math

        assert math.gcd(r.numerator, r.denominator) == 1
        assert r.denominator >= 1


def test_lcm_denominators_examples():
    assert lcm_denominators([Rat(1, 2), Rat(2, 3)]) == 6
    assert lcm_denominators([Rat(2, 1)]) == 1
    assert lcm_denominators([Rat(5, 2), Rat(1, 3), Rat(7, 4)]) == 12


def test_lcm_denominators_empty():
    with pytest.raises(DomainError):
        lcm_denominators([])


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_axioms_exhaustive(p):
    elems = [PrimeFieldElement(v, p) for v in range(p)]
    zero, one = elems[0], elems[1 % p]
    for x, y in product(elems, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in product(elems, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    for x in elems:
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * x.inverse() == one


def test_prime_field_mixed_moduli_rejected():
    with pytest.raises(DomainError):
        PrimeFieldElement(1, 2) + PrimeFieldElement(1, 3)


def test_prime_field_modulus_validation():
    with pytest.raises(DomainError):
        PrimeFieldElement(1, 4)
    with pytest.raises(DomainError):
        PrimeFieldElement(1, 2**31 + 11)


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
