"""Exact arithmetic substrate: non-negative rational exponents and primality.

Integers are Python's arbitrary-precision ``int`` throughout; nothing in this
package ever rounds or overflows.  Signed exact rationals (polynomial
coefficients) are plain ``fractions.Fraction``; exponents are :class:`Rat`,
a ``Fraction`` constrained to be non-negative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError

MAX_PRIME = 2**31

# Entries kept by each of the library's memo caches (cyclotomic_poly,
# totient, inverse_totient, is_prime), so that a long-lived process stays
# bounded; far above what one factorization or divisor walk looks up.
CACHE_SIZE = 1024


class Rat(Fraction):
    """A reduced non-negative rational, the exponent type of the whole library.

    ``Fraction`` already guarantees the reduced-form invariants
    (``gcd(numerator, denominator) == 1``, ``denominator >= 1``, zero stored
    as ``0/1``); construction additionally rejects negative values.
    Arithmetic falls back to plain ``Fraction``; results that are used as
    exponents again are re-wrapped at the consuming boundary.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        try:
            self = super().__new__(cls, numerator, denominator)
        except ZeroDivisionError:
            raise DomainError("denominator must be nonzero") from None
        if self.numerator < 0:
            raise DomainError(f"{str(self)!r} is negative; exponents live in Q_+")
        return self


# Strong-pseudoprime bases that decide primality for every n below
# PRIME_TEST_LIMIT (Sorenson & Webster, Math. Comp. 86, 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Deterministic strong-pseudoprime test, O(log n) squarings per base; n at
    or above PRIME_TEST_LIMIT, where the bases stop deciding, raises ResourceLimitError."""
    if n >= PRIME_TEST_LIMIT:
        raise ResourceLimitError(f"primality is not decided at or above {PRIME_TEST_LIMIT}")
    if n < 2 or any(n % p == 0 for p in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def _require_modulus(p: int) -> None:
    if not isinstance(p, int) or p < 2 or p > MAX_PRIME:
        raise DomainError(f"field modulus must be a prime in [2, 2^31], got {p!r}")
    if not is_prime(p):
        raise DomainError(f"field modulus {p} is not prime")
