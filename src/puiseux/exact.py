"""Exact arithmetic substrate: non-negative rational exponents and small prime fields.

Integers are Python's arbitrary-precision ``int`` throughout; nothing in this
package ever rounds or overflows.  Signed exact rationals (polynomial
coefficients) are plain ``fractions.Fraction``; exponents are :class:`Rat`,
a ``Fraction`` constrained to be non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

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


def reduce_rat(num: int, den: int) -> Rat:
    """The unique reduced form of ``num/den`` with ``num >= 0`` and ``den > 0``.

    >>> reduce_rat(6, 4)
    Rat(3, 2)
    """
    if den == 0:
        raise DomainError("denominator must be nonzero")
    if den < 0:
        raise DomainError("denominator must be positive")
    if num < 0:
        raise DomainError("numerator must be non-negative")
    return Rat(num, den)


def lcm_denominators(values: Iterable[Fraction]) -> int:
    """lcm of the (reduced) denominators of a non-empty collection of rationals."""
    dens = [v.denominator for v in values]
    if not dens:
        raise DomainError("lcm of denominators of an empty set is undefined")
    return math.lcm(*dens)


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


@dataclass(frozen=True, slots=True)
class PrimeFieldElement:
    """An element of the prime field F_p for a small prime p."""

    value: int
    modulus: int

    def __post_init__(self):
        _require_modulus(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _peer(self, other) -> "PrimeFieldElement":
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        if not isinstance(other, PrimeFieldElement):
            raise TypeError(f"cannot combine F_{self.modulus} element with {other!r}")
        if other.modulus != self.modulus:
            raise DomainError(
                f"mixed moduli: F_{self.modulus} vs F_{other.modulus}"
            )
        return other

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        other = self._peer(other)
        return PrimeFieldElement(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._peer(other)
        return PrimeFieldElement(self.value - other.value, self.modulus)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.modulus)

    def __mul__(self, other):
        other = self._peer(other)
        return PrimeFieldElement(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeFieldElement":
        if self.value == 0:
            raise DomainError(f"0 has no inverse in F_{self.modulus}")
        return PrimeFieldElement(pow(self.value, -1, self.modulus), self.modulus)

    def __truediv__(self, other):
        other = self._peer(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return PrimeFieldElement(pow(self.value, n, self.modulus), self.modulus)

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class PrimeFieldPoly:
    """Dense univariate polynomial over F_p; ``coeffs[i]`` is the X^i coefficient.

    Coefficients are stored reduced modulo p with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        _require_modulus(self.modulus)
        c = [int(x) % self.modulus for x in self.coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
