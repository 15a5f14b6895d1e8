"""Dense univariate polynomials over Q with complete factorization at desk scale.

``QPoly`` converts between ``Fraction`` coefficients and ``(content, primitive
int list)``, and every algorithm runs in :mod:`._intpoly`: Yun's squarefree
split, Berlekamp factorization modulo a deterministically chosen prime,
quadratic Hensel lifting past the Mignotte bound, and subset recombination.
Comfortable through degree 32; larger inputs work but are not tuned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import _intpoly as zz
from .errors import DomainError


class QPoly:
    """A dense polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of X^i; there is no trailing zero, and
    the zero polynomial is the empty tuple.  Instances are immutable and
    hashable.  Products and division run in :mod:`._intpoly`, and
    ``str`` renders the wire format of :func:`.textform.format_poly`.

    >>> QPoly([-1, 0, 1])
    QPoly('X^2 - 1')
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls([1])

    @classmethod
    def variable(cls) -> "QPoly":
        return cls([0, 1])

    @classmethod
    def monomial(cls, coeff: Fraction | int, exponent: int) -> "QPoly":
        if exponent < 0:
            raise DomainError("monomial exponent must be non-negative")
        return cls([0] * exponent + [coeff])

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly([other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        c1, p1 = self.primitive_integer()
        c2, p2 = other.primitive_integer()
        content = c1 * c2
        return QPoly([content * c for c in zz.zz_mul(p1, p2)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple["QPoly", "QPoly"]:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        c1, p1 = self.primitive_integer()
        c2, p2 = other.primitive_integer()
        a, q, r = zz.zz_pseudo_divmod(p1, p2)
        # self = c1*p1 and other = c2*p2, so a*self = c1*q*p2 + c1*r.
        return QPoly([c1 / (a * c2) * c for c in q]), QPoly([c1 / a * c for c in r])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({str(self)!r})"

    def __str__(self):
        from .ppoly import PuiseuxPoly
        from .textform import format_poly

        return format_poly(PuiseuxPoly.from_qpoly(self))

    def monic(self) -> "QPoly":
        if self.is_zero:
            raise DomainError("the zero polynomial has no monic associate")
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return QPoly([c / lc for c in self.coeffs])

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def split_monomial(self) -> tuple[int, "QPoly"]:
        """Write self = X^k * core with core(0) != 0; returns (k, core)."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no monomial split")
        k = next(i for i, c in enumerate(self.coeffs) if c != 0)
        return k, QPoly(self.coeffs[k:])

    def primitive_integer(self) -> tuple[Fraction, list[int]]:
        """Write self = content * P with P a primitive integer polynomial, lc(P) > 0."""
        if self.is_zero:
            return Fraction(0), []
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * lcm) for c in self.coeffs]
        cont, prim = zz.zz_primitive(ints)
        return Fraction(cont, lcm), prim


def poly_divrem(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    """Exact division with remainder: f = q*g + r with deg r < deg g."""
    return divmod(f, g)


def _monic_view(f: list[int]) -> QPoly:
    """The monic associate over Q of a nonzero integer polynomial."""
    return QPoly([Fraction(c, f[-1]) for c in f])


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor; gcd(f, 0) is the monic associate of f."""
    if f.is_zero and g.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    return _monic_view(zz.zz_gcd(f.primitive_integer()[1], g.primitive_integer()[1]))


def squarefree_decompose(f: QPoly) -> list[tuple[QPoly, int]]:
    """Yun decomposition into pairwise-coprime monic squarefree parts.

    The product of parts raised to their multiplicities equals ``f`` up to a
    nonzero constant.  Constants decompose into the empty list.
    """
    if f.is_zero:
        raise DomainError("cannot decompose the zero polynomial")
    return [(_monic_view(a), i) for a, i in zz.zz_squarefree(f.primitive_integer()[1])]


@dataclass(frozen=True)
class QFactorization:
    """Complete factorization over Q: ``constant * prod(factor**multiplicity)``."""

    constant: Fraction
    factors: tuple[tuple[QPoly, int], ...]

    def expand(self) -> QPoly:
        out = QPoly([self.constant])
        for poly, mult in self.factors:
            out = out * poly**mult
        return out


def _factor_key(item: tuple[QPoly, int]):
    poly = item[0]
    return (poly.degree, poly.coeffs)


def factor_over_rationals(f: QPoly) -> QFactorization:
    """Factor f into monic irreducibles over Q with multiplicities.

    The recomposition ``constant * prod(q**m)`` reproduces f exactly.
    Comfortable up to degree 32; larger inputs are accepted untimed.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    if f.degree == 0:
        return QFactorization(f.coeffs[0], ())
    k, core = f.split_monomial()
    found: dict[QPoly, int] = {}
    if k:
        found[QPoly.variable()] = k
    constant = core.leading_coefficient
    for part, mult in zz.zz_squarefree(core.primitive_integer()[1]):
        for irr in zz.zz_factor_squarefree(part):
            monic = _monic_view(irr)
            found[monic] = found.get(monic, 0) + mult
    factors = tuple(sorted(found.items(), key=_factor_key))
    return QFactorization(constant, factors)
