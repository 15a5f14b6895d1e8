"""Dense univariate polynomials over Q.

``QPoly`` stores ``(content, primitive int tuple)`` and hands the tuple to
:mod:`._intpoly`, where every algorithm runs: multiplication, division,
the gcd and Yun's squarefree split.  Factorization over Q, which also
splits off cyclotomic factors, lives in :mod:`.cyclotomic`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import _intpoly as zz
from .errors import DomainError


class QPoly:
    """A dense polynomial with exact rational coefficients.

    Stored as the unique pair ``content * prim``: ``prim`` is a primitive int
    tuple with lc > 0 (empty for zero), and the ``Fraction`` ``content`` carries
    the sign.  ``coeffs[i]``, the coefficient of X^i, is derived from the pair.
    Instances are immutable and hashable; ``str`` renders the wire format.

    >>> QPoly([-1, 0, 1])
    QPoly('X^2 - 1')
    """

    __slots__ = ("content", "prim")

    content: Fraction
    prim: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        c = [Fraction(x) for x in coeffs]
        lcm = math.lcm(*(x.denominator for x in c))
        self._normalize(Fraction(1, lcm), [x.numerator * (lcm // x.denominator) for x in c])

    @classmethod
    def from_ints(cls, scale: Fraction | int, ints: Iterable[int]) -> "QPoly":
        """The polynomial ``scale * ints`` for integer coefficients ``ints``."""
        self = cls.__new__(cls)
        self._normalize(Fraction(scale), list(ints))
        return self

    def _normalize(self, scale: Fraction, ints: list[int]) -> None:
        cont, prim = zz.zz_primitive(zz.zz_strip(ints))
        object.__setattr__(self, "content", scale * cont)
        object.__setattr__(self, "prim", tuple(prim) if self.content else ())

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
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.content * c for c in self.prim)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def is_monic(self) -> bool:
        return bool(self.prim) and self.content * self.prim[-1] == 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.prim:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def coeff(self, i: int) -> Fraction:
        return self.content * self.prim[i] if 0 <= i < len(self.prim) else Fraction(0)

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
        # Over the common denominator d both contents are integers.
        d = math.lcm(self.content.denominator, other.content.denominator)
        a, b = (zz.zz_mul_scalar(p.prim, int(p.content * d)) for p in (self, other))
        return QPoly.from_ints(Fraction(1, d), zz.zz_add(a, b))

    __radd__ = __add__

    def __neg__(self):
        return QPoly.from_ints(-self.content, self.prim)

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
        return QPoly.from_ints(self.content * other.content, zz.zz_mul(self.prim, other.prim))

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
        c1, c2 = self.content, other.content
        a, q, r = zz.zz_pseudo_divmod(self.prim, other.prim)
        # self = c1*p1 and other = c2*p2, so a*self = c1*q*p2 + c1*r.
        return QPoly.from_ints(c1 / (a * c2), q), QPoly.from_ints(c1 / a, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.content == other.content and self.prim == other.prim
        if isinstance(other, (int, Fraction)):
            return self == QPoly([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.content, self.prim))

    def __repr__(self):
        return f"QPoly({str(self)!r})"

    def __str__(self):
        from .ppoly import PuiseuxPoly
        from .textform import format_poly

        return format_poly(PuiseuxPoly.from_qpoly(self))

    def monic(self) -> "QPoly":
        if self.is_zero:
            raise DomainError("the zero polynomial has no monic associate")
        if self.is_monic:
            return self
        return QPoly.from_ints(Fraction(1, self.prim[-1]), self.prim)

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.prim):
            acc = acc * x + c
        return self.content * acc

    def split_monomial(self) -> tuple[int, "QPoly"]:
        """Write self = X^k * core with core(0) != 0; returns (k, core)."""
        if self.is_zero:
            raise DomainError("the zero polynomial has no monomial split")
        k = next(i for i, c in enumerate(self.prim) if c)
        return k, QPoly.from_ints(self.content, self.prim[k:])

    def primitive_integer(self) -> tuple[Fraction, list[int]]:
        """Write self = content * P with P a primitive integer polynomial, lc(P) > 0."""
        return self.content, list(self.prim)


def poly_divrem(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    """Exact division with remainder: f = q*g + r with deg r < deg g."""
    return divmod(f, g)


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic greatest common divisor; gcd(f, 0) is the monic associate of f."""
    if f.is_zero and g.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    d = zz.zz_gcd(f.prim, g.prim)
    return QPoly.from_ints(Fraction(1, d[-1]), d)


def squarefree_decompose(f: QPoly) -> list[tuple[QPoly, int]]:
    """Yun decomposition into pairwise-coprime monic squarefree parts.

    The product of parts raised to their multiplicities equals ``f`` up to a
    nonzero constant.  Constants decompose into the empty list.
    """
    if f.is_zero:
        raise DomainError("cannot decompose the zero polynomial")
    return [(QPoly.from_ints(Fraction(1, a[-1]), a), i) for a, i in zz.zz_squarefree(f.prim)]
