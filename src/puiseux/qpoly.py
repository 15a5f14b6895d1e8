"""Dense univariate polynomials over Q, as values.

``QPoly`` stores ``(content, primitive int tuple)``; it is the type the
public API takes and returns, with the queries, equality, printing and
multiplication.  Every algorithm runs on the tuple in :mod:`._intpoly`;
factorization over Q, which also splits off cyclotomic factors, is in
:mod:`.cyclotomic`.
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

    @classmethod
    def _monic(cls, prim: list[int]) -> "QPoly":
        """``prim / lc(prim)`` for a primitive ``prim`` with lc > 0, stored as given."""
        self = cls.__new__(cls)
        object.__setattr__(self, "content", Fraction(1, prim[-1]))
        object.__setattr__(self, "prim", tuple(prim))
        return self

    def _normalize(self, scale: Fraction, ints: list[int]) -> None:
        cont, prim = zz.zz_primitive(zz.zz_strip(ints))
        object.__setattr__(self, "content", scale * cont)
        object.__setattr__(self, "prim", tuple(prim) if self.content else ())

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

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
    def leading_coefficient(self) -> Fraction:
        if not self.prim:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        elif not isinstance(other, QPoly):
            return NotImplemented
        return QPoly.from_ints(self.content * other.content, zz.zz_mul(self.prim, other.prim))

    __rmul__ = __mul__

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.content == other.content and self.prim == other.prim
        return NotImplemented

    def __hash__(self):
        return hash((self.content, self.prim))

    def __repr__(self):
        return f"QPoly({str(self)!r})"

    def __str__(self):
        from .ppoly import PuiseuxPoly
        from .textform import format_poly

        return format_poly(PuiseuxPoly.from_qpoly(self))


# Yun's split, under the name of its phase in factor_primitive.
squarefree_decompose = zz.zz_squarefree
