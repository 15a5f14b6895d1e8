"""Finite-support polynomials with non-negative rational exponents.

These are the elements of the monoid algebra of Q_+ over Q: finite sums
``c_1*X^{s_1} + ... + c_n*X^{s_n}`` with rational coefficients and reduced
non-negative rational exponents ``s_1 < ... < s_n``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, ResourceLimitError
from .exact import Rat
from .qpoly import QPoly

# Largest degree an element may have when it is made dense (after clearing
# denominators or scaling into a numerical monoid); far above what the
# factorization and divisor algorithms handle in reasonable time.
MAX_DENSE_DEGREE = 1 << 16


def _as_scale(r) -> Rat:
    scale = Rat(r) if not isinstance(r, Rat) else r
    if scale == 0:
        raise DomainError("exponent scaling ratio must be positive")
    return scale


class PuiseuxPoly:
    """Immutable element of Q[Q_+], stored as sorted (exponent, coefficient) terms.

    Exponents are reduced non-negative rationals, strictly increasing, and no
    coefficient is zero; the zero element has no terms.  Equality is
    structural, so canonical form makes it decidable by comparison.
    """

    __slots__ = ("terms",)

    terms: tuple[tuple[Rat, Fraction], ...]

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        acc: dict[Rat, Fraction] = {}
        for exponent, coeff in terms:
            e = exponent if isinstance(exponent, Rat) else Rat(exponent)
            c = Fraction(coeff)
            if c == 0:
                continue
            total = acc.get(e, Fraction(0)) + c
            if total == 0:
                acc.pop(e, None)
            else:
                acc[e] = total
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=lambda t: t[0]))
        )

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_canonical(cls, terms: tuple[tuple[Rat, Fraction], ...]) -> "PuiseuxPoly":
        """Wrap terms already in canonical form (Rat exponents, strictly
        increasing, nonzero Fraction coefficients) without re-checking them."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls) -> "PuiseuxPoly":
        return cls()

    @classmethod
    def one(cls) -> "PuiseuxPoly":
        return cls(((Rat(0), Fraction(1)),))

    @classmethod
    def constant(cls, c) -> "PuiseuxPoly":
        return cls(((Rat(0), Fraction(c)),))

    @classmethod
    def monomial(cls, coeff, exponent) -> "PuiseuxPoly":
        return cls(((Rat(exponent), Fraction(coeff)),))

    @classmethod
    def from_qpoly(cls, h: QPoly, scale=1) -> "PuiseuxPoly":
        """The generalized polynomial h(X^s): every exponent of h times s > 0."""
        s = _as_scale(scale)
        return cls((Rat(i) * s, c) for i, c in enumerate(h.coeffs) if c)

    def to_qpoly(self) -> QPoly:
        """Reinterpret as an ordinary polynomial; requires integer exponents.

        This is where a sparse element becomes dense, so a degree above
        :data:`MAX_DENSE_DEGREE` raises :class:`ResourceLimitError` instead
        of allocating one coefficient per exponent.
        """
        for e, _ in self.terms:
            if e.denominator != 1:
                raise DomainError(f"exponent {e} is not an integer")
        if not self.terms:
            return QPoly()
        degree = int(self.degree)
        if degree > MAX_DENSE_DEGREE:
            raise ResourceLimitError(
                f"dense degree {degree} exceeds the cap of {MAX_DENSE_DEGREE}"
            )
        out = [Fraction(0)] * (degree + 1)
        for e, c in self.terms:
            out[int(e)] = c
        return QPoly(out)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def _require_nonzero(self):
        if not self.terms:
            raise DomainError("undefined for the zero element")

    @property
    def order(self) -> Rat:
        """Least exponent of a nonzero element."""
        self._require_nonzero()
        return self.terms[0][0]

    @property
    def degree(self) -> Rat:
        """Greatest exponent of a nonzero element."""
        self._require_nonzero()
        return self.terms[-1][0]

    @property
    def support(self) -> frozenset[Rat]:
        self._require_nonzero()
        return frozenset(e for e, _ in self.terms)

    @property
    def leading_coefficient(self) -> Fraction:
        self._require_nonzero()
        return self.terms[-1][1]

    def coeff(self, exponent) -> Fraction:
        e = Rat(exponent)
        for te, tc in self.terms:
            if te == e:
                return tc
        return Fraction(0)

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PuiseuxPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return PuiseuxPoly.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return PuiseuxPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxPoly((e, -c) for e, c in self.terms)

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
        acc: dict[Fraction, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return PuiseuxPoly(acc.items())

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power")
        result = PuiseuxPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, PuiseuxPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == PuiseuxPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        from .textform import format_poly

        return f"PuiseuxPoly({format_poly(self)!r})"

    def __str__(self):
        from .textform import format_poly

        return format_poly(self)

    # -- exponent geometry --------------------------------------------------

    def is_symmetric_support(self) -> bool:
        """True when the support is invariant under s -> deg + ord - s."""
        self._require_nonzero()
        total = self.degree + self.order
        supp = self.support
        return all((total - s) in supp for s in supp)

    def substitute(self, r) -> "PuiseuxPoly":
        """Multiply every exponent by a positive rational r (coefficients fixed).

        This realizes the algebra isomorphism induced by scaling the exponent
        monoid; the inverse is substitution by 1/r, and the ratio 1 gives self.
        """
        s = _as_scale(r)
        if s == 1:
            return self
        return PuiseuxPoly((e * s, c) for e, c in self.terms)

    def clear_denominators(self) -> tuple[int, QPoly]:
        """Scale exponents by m = lcm of support denominators, landing in Q[X].

        Returns (m, g) with g an integer-exponent polynomial such that
        substituting 1/m into g recovers self.
        """
        m = math.lcm(*(e.denominator for e in self.support))
        return m, self.substitute(m).to_qpoly()
