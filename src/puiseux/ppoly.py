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


def _as_scale(r) -> Rat | int:
    if type(r) is int and r > 0:
        return r  # an int has a numerator and a denominator: no Rat to build
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
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        object.__setattr__(self, "terms", tuple(sorted(t for t in acc.items() if t[1])))

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
    def one(cls) -> "PuiseuxPoly":
        return cls(((Rat(0), Fraction(1)),))

    @classmethod
    def monomial(cls, coeff, exponent) -> "PuiseuxPoly":
        return cls(((Rat(exponent), Fraction(coeff)),))

    @classmethod
    def from_qpoly(cls, h: QPoly, scale=1) -> "PuiseuxPoly":
        """The generalized polynomial h(X^s): every exponent of h times s > 0."""
        s = _as_scale(scale)
        return cls._from_canonical(tuple((Rat(i * s), c) for i, c in enumerate(h.coeffs) if c))

    def to_qpoly(self, scale=1) -> QPoly:
        """The ordinary polynomial self(X^scale), read by :meth:`_read_ints`."""
        _, lcm, ints = self._read_ints(scale)
        return QPoly.from_ints(Fraction(1, lcm), ints)

    def _read_ints(self, scale, member=None, dense=True) -> tuple[list[int], int, list[int]]:
        """(exponents, lcm, ints): self(X^scale) = ints / lcm, read in integers.

        The one place where a sparse element becomes dense.  Every scaled
        exponent must be an integer (one that ``member`` accepts, if given).
        With ``dense``, a degree above :data:`MAX_DENSE_DEGREE` raises
        :class:`ResourceLimitError` before ints is allocated; without it only
        the exponents are read, and lcm and ints are 1 and [].
        """
        s = _as_scale(scale)
        exponents = []
        for e, _ in self.terms:
            k, r = divmod(e.numerator * s.numerator, e.denominator * s.denominator)
            if r or not (member is None or member(k)):
                outside = f"support exponent {e} lies outside the monoid"
                raise DomainError(outside if member else f"exponent {e * s} is not an integer")
            exponents.append(k)
        if not (dense and exponents):
            return exponents, 1, []
        lcm = math.lcm(*(c.denominator for _, c in self.terms))
        if exponents[-1] > MAX_DENSE_DEGREE:
            raise ResourceLimitError(
                f"dense degree {exponents[-1]} exceeds the cap of {MAX_DENSE_DEGREE}"
            )
        ints = [0] * (exponents[-1] + 1)
        for k, (_, c) in zip(exponents, self.terms):
            ints[k] = c.numerator * (lcm // c.denominator)
        return exponents, lcm, ints

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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

    # -- multiplicative structure -----------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxPoly.monomial(other, 0)
        elif not isinstance(other, PuiseuxPoly):
            return NotImplemented
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
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"PuiseuxPoly({str(self)!r})"

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
        return PuiseuxPoly._from_canonical(tuple((Rat(e * s), c) for e, c in self.terms))

    def clear_denominators(self) -> tuple[int, QPoly]:
        """Scale exponents by m = lcm of support denominators, landing in Q[X].

        Returns (m, g) with g an integer-exponent polynomial such that
        substituting 1/m into g recovers self.
        """
        self._require_nonzero()
        m = math.lcm(*(e.denominator for e, _ in self.terms))
        return m, self.to_qpoly(m)
