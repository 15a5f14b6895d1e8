"""Finitely generated additive submonoids of the non-negative rationals.

Membership, divisor enumeration, and atom computation all route through a
scaling to a numerical monoid (an integer monoid whose generators have
gcd 1), where an Apery-set table decides membership in O(1) per query.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import DomainError, ResourceLimitError
from .exact import Rat
from .ppoly import MAX_DENSE_DEGREE

# Largest least generator of a NumericalMonoid whose Apery table (one entry
# per residue) is built; a larger one raises ResourceLimitError.
APERY_LIMIT = 1 << 21


class NumericalMonoid:
    """Additive submonoid of Z_+ generated by positive integers with gcd 1."""

    def __init__(self, generators: Iterable[int]):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise DomainError("a numerical monoid needs at least one generator")
        if gens[0] <= 0:
            raise DomainError("generators must be positive")
        if math.gcd(*gens) != 1:
            raise DomainError("numerical-monoid generators must have gcd 1")
        self.generators: tuple[int, ...] = tuple(gens)

    @cached_property
    def _apery(self) -> tuple[int, ...]:
        """Least member in each residue class modulo the smallest generator.

        Built by the round-robin algorithm of Boecker & Liptak ("A fast and
        simple algorithm for the money changing problem", Algorithmica 48,
        2007) in O(k * a) steps for k generators and least generator a.  Each
        further generator g splits the residues into gcd(a, g) cycles of
        r -> r + g; one turn round a cycle, started at its least entry, settles
        it.  The generators have gcd 1, so every entry ends finite.  The table
        is an idempotent pure cache, so a racing rebuild is harmless.
        """
        a = self.generators[0]
        if a > APERY_LIMIT:
            raise ResourceLimitError(
                f"Apery table of {a} residues exceeds the cap of {APERY_LIMIT}"
            )
        table = [0] + [math.inf] * (a - 1)
        for g in self.generators[1:]:
            d = math.gcd(a, g)
            for r in range(d):
                m = min(table[r::d])
                if m == math.inf:
                    continue
                for _ in range(a // d):
                    m += g
                    i = m % a
                    if table[i] < m:
                        m = table[i]
                    else:
                        table[i] = m
        return tuple(table)

    @cached_property
    def conductor(self) -> int:
        """Least c such that every integer at or above c is a member.

        It is the Frobenius number plus one, max(Apery) - a + 1 for the least
        generator a (Selmer, J. Reine Angew. Math. 293/294, 1977).

        >>> [NumericalMonoid(g).conductor for g in ([1], [2, 3], [3, 5, 7])]
        [0, 2, 5]
        """
        return max(self._apery) - self.generators[0] + 1

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self._apery[x % self.generators[0]]

    def gap_mask(self, n: int) -> int:
        """The int whose bit x is set exactly for the gaps x < n, in time linear in n."""
        return int("0" + "".join("0" if self.contains(x) else "1" for x in range(n - 1, -1, -1)), 2)

    def divisors(self, n: int) -> list[int]:
        """All t with t and n - t both members, for a member n; the scan is
        linear in n, so n > MAX_DENSE_DEGREE raises ResourceLimitError."""
        if not self.contains(n):
            raise DomainError(f"{n} is not a member")
        if n > MAX_DENSE_DEGREE:
            raise ResourceLimitError(f"divisor scan to {n} exceeds the cap of {MAX_DENSE_DEGREE}")
        return [t for t in range(n + 1) if self.contains(t) and self.contains(n - t)]

    def __repr__(self):
        return f"NumericalMonoid({list(self.generators)})"

    def __eq__(self, other):
        if isinstance(other, NumericalMonoid):
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self):
        return hash(self.generators)


class PuiseuxMonoid:
    """Additive submonoid of Q_+ given by finitely many positive rational generators.

    The monoid is reduced (0 is the only unit), and every element's reduced
    denominator divides the lcm of the generators' denominators.
    """

    def __init__(self, generators: Iterable[Fraction]):
        gens = sorted(set(Rat(g) for g in generators))
        if any(g == 0 for g in gens):
            raise DomainError("monoid generators must be positive")
        self.generators: tuple[Rat, ...] = tuple(gens)

    @cached_property
    def _normalization(self) -> tuple[Rat, NumericalMonoid]:
        if not self.generators:
            raise DomainError("normalization needs at least one generator")
        big = math.lcm(*(g.denominator for g in self.generators))
        ints = [int(g * big) for g in self.generators]
        common = math.gcd(*ints)
        scale = Rat(big, common)
        return scale, NumericalMonoid(i // common for i in ints)

    def normalization(self) -> tuple[Rat, NumericalMonoid]:
        """A scale r > 0 and numerical monoid N with r * S = N elementwise."""
        return self._normalization

    def scaled(self, r) -> "PuiseuxMonoid":
        """The monoid r * S for a positive rational r."""
        factor = Rat(r)
        if factor == 0:
            raise DomainError("scaling factor must be positive")
        return PuiseuxMonoid(g * factor for g in self.generators)

    def contains(self, q) -> bool:
        """Membership: is q a non-negative integer combination of the generators?"""
        value = Fraction(q)
        if value < 0:
            raise DomainError("membership queries take non-negative rationals")
        if value == 0:
            return True
        if not self.generators:
            return False
        scale, numerical = self.normalization()
        scaled = value * scale
        if scaled.denominator != 1:
            return False
        return numerical.contains(int(scaled))

    def divisors_of(self, s) -> tuple[Rat, ...]:
        """The finite sorted set {t in S : s - t in S} for a member s.

        Finiteness holds because a finitely generated reduced monoid gives
        every member only finitely many divisors.
        """
        value = Fraction(s)
        if value < 0 or not self.contains(value):
            raise DomainError(f"{s} is not a member of the monoid")
        if value == 0:
            return (Rat(0),)
        scale, numerical = self.normalization()
        n = int(value * scale)
        return tuple(Rat(Fraction(t) / scale) for t in numerical.divisors(n))

    def atoms(self) -> tuple[Rat, ...]:
        """The unique minimal generating set: members not expressible as a sum
        of two nonzero members."""
        if not self.generators:
            raise DomainError("atoms need at least one generator")
        # g is a sum of two nonzero members exactly when g - h is a member
        # for some smaller generator h.
        scale, numerical = self.normalization()
        ints = [int(g * scale) for g in self.generators]
        return tuple(
            g
            for g, n in zip(self.generators, ints)
            if not any(numerical.contains(n - m) for m in ints if m < n)
        )

    def __repr__(self):
        from .textform import format_monoid

        return f"PuiseuxMonoid({format_monoid(self)!r})"

    def __eq__(self, other):
        if isinstance(other, PuiseuxMonoid):
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self):
        return hash(self.generators)
