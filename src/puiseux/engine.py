"""Canonical factorization in Q[Q_+] and exhaustive divisor enumeration in Q[S].

The canonical form of a nonzero element f is

    constant * X^r * prod(Phi_n(X^(1/m))^e) * prod(q(X^(1/m))^l)

relative to the single clearing denominator m = lcm of the denominators of
the support of f: the cyclotomic components keep splitting under further
exponent refinement, while the q-components (monic irreducibles over Q that
divide no X^d - 1) stay prime in Q[Q_+].  Components are never refined
beyond the clearing denominator of the input.

Divisor enumeration reduces Q[S] for a finitely generated monoid S to a
polynomial ring by scaling, factors there, and keeps exactly the
sub-products whose support and cofactor support land back inside S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._intpoly import zz_mul
from .cyclotomic import binomial_indices, classify_cyclotomic, cyclotomic_poly, factor_over_rationals
from .errors import DomainError, ResourceLimitError
from .exact import Rat
from .monoid import PuiseuxMonoid
from .ppoly import PuiseuxPoly
from .qpoly import QPoly

DEFAULT_DIVISOR_LIMIT = 1 << 20


@dataclass(frozen=True)
class CanonicalFactorization:
    """Canonical monomial / cyclotomic / prime decomposition of an element of Q[Q_+].

    ``cyclotomic_part`` holds (index n, exponent e) pairs meaning
    Phi_n(X^(1/m))^e; ``prime_part`` holds (q, l) pairs meaning q(X^(1/m))^l
    with q monic, irreducible over Q, and coprime to every X^d - 1.
    """

    constant: Fraction
    clearing_denominator: int
    monomial_exponent: Rat
    cyclotomic_part: tuple[tuple[int, int], ...]
    prime_part: tuple[tuple[QPoly, int], ...]


def _binomial_factorization(f: PuiseuxPoly) -> CanonicalFactorization | None:
    """The canonical form of c*X^r*(X^s +- 1), read off its two terms.

    With m the lcm of the two exponents' denominators and n = s*m, the
    cleared core X^n +- 1 is the product of the Phi_d listed by
    :func:`binomial_indices`, each once.  None for any other element.
    """
    if len(f.terms) != 2:
        return None
    (low, a), (high, c) = f.terms
    if abs(a) != abs(c):
        return None
    m = math.lcm(low.denominator, high.denominator)
    n = int((high - low) * m)
    return CanonicalFactorization(
        constant=c,
        clearing_denominator=m,
        monomial_exponent=low,
        cyclotomic_part=tuple((d, 1) for d in binomial_indices(n, 1 if a == c else -1)),
        prime_part=(),
    )


def _dense_factorization(f: PuiseuxPoly) -> CanonicalFactorization:
    """The canonical form of a nonzero f through its cleared dense polynomial.

    Clears denominators, factors the resulting ordinary polynomial over Q,
    and classifies each monic irreducible as cyclotomic or not.
    """
    m, cleared = f.clear_denominators()
    k, core = cleared.split_monomial()
    fact = factor_over_rationals(core)
    cyclo: list[tuple[int, int]] = []
    primes: list[tuple[QPoly, int]] = []
    for poly, mult in fact.factors:
        n = classify_cyclotomic(poly, assume_irreducible=True)
        if n is None:
            primes.append((poly, mult))
        else:
            cyclo.append((n, mult))
    return CanonicalFactorization(
        constant=fact.constant,
        clearing_denominator=m,
        monomial_exponent=Rat(k, m),
        cyclotomic_part=tuple(sorted(cyclo)),
        prime_part=tuple(primes),
    )


def canonical_factorization(f: PuiseuxPoly) -> CanonicalFactorization:
    """Decompose a nonzero f into the canonical form above.

    A binomial c*X^r*(X^s +- 1) is read off its two terms and never made
    dense; every other element goes through its cleared polynomial.
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero element")
    return _binomial_factorization(f) or _dense_factorization(f)


def recompose(cf: CanonicalFactorization) -> PuiseuxPoly:
    """Exact product of the parts; inverse of :func:`canonical_factorization`."""
    scale = Rat(1, cf.clearing_denominator)
    out = PuiseuxPoly.monomial(cf.constant, cf.monomial_exponent)
    for n, e in cf.cyclotomic_part:
        out = out * PuiseuxPoly.from_qpoly(cyclotomic_poly(n), scale) ** e
    for q, l in cf.prime_part:
        out = out * PuiseuxPoly.from_qpoly(q, scale) ** l
    return out


@dataclass(frozen=True)
class DivisorSet:
    """The complete set of non-associate divisors of ``element`` inside Q[S].

    Divisors are normalized to leading coefficient 1 (the units of Q[S] for a
    reduced monoid S are exactly the nonzero constants), sorted by degree and
    then by term sequence.
    """

    element: PuiseuxPoly
    monoid: PuiseuxMonoid
    divisors: tuple[PuiseuxPoly, ...]


def _divisor_sort_key(g: PuiseuxPoly):
    return (g.degree, g.terms)


def divisors_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> DivisorSet:
    """Enumerate every divisor class of f in Q[S] for a finitely generated S.

    Requires supp f inside S.  The element is scaled into a numerical monoid,
    factored over Q, and all monomial-split / factor-sub-multiset
    combinations whose two supports stay inside the scaled monoid are kept.
    The number of candidate combinations is capped by ``limit``; exceeding it
    raises :class:`ResourceLimitError` rather than truncating.
    """
    if f.is_zero:
        raise DomainError("divisors of the zero element are undefined")
    for s in f.support:
        if not monoid.contains(s):
            raise DomainError(f"support exponent {s} lies outside the monoid")
    scale, numerical = monoid.normalization()
    cleared = f.substitute(scale).to_qpoly()
    k, core = cleared.split_monomial()
    fact = factor_over_rationals(core)

    monomial_splits = numerical.divisors(k)
    combinations = len(monomial_splits) * math.prod(m + 1 for _, m in fact.factors)
    if combinations > limit:
        raise ResourceLimitError(
            f"{combinations} candidate divisors exceed the cap of {limit}"
        )

    # Enumerate (g, cofactor) products over sub-multisets of the factor list,
    # keeping a candidate when both supports land inside the scaled monoid.
    # The walk multiplies primitive integer associates: by Gauss's lemma
    # scaling changes no support, and every kept divisor is made monic.
    powers = []
    for poly, mult in fact.factors:
        row = [[1]]
        for _ in range(mult):
            row.append(zz_mul(row[-1], poly.prim))
        powers.append(row)

    inverse = Rat(1) / scale
    found: set[PuiseuxPoly] = set()

    def consider(g: list[int], h: list[int]):
        g_support = [i for i, c in enumerate(g) if c]
        h_support = [i for i, c in enumerate(h) if c]
        for t in monomial_splits:
            if all(numerical.contains(t + e) for e in g_support) and all(
                numerical.contains(k - t + e) for e in h_support
            ):
                found.add(
                    PuiseuxPoly(
                        (Rat(t + i) * inverse, Fraction(g[i], g[-1])) for i in g_support
                    )
                )

    def walk(index: int, g: list[int], h: list[int]):
        if index == len(powers):
            consider(g, h)
            return
        row = powers[index]
        top = len(row) - 1
        for j in range(top + 1):
            walk(index + 1, zz_mul(g, row[j]), zz_mul(h, row[top - j]))

    walk(0, [1], [1])
    ordered = tuple(sorted(found, key=_divisor_sort_key))
    return DivisorSet(element=f, monoid=monoid, divisors=ordered)


def ff_divisor_count(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> int:
    """Number of non-associate divisors of f in Q[S]; finite by construction."""
    return len(divisors_in_algebra(f, monoid, limit=limit).divisors)


def is_atom_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> bool:
    """True when f's only divisor classes in Q[S] are the unit class and f's own."""
    if f.is_zero or f.is_constant:
        raise DomainError("atoms are nonzero nonunits; constants are units or zero")
    return ff_divisor_count(f, monoid, limit=limit) == 2
