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
sub-products whose support and cofactor support land back inside S.  Only
the coefficients below the conductor of the scaled monoid can land outside
it, so the walk runs on truncated products and builds kept divisors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from ._intpoly import zz_mul
from .cyclotomic import binomial_indices, cyclotomic_poly, factor_parts, factor_primitive
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

    Clears denominators and factors the resulting ordinary polynomial over
    Q, where the cyclotomic split names every Phi_n.
    """
    m, cleared = f.clear_denominators()
    k, constant, cyclotomic, primes = factor_parts(cleared)
    return CanonicalFactorization(
        constant=constant,
        clearing_denominator=m,
        monomial_exponent=Rat(k, m),
        cyclotomic_part=tuple(cyclotomic),
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


def _divisor_walk(f: PuiseuxPoly, monoid: PuiseuxMonoid, limit: int):
    """A generator of the kept (t, choice) keys of f's divisors in Q[S], and
    the function that builds the monic divisor of a key.

    f is scaled into a numerical monoid N as X^k times a primitive core,
    factored over Z.  A key pairs a split t (t and k - t in N) with one
    exponent per factor, naming the divisor X^t * g with cofactor
    X^(k-t) * h.  The factors are pairwise non-associate, so distinct keys
    name distinct classes.  Every exponent at or above the conductor c of N
    is a member, so only the coefficients of g and h below degree c decide
    a key, and the walk multiplies factor powers truncated there.  By
    Gauss's lemma the integer associates have the supports of the factors.
    """
    if f.is_zero:
        raise DomainError("divisors of the zero element are undefined")
    for s in f.support:
        if not monoid.contains(s):
            raise DomainError(f"support exponent {s} lies outside the monoid")
    scale, numerical = monoid.normalization()
    cleared = f.substitute(scale).to_qpoly()
    k, core = cleared.split_monomial()
    cyclotomic, other = factor_primitive(list(core.prim))
    factors = [(cyclotomic_poly(n).prim, e) for n, e in cyclotomic] + other

    splits = numerical.divisors(k)
    combinations = len(splits) * math.prod(m + 1 for _, m in factors)
    if combinations > limit:
        raise ResourceLimitError(
            f"{combinations} candidate divisors exceed the cap of {limit}"
        )

    powers = []
    for g, mult in factors:
        row = [[1]]
        for _ in range(mult):
            row.append(zz_mul(row[-1], g))
        powers.append(row)
    c = numerical.conductor
    low = [[p[:c] for p in row] for row in powers]
    member = numerical.contains

    def walk(index: int, g: list[int], h: list[int], choice: tuple[int, ...]):
        if index == len(low):
            g_low = [i for i, x in enumerate(g) if x]
            h_low = [i for i, x in enumerate(h) if x]
            for t in splits:
                if all(member(t + i) for i in g_low) and all(
                    member(k - t + i) for i in h_low
                ):
                    yield t, choice
            return
        row = low[index]
        for j, power in enumerate(row):
            yield from walk(
                index + 1, zz_mul(g, power)[:c], zz_mul(h, row[-1 - j])[:c], choice + (j,)
            )

    # build keeps the prefix products of the last choice, since keys come in
    # the walk's order, and shares equal exponents and coefficients.
    last: list[int] = []
    prefix = [[1]]
    exponent = lru_cache(maxsize=None)(lambda i: Rat(i * scale.denominator, scale.numerator))
    coefficient = lru_cache(maxsize=None)(Fraction)

    def build(key: tuple[int, tuple[int, ...]]) -> PuiseuxPoly:
        t, choice = key
        i = 0
        while i < len(last) and last[i] == choice[i]:
            i += 1
        del last[i:], prefix[i + 1 :]
        for row, j in zip(powers[i:], choice[i:]):
            prefix.append(zz_mul(prefix[-1], row[j]) if j else prefix[-1])
            last.append(j)
        g = prefix[-1]
        lc = g[-1]
        return PuiseuxPoly._from_canonical(
            tuple((exponent(i), coefficient(x, lc)) for i, x in enumerate(g, t) if x)
        )

    return walk(0, [1][:c], [1][:c], ()), build


def divisors_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> DivisorSet:
    """Enumerate every divisor class of f in Q[S] for a finitely generated S.

    Requires supp f inside S.  The element is scaled into a numerical monoid
    N and factored over Q.  Every monomial-split / factor-sub-multiset
    combination is walked on products truncated below the conductor of N,
    the only degrees whose exponents can fall outside N; a combination whose
    divisor and cofactor pass is kept and only then multiplied out.  The
    number of combinations is capped by ``limit``; exceeding it raises
    :class:`ResourceLimitError` rather than truncating.
    """
    keys, build = _divisor_walk(f, monoid, limit)
    ordered = tuple(sorted(map(build, keys), key=_divisor_sort_key))
    return DivisorSet(element=f, monoid=monoid, divisors=ordered)


def ff_divisor_count(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> int:
    """Number of non-associate divisors of f in Q[S]; finite by construction.

    Counts the kept keys of the walk without building any divisor.
    """
    keys, _ = _divisor_walk(f, monoid, limit)
    return sum(1 for _ in keys)


def is_atom_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> bool:
    """True when f's only divisor classes in Q[S] are the unit class and f's own.

    The walk stops at the third kept key.
    """
    if f.is_zero or f.is_constant:
        raise DomainError("atoms are nonzero nonunits; constants are units or zero")
    keys, _ = _divisor_walk(f, monoid, limit)
    return sum(1 for _ in islice(keys, 3)) == 2
