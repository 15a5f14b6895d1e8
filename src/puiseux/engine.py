"""Canonical factorization in Q[Q_+] and exhaustive divisor enumeration in Q[S].

The canonical form of a nonzero element f is

    constant * X^r * prod(Phi_n(X^(1/m))^e) * prod(q(X^(1/m))^l)

relative to the single clearing denominator m = lcm of the denominators of
the support of f.  The constant is f's leading coefficient and r its order;
the components factor the core f / (constant * X^r) at X^m, read off the
two terms of a binomial and off the cleared polynomial otherwise.  The
cyclotomic components keep splitting under further exponent refinement,
while the q-components (monic irreducibles over Q that divide no X^d - 1)
stay prime in Q[Q_+].  Components are never refined beyond the clearing
denominator of the input.

Divisor enumeration reduces Q[S] for a finitely generated monoid S to a
polynomial ring by scaling, factors there, and keeps exactly the
sub-products whose support and cofactor support land back inside S.  Only
the coefficients below the conductor of the scaled monoid can land outside
it, so the walk runs on truncated products and builds kept divisors only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from ._intpoly import zz_eval_pow2, zz_mul, zz_primitive
from .cyclotomic import binomial_indices, cyclotomic_poly, factor_primitive
from .errors import DomainError, ResourceLimitError
from .exact import Rat
from .monoid import PuiseuxMonoid
from .ppoly import PuiseuxPoly
from .qpoly import QPoly

DEFAULT_DIVISOR_LIMIT = 1 << 20
# Coefficient products that building the divisors of one element may take,
# about ten seconds; a stored divisor term counts as 64 of them.
MAX_BUILD_WORK = 1 << 28


class CanonicalFactorization(NamedTuple):
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


def _factor_core(f: PuiseuxPoly, scale, member=None):
    """(k, cyclotomic, primes) with f(X^scale) = lc(f) * X^k * prod Phi_n^e
    * prod (g / lc(g))^e, f nonzero and read by :meth:`.PuiseuxPoly._read_ints`.

    A binomial's core X^b +- 1 is the product of the Phi_d of
    :func:`binomial_indices` and is never made dense; any other core goes
    to :func:`.cyclotomic.factor_primitive`.  The primes g, primitive, are
    ordered as monic polynomials, compared in integers as g * (L / lc(g)).
    """
    binomial = len(f.terms) == 2 and abs(f.terms[0][1]) == abs(f.terms[1][1])
    exponents, _, ints = f._read_ints(scale, member, dense=not binomial)
    k = exponents[0]
    if binomial:
        sign = 1 if f.terms[0][1] == f.terms[1][1] else -1
        return k, [(d, 1) for d in binomial_indices(exponents[1] - k, sign)], []
    cyclotomic, primes = factor_primitive(zz_primitive(ints[k:])[1])
    top = math.lcm(*(g[-1] for g, _ in primes))
    primes.sort(key=lambda item: (len(item[0]), [c * (top // item[0][-1]) for c in item[0]]))
    return k, cyclotomic, primes


def canonical_factorization(f: PuiseuxPoly) -> CanonicalFactorization:
    """Decompose a nonzero f into the canonical form above.

    The constant is f's leading coefficient, the monomial exponent its
    order r, and m clears the denominators of its support.  Only the core
    f / (constant * X^r), taken at X^m, is factored (:func:`_factor_core`).
    """
    if f.is_zero:
        raise DomainError("cannot factor the zero element")
    m = math.lcm(*(e.denominator for e, _ in f.terms))
    _, cyclotomic, primes = _factor_core(f, m)
    primes = tuple((QPoly._monic(g), e) for g, e in primes)
    return CanonicalFactorization(f.leading_coefficient, m, f.order, tuple(cyclotomic), primes)


def recompose(cf: CanonicalFactorization) -> PuiseuxPoly:
    """Exact product of the parts; inverse of :func:`canonical_factorization`."""
    scale = Rat(1, cf.clearing_denominator)
    out = PuiseuxPoly.monomial(cf.constant, cf.monomial_exponent)
    for n, e in cf.cyclotomic_part:
        out = out * PuiseuxPoly.from_qpoly(cyclotomic_poly(n), scale) ** e
    for q, l in cf.prime_part:
        out = out * PuiseuxPoly.from_qpoly(q, scale) ** l
    return out


class DivisorSet(NamedTuple):
    """The complete set of non-associate divisors of ``element`` inside Q[S].

    Divisors are normalized to leading coefficient 1 (the units of Q[S] for a
    reduced monoid S are exactly the nonzero constants), sorted by degree and
    then by term sequence.
    """

    element: PuiseuxPoly
    monoid: PuiseuxMonoid
    divisors: tuple[PuiseuxPoly, ...]


def _truncated(f: PuiseuxPoly, monoid: PuiseuxMonoid) -> PuiseuxMonoid:
    """S without its generators above max(deg f, least generator): the
    exponents of f's divisors and cofactors lie in [0, deg f], where S has
    only sums of the rest.  S itself, normalization cached, if none is."""
    gens = monoid.generators
    if f.is_zero or not gens or gens[-1] <= max(f.degree, gens[0]):
        return monoid
    return PuiseuxMonoid(g for g in gens if g <= max(f.degree, gens[0]))


def _divisor_walk(f: PuiseuxPoly, monoid: PuiseuxMonoid, limit: int):
    """A generator of the kept (t, choice) keys of f's divisors in Q[S], the
    function that ranks a key on integers, and the function that builds the
    monic divisor of a rank.

    f is read at the scale of a numerical monoid N, where each exponent is
    checked for membership and :func:`_factor_core` gives f as X^k times
    factors, primitive over Z.  A key pairs a
    split t (t and k - t in N) with one exponent j_i per factor, naming the
    divisor X^t * g with cofactor X^(k-t) * h, where h is the product of
    the mirror choice (e_i - j_i).  The factors are pairwise non-associate,
    so distinct keys name distinct classes.  Every exponent at or above the
    conductor of N is a member, so only the coefficients of g and h below
    degree c, the conductor or one past the core degree if that is less,
    decide a key.  The walk multiplies factor powers truncated there, each
    one int of c signed w-bit slots (X -> 2^w mod 2^(w*c)), w wide enough
    for every coefficient.  By Gauss's lemma the integer associates have the
    supports of the factors.  The walk visits each choice with its mirror,
    branching only on j_i <= e_i / 2 while the two agree; one SWAR pass
    marks a leaf's nonzero slots, and one bitmask of the gaps of N below
    k + c decides every split of the leaf for both.  The rank is X^t * g
    with its coefficients times lead / lc(g), lead the product of the
    factors' leading coefficients, all positive, so ranks order as their
    monic divisors do.  Only the rank multiplies out to full degree, each
    prefix of a choice once in any key order, and the root of that memo
    refuses when the work could pass :data:`MAX_BUILD_WORK`; the walk alone
    serves counts and atom tests of larger elements.
    """
    if f.is_zero:
        raise DomainError("divisors of the zero element are undefined")
    scale, numerical = monoid.normalization()
    k, cyclotomic, primes = _factor_core(f, scale, numerical.contains)
    splits = numerical.divisors(k)
    combinations = len(splits) * math.prod(e + 1 for _, e in cyclotomic + primes)
    if combinations > limit:
        raise ResourceLimitError(
            f"{combinations} candidate divisors exceed the cap of {limit}"
        )
    # Past the cap, so a binomial with many indices builds no Phi_n.
    factors = [(cyclotomic_poly(n).prim, e) for n, e in cyclotomic] + primes

    powers = []
    for g, mult in factors:
        row = [[1]]
        for _ in range(mult):
            row.append(zz_mul(row[-1], g))
        powers.append(row)
    # rank multiplies each prefix of a choice out at most once: the nodes
    # prefixes before a factor, of mean degree degree / 2, each times every
    # nonzero power of it.  Each divisor it stores has mean degree degree / 2.
    work, nodes, degree = 0, 1, 0
    for row in powers:
        work += nodes * (degree + 2) // 2 * sum(map(len, row[1:]))
        nodes *= len(row)
        degree += len(row[-1]) - 1
    work += 64 * combinations * (degree + 2) // 2
    c = min(numerical.conductor, degree + 1)
    gaps = sum(1 << x for x in range(k + c) if not numerical.contains(x))
    # Every slot holds a coefficient d with |d| <= bound < 2^(w-1), so adding
    # high carries out of no slot and leaves its low w-1 bits zero only at
    # d = 0.  Slots are whole bytes: nonzero reads the top byte of each as a bit.
    bound = math.prod(max(sum(map(abs, p[:c])) for p in row) for row in powers)
    w = bound.bit_length() + 8 & -8
    mask = (1 << w * c) - 1
    high = mask // ((1 << w) - 1) << w - 1
    rest = high - (high >> w - 1)
    size, step = w * (c + 1) // 8, w // 8
    digits = bytes.maketrans(b"\x00\x80", b"01")
    low = [[zz_eval_pow2(p[:c], w) & mask for p in row] for row in powers]

    def nonzero(v: int) -> int:
        x = (v + high & rest) + rest & high
        return int(x.to_bytes(size, "big")[::step].translate(digits), 2)

    def walk(index: int, g: int, h: int, choice: tuple, mirror: tuple, same: bool):
        if index == len(low):
            g_bits, h_bits = nonzero(g), nonzero(h)
            for t in splits:
                if not (g_bits & gaps >> t or h_bits & gaps >> (k - t)):
                    yield t, choice
                if not (same or h_bits & gaps >> t or g_bits & gaps >> (k - t)):
                    yield t, mirror
            return
        row = low[index]
        e = len(row) - 1
        for j in range(e // 2 + 1 if same else e + 1):
            g_j = g * row[j] & mask if j else g
            h_j = h * row[e - j] & mask if j < e else h
            yield from walk(
                index + 1, g_j, h_j, choice + (j,), mirror + (e - j,), same and 2 * j == e
            )

    # rank multiplies each prefix of a choice out once, and build shares equal
    # exponents and coefficients.  Every product recurses to the root on its
    # first miss, so the root alone checks the cap.
    @lru_cache(maxsize=None)
    def product(choice: tuple[int, ...]) -> list[int]:
        if not choice:
            if work > MAX_BUILD_WORK:
                raise ResourceLimitError(
                    f"building the divisors takes up to {work} coefficient products,"
                    f" past the cap of {MAX_BUILD_WORK}"
                )
            return [1]
        g, j = product(choice[:-1]), choice[-1]
        return zz_mul(g, powers[len(choice) - 1][j]) if j else g

    exponent = lru_cache(maxsize=None)(lambda i: Rat(i * scale.denominator, scale.numerator))
    coefficient = lru_cache(maxsize=None)(Fraction)
    # The leading coefficient of every divisor divides lead.
    lead = math.prod(row[-1][-1] for row in powers)

    def rank(key: tuple[int, tuple[int, ...]]):
        t, choice = key
        g = product(choice)
        unit = lead // g[-1]
        return t + len(g), tuple((i, x * unit) for i, x in enumerate(g, t) if x)

    def build(ranked) -> PuiseuxPoly:
        return PuiseuxPoly._from_canonical(
            tuple((exponent(i), coefficient(y, lead)) for i, y in ranked[1])
        )

    return walk(0, 1 & mask, 1 & mask, (), (), True), rank, build


def divisors_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> DivisorSet:
    """Enumerate every divisor class of f in Q[S] for a finitely generated S.

    Requires supp f inside S.  The element is scaled into a numerical monoid
    N and factored over Q.  Every monomial-split / factor-sub-multiset
    combination is walked on products truncated below the conductor of N,
    the only degrees whose exponents can fall outside N; a combination whose
    divisor and cofactor pass is kept and only then multiplied out.  The
    number of combinations is capped by ``limit``, and the coefficient
    products that building them may take by :data:`MAX_BUILD_WORK`;
    exceeding either raises :class:`ResourceLimitError` rather than
    truncating.
    """
    keys, rank, build = _divisor_walk(f, _truncated(f, monoid), limit)
    ordered = tuple(map(build, sorted(map(rank, keys))))
    return DivisorSet(element=f, monoid=monoid, divisors=ordered)


def ff_divisor_count(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> int:
    """Number of non-associate divisors of f in Q[S]; finite by construction.

    Counts the kept keys of the walk without building any divisor.
    """
    keys = _divisor_walk(f, _truncated(f, monoid), limit)[0]
    return sum(1 for _ in keys)


def is_atom_in_algebra(
    f: PuiseuxPoly, monoid: PuiseuxMonoid, *, limit: int = DEFAULT_DIVISOR_LIMIT
) -> bool:
    """True when f's only divisor classes in Q[S] are the unit class and f's own.

    The walk stops at the third kept key.
    """
    if f.is_zero or f.degree == 0:
        raise DomainError("atoms are nonzero nonunits; constants are units or zero")
    keys = _divisor_walk(f, _truncated(f, monoid), limit)[0]
    return sum(1 for _ in islice(keys, 3)) == 2
