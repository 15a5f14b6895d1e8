"""Cyclotomic polynomials over Q, factorization over Q with the cyclotomic
factors split off first, elementary symmetric values, and the
vanishing-pattern check for polynomials whose roots are roots of unity."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from typing import NamedTuple

from . import _intpoly as zz
from .errors import DomainError, ResourceLimitError
from .exact import _require_modulus, is_prime
from .ppoly import MAX_DENSE_DEGREE
from .qpoly import QPoly, squarefree_decompose

# Trial division stops here: a number that is still unfactored past the
# square of this bound raises ResourceLimitError, so factoring an exponent
# or index read from input never runs for O(sqrt n) steps.
TRIAL_DIVISION_LIMIT = 1 << 20

# classify_cyclotomic compares values at these powers of two, each moved to the
# next power of two while it is a root.  At 2 the values Phi_n(2) are the
# smallest, so this test is the cheapest and rejects nearly every index; but
# Phi_1(2) = 1 divides every value and Phi_2(2) = Phi_6(2) = 3 every third
# one.  Phi_n(2^8) >= 255 for every n, so few of those pass the second test.
SPLIT_POINTS = (2, 1 << 8)

# Largest degree of a squarefree part that classify_cyclotomic scans: its
# candidate indices and their values grow with the degree, so the scan of a
# part of degree 8000 takes seconds.
MAX_SPLIT_DEGREE = 1 << 12

# Products n one inverse_totient table may hold: 6983776800 holds 1.1e5,
# 720720000 1.2e5; the split builds its candidates without it.
MAX_TOTIENT_STEPS = 1 << 20

# Entries per memo cache below: 1.7x the most keys a workload uses.  Worst
# cases: cyclotomic_poly 2.3 MiB an entry, 8 bytes a coefficient to
# MAX_DENSE_DEGREE and 32 for each outside -5..256, at most 58,075 (Phi_115115
# has 29,081 and holds 1.4 MiB); _split_candidates 2 MiB; _cyclotomic_value
# 91 KiB an entry: Phi_n(2^k) < (2^k + 1)^phi(n), and a point passes 2^8..2^(k-1)
# only as roots, whose product divides a constant term of at most 4300 digits,
# so k <= 169.  Plus 512 KiB of _intpoly root tables: 305 MiB in all.
CACHE_SIZE = 128


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, k) pairs with n = prod p^k, p increasing, by bounded trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            raise ResourceLimitError(
                f"factoring {n} needs trial division past {TRIAL_DIVISION_LIMIT}"
            )
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _divisors(n: int) -> list[int]:
    """Every positive divisor of n, increasing."""
    out = [1]
    for p, k in _prime_factors(n):
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def binomial_indices(n: int, sign: int) -> tuple[int, ...]:
    """The indices d, increasing, with X^n + sign = prod Phi_d for sign = +-1.

    X^n - 1 is the product over every d | n; X^n + 1 = (X^2n - 1)/(X^n - 1)
    is the product over the d | 2n that do not divide n.
    """
    if sign < 0:
        return tuple(_divisors(n))
    return tuple(d for d in _divisors(2 * n) if n % d)


@lru_cache(maxsize=CACHE_SIZE)
def cyclotomic_poly(n: int) -> QPoly:
    """The n-th cyclotomic polynomial: monic, irreducible over Q, degree phi(n).

    Built over the integers from the radical r of n (Arnold & Monagan,
    "Calculating cyclotomic polynomials", Math. Comp. 80, 2011):
    Phi_r = prod_{d | r} (1 - X^d)^mu(r/d) for r > 1, evaluated as a power
    series truncated at degree phi(r) with one O(phi(r)) pass per divisor
    (multiply by 1 - X^d, or divide by it), and then
    Phi_n(X) = Phi_r(X^(n/r)).  Nothing is divided by a dense polynomial
    and no Phi_d is built or cached on the way.  A degree phi(n) above
    :data:`.ppoly.MAX_DENSE_DEGREE` raises :class:`ResourceLimitError`
    before anything is allocated.

    >>> cyclotomic_poly(6)
    QPoly('X^2 - X + 1')
    """
    if n < 1:
        raise DomainError("cyclotomic index must be a positive integer")
    primes = [p for p, _ in _prime_factors(n)]
    if not primes:
        return QPoly._monic([-1, 1])
    degree = math.prod(p - 1 for p in primes)
    stride = n // math.prod(primes)
    if degree * stride > MAX_DENSE_DEGREE:
        raise ResourceLimitError(
            f"cyclotomic degree {degree * stride} exceeds the cap of {MAX_DENSE_DEGREE}"
        )
    series = [1] + [0] * degree
    for size in range(len(primes) + 1):
        for chosen in combinations(primes, size):
            d = math.prod(chosen)
            if (len(primes) - size) % 2 == 0:
                for i in range(degree, d - 1, -1):
                    series[i] -= series[i - d]
            else:
                for i in range(d, degree + 1):
                    series[i] += series[i - d]
    coeffs = [0] * (degree * stride + 1)
    coeffs[::stride] = series
    return QPoly._monic(coeffs)


def totient(n: int) -> int:
    """Euler's phi, n * prod(1 - 1/p) over the primes p | n."""
    if n < 1:
        raise DomainError("totient is defined for positive integers")
    result = n
    for p, _ in _prime_factors(n):
        result -= result // p
    return result


def inverse_totient(d: int) -> frozenset[int]:
    """All n with phi(n) = d.

    phi is multiplicative and phi(p^k) = p^(k-1) (p - 1), so every such n is
    a product of prime powers p^k of distinct primes with phi(p^k) | d, and
    p - 1 | d restricts p to the primes among the d' + 1, d' | d.  A table
    maps each totient r | d to the n built so far with phi(n) = r, and each
    prime in turn extends every n in it by each power p^k with r phi(p^k) | d
    (Contini, Croot & Shparlinski, Math. Comp. 75, 2006).  More than
    :data:`MAX_TOTIENT_STEPS` products held raise :class:`ResourceLimitError`.
    phi(2) = 1, so the power 2^1 doubles an odd n.  Every later phi(q^k) is
    even, so no n is made with d / (r phi(p^k)) odd and above 1.
    """
    if d < 1:
        raise DomainError("totient values are positive integers")
    products, held = {1: [1]}, 1
    for p in (e + 1 for e in _divisors(d) if is_prime(e + 1)):
        grown: dict[int, list[int]] = {}
        phi, power = p - 1, p
        while d % phi == 0:
            for r, ns in products.items():
                if (d // phi) % (2 * r) == 0 or d == r * phi:
                    grown.setdefault(r * phi, []).extend(n * power for n in ns)
                    held += len(ns)
            if held > MAX_TOTIENT_STEPS:
                raise ResourceLimitError(f"phi^-1({d}) holds more than {MAX_TOTIENT_STEPS} products")
            phi, power = phi * p, power * p
        for r, ns in grown.items():
            products.setdefault(r, []).extend(ns)
    return frozenset(products.get(d, ()))


@lru_cache(maxsize=CACHE_SIZE)
def _split_candidates(limit: int) -> tuple[tuple[int, int], ...]:
    """The pairs (phi(n), n), increasing, with phi(n) <= limit, a part's degree rounded up
    to a power of two: n = prod p^k over increasing primes p, phi(n) = prod p^(k-1) (p - 1)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * limit
    for p in range(2, math.isqrt(limit + 1) + 1):
        sieve[p * p :: p] = bytes(len(range(p * p, limit + 2, p)))
    primes = list(compress(range(limit + 2), sieve))
    pairs, stack = [], [(0, 1, 1)]
    while stack:
        start, phi, n = stack.pop()
        pairs.append((phi, n))
        for j in range(start, len(primes)):
            phi_p, power = phi * (primes[j] - 1), n * primes[j]
            if phi_p > limit:
                break
            while phi_p <= limit:
                stack.append((j + 1, phi_p, power))
                phi_p, power = phi_p * primes[j], power * primes[j]
    return tuple(sorted(pairs))


@lru_cache(maxsize=CACHE_SIZE)
def _cyclotomic_value(n: int, b: int) -> int:
    """Phi_n(b) for an integer b >= 2, as the integer Moebius product
    prod_{d | n} (b^d - 1)^mu(n/d); no polynomial is built."""
    primes = [p for p, _ in _prime_factors(n)]
    num = den = 1
    for size in range(len(primes) + 1):
        for chosen in combinations(primes, size):
            term = b ** (n // math.prod(chosen)) - 1
            if size % 2:
                den *= term
            else:
                num *= term
    return num // den


def classify_cyclotomic(f: list[int]) -> tuple[list[int], list[int]]:
    """(indices, rest): the n, increasing, with Phi_n | f, and f divided by
    every such Phi_n, for a primitive squarefree f with lc(f) > 0.

    A candidate n with phi(n) <= deg f is trial-divided only when Phi_n(b)
    divides f(b) at every b of :data:`SPLIT_POINTS`, which every factor of f
    must pass; the trial division decides.  Phi_n divides a squarefree f at
    most once, so each index is tried once and f shrinks as factors come off.
    A degree above :data:`MAX_SPLIT_DEGREE` raises :class:`ResourceLimitError`
    before anything is evaluated.
    """
    if len(f) - 1 > MAX_SPLIT_DEGREE:
        raise ResourceLimitError(f"split degree {len(f) - 1} exceeds the cap of {MAX_SPLIT_DEGREE}")
    points, values = [], []
    for b in SPLIT_POINTS:
        k = b.bit_length() - 1
        while not (v := zz.zz_eval_pow2(f, k)):
            k += 1
        points.append(1 << k)
        values.append(v)
    indices = []
    for phi, n in _split_candidates(1 << (len(f) - 2).bit_length()):
        if phi >= len(f):
            break
        if any(v % _cyclotomic_value(n, b) for b, v in zip(points, values)):
            continue
        q = zz.zz_trial_div(f, cyclotomic_poly(n).prim)
        if q is not None:
            indices.append(n)
            f = q
            values = [v // _cyclotomic_value(n, b) for b, v in zip(points, values)]
    return sorted(indices), f


def factor_primitive(f: list[int]) -> tuple[list[tuple[int, int]], list[tuple[list[int], int]]]:
    """(cyclotomic, other) for a primitive f with lc(f) > 0 and f(0) != 0:
    the pairs (n, e), n increasing, with Phi_n^e exactly dividing f, and
    the pairs (g, e) for every other irreducible g, primitive.

    Yun's split gives pairwise coprime squarefree parts;
    :func:`classify_cyclotomic` names every Phi_n in each part, and only the
    rest goes through Zassenhaus (:func:`._intpoly.zz_factor_squarefree`,
    which raises :class:`ResourceLimitError` past its lifting cap).

    >>> factor_primitive([-4, 0, 4, 0, -1, 0, 4, 0, -4, 0, 1])  # (X^6 - 1)(X^2 - 2)^2
    ([(1, 1), (2, 1), (3, 1), (6, 1)], [([-2, 0, 1], 2)])
    """
    cyclotomic, other = [], []
    for part, e in squarefree_decompose(f):
        indices, rest = classify_cyclotomic(part)
        cyclotomic += [(n, e) for n in indices]
        if len(rest) > 1:
            other += [(g, e) for g in zz.zz_factor_squarefree(rest)]
    return sorted(cyclotomic), other


def elementary_symmetric(f: QPoly, p: int | None = None) -> tuple[Fraction, ...] | tuple[int, ...]:
    """The values (e_0, ..., e_n) of the elementary symmetric polynomials of
    the roots of a monic degree-n polynomial, read off its coefficients.

    e_k equals (-1)^k times the X^(n-k) coefficient; e_0 = 1 by convention.
    With a prime p, f is first reduced into F_p and must be monic there; the
    values are residues in [0, p), so the sign vanishes for p = 2.
    """
    if not isinstance(f, QPoly):
        raise TypeError(f"expected QPoly, got {type(f).__name__}")
    coeffs = f.coeffs
    if p is not None:
        _require_modulus(p)
        for c in coeffs:
            if c.denominator % p == 0:
                raise DomainError(f"coefficient {c} has no image in F_{p}")
        coeffs = zz.gf_normal([c.numerator * pow(c.denominator, -1, p) for c in coeffs], p)
    if not coeffs or coeffs[-1] != 1:
        raise DomainError("elementary symmetric values are defined for monic polynomials")
    n = len(coeffs) - 1
    values = tuple((-1) ** k * coeffs[n - k] for k in range(n + 1))
    return values if p is None else tuple(v % p for v in values)


class VanishingReport(NamedTuple):
    """Outcome of the reflected-vanishing check on (e_0, ..., e_n).

    ``holds`` is true when e_k = 0 implies e_{n-k} = 0 for every k;
    ``witnesses`` lists every violating k (those with e_k = 0 but
    e_{n-k} != 0).
    """

    holds: bool
    witnesses: tuple[int, ...]


def reciprocal_vanishing_check(f: QPoly, p: int | None = None) -> VanishingReport:
    """Check whether zeros of e_k are mirrored at e_{n-k}, over Q or, with a
    prime p, over F_p.

    For monic polynomials over Q whose roots are all roots of unity the
    pattern always holds; over prime fields it can fail.
    """
    values = elementary_symmetric(f, p)
    n = len(values) - 1
    if n < 1:
        raise DomainError("the vanishing check needs degree >= 1")
    witnesses = tuple(k for k in range(n + 1) if values[k] == 0 and values[n - k] != 0)
    return VanishingReport(holds=not witnesses, witnesses=witnesses)
