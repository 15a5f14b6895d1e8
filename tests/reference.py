"""Independent reference implementations used only to cross-check results.

Factorization is Kronecker interpolation over integer points, monoid
membership is a direct dynamic-programming reachability table, and divisor
enumeration combines the two.  Division, gcd and Yun's squarefree split are
the textbook algorithms over Q on ``Fraction`` coefficient lists.  Slow on
purpose; intended for degree <= 8 (the rational routines stay usable to
degree 30 or so).  None of these import the production algorithms.

The exceptions are the Berlekamp and Zassenhaus references at the end.
They reuse the kernel's arithmetic, null space, prime choice and
Berlekamp, and keep in textbook form the steps that the kernel shortcuts:
Berlekamp's splitting loop takes gcd(w, v - c) for every piece w of degree
at least 2 and every c in F_p, Hensel steps divide by pseudo-division over
Z, and recombination trial-divides every subset.  Factorization over Q
without the cyclotomic split runs the kernel's Yun split and Zassenhaus on
every squarefree part, cyclotomic factors included.  The cyclotomic
recognizer compares a monic irreducible factor with the library's
``cyclotomic_poly(n)`` for every n in the library's inverse-totient fiber
of its degree, and the canonical form built on it classifies every factor
of ``factor_over_rationals`` that way, after the split has already run.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from puiseux import CanonicalFactorization, Rat, cyclotomic_poly, factor_over_rationals, inverse_totient
from puiseux import _intpoly as zz


# -- integer polynomial helpers (ascending coefficient lists) ---------------

def strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def evaluate(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def exact_div(f, g):
    """f // g over Z when g divides f exactly, else None."""
    if not f:
        return []
    if len(f) < len(g):
        return None
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    glc = g[-1]
    for i in reversed(range(len(q))):
        c = r[i + len(g) - 1]
        if c % glc:
            return None
        c //= glc
        q[i] = c
        for j, gc in enumerate(g):
            r[i + j] -= c * gc
    return q if not any(r[: len(g) - 1]) else None



# -- rational long division, Euclid and Yun over Fraction lists ---------------

def q_divmod(f, g):
    """(q, r) with f = q*g + r and deg r < deg g, by long division over Q."""
    r = [Fraction(c) for c in f]
    m = len(g) - 1
    q = [Fraction(0)] * max(len(r) - m, 0)
    for i in reversed(range(len(q))):
        c = r[i + m] / g[-1]
        q[i] = c
        for j, gc in enumerate(g):
            r[i + j] -= c * gc
    return strip(q), strip(r[:m])


def q_monic(f):
    return [Fraction(c) / f[-1] for c in f]


def q_gcd(f, g):
    """Monic gcd by Euclid's algorithm over Q."""
    a, b = strip(list(f)), strip(list(g))
    while b:
        a, b = b, q_divmod(a, b)[1]
    return q_monic(a)


def q_derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def q_sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return strip(out)


def q_squarefree(f):
    """Yun's monic squarefree parts (a_i, i), i increasing, of a nonzero f."""
    w = q_monic(f)
    g = q_gcd(w, q_derivative(w))
    c = q_divmod(w, g)[0]
    d = q_sub(q_divmod(q_derivative(w), g)[0], q_derivative(c))
    parts = []
    i = 1
    while len(c) > 1:
        a = q_gcd(c, d)
        c = q_divmod(c, a)[0]
        d = q_sub(q_divmod(d, a)[0], q_derivative(c))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts

@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Phi_n by the textbook route: X^n - 1 divided exactly by Phi_d for
    every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = exact_div(f, list(cyclotomic_coeffs(d)))
    return tuple(f)


def primitive(f):
    cont = math.gcd(*f)
    if f[-1] < 0:
        cont = -cont
    return [c // cont for c in f]


@lru_cache(maxsize=None)
def signed_divisors(n: int) -> tuple[int, ...]:
    n = abs(n)
    pos = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            pos.add(d)
            pos.add(n // d)
        d += 1
    out = []
    for d in sorted(pos):
        out.extend((d, -d))
    return tuple(out)


def _lagrange_basis(xs):
    """Basis polynomials B_i = prod_{j != i}(X - x_j) / prod_{j != i}(x_i - x_j)."""
    basis = []
    for i, xi in enumerate(xs):
        poly = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] += c * (-xj)
                new[k + 1] += c
            poly = new
            denom *= xi - xj
        basis.append([c / denom for c in poly])
    return basis


def _interpolate(points):
    """Lagrange interpolation through (x, y) pairs; exact rational coefficients."""
    xs = [x for x, _ in points]
    basis = _lagrange_basis(xs)
    coeffs = [Fraction(0)] * len(points)
    for (_, y), poly in zip(points, basis):
        for k, c in enumerate(poly):
            coeffs[k] += y * c
    return coeffs


def _find_factor(f):
    """A nonconstant proper integer divisor of f via Kronecker search, or None."""
    n = len(f) - 1
    sample_xs = [x for s in range(7) for x in ((s, -s) if s else (0,))]
    for x in sample_xs:
        if evaluate(f, x) == 0:
            return [-x, 1]
    for target in range(1, n // 2 + 1):
        # Points whose values have the fewest divisors keep the search space
        # small; a divisor's value at each point must divide f's value there.
        xs = sorted(sample_xs, key=lambda x: len(signed_divisors(evaluate(f, x))))
        xs = sorted(xs[: target + 1])
        vals = [evaluate(f, x) for x in xs]
        choice_lists = [signed_divisors(v) for v in vals]
        # g and -g divide together, so the first coordinate's sign is fixed.
        choice_lists[0] = tuple(d for d in choice_lists[0] if d > 0)
        basis = _lagrange_basis(xs)
        lead_weights = [poly[-1] for poly in basis]
        lc = f[-1]

        def search(level, chosen):
            if level == len(xs):
                # Leading coefficient of the candidate must be a nonzero
                # integer dividing lc(f) (Gauss's lemma).
                lead = sum(d * w for d, w in zip(chosen, lead_weights))
                if lead == 0 or lead.denominator != 1 or lc % int(lead):
                    return None
                cand = [Fraction(0)] * len(xs)
                for d, poly in zip(chosen, basis):
                    for k, c in enumerate(poly):
                        cand[k] += d * c
                if any(c.denominator != 1 for c in cand):
                    return None
                cand = strip([int(c) for c in cand])
                if len(cand) - 1 != target:
                    return None
                if exact_div(f, cand) is not None:
                    return primitive(cand)
                return None
            for d in choice_lists[level]:
                ok = True
                for prev in range(level):
                    gap = xs[level] - xs[prev]
                    if (d - chosen[prev]) % gap:
                        ok = False
                        break
                if ok:
                    hit = search(level + 1, chosen + [d])
                    if hit is not None:
                        return hit
            return None

        hit = search(0, [])
        if hit is not None and len(hit) > 1:
            return hit
    return None


def kronecker_factor(f):
    """Irreducible primitive factors (with repetition) of an integer polynomial.

    The input must be nonzero; the monomial content X^k is returned as k
    copies of [0, 1] and the integer content is dropped.
    """
    assert f and any(f), "zero polynomial"
    f = list(f)
    out = []
    while f[0] == 0:
        out.append([0, 1])
        f = f[1:]
    if len(f) == 1:
        return out
    f = primitive(f)
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 < 1:
            continue
        if len(g) - 1 == 1:
            out.append(primitive(g))
            continue
        factor = _find_factor(g)
        if factor is None:
            out.append(primitive(g))
        else:
            stack.append(factor)
            stack.append(exact_div(g, factor))
    return sorted(out, key=lambda p: (len(p), p))


def kronecker_monic_factors(coeffs):
    """Multiset of monic rational factors of an integer polynomial, as a sorted
    tuple of coefficient tuples (each ascending, Fractions)."""
    factors = kronecker_factor(coeffs)
    monic = []
    for p in factors:
        lc = p[-1]
        monic.append(tuple(Fraction(c, lc) for c in p))
    return tuple(sorted(monic, key=lambda t: (len(t), t)))


# -- monoid membership by direct dynamic programming -------------------------

def dp_membership(q: Fraction, generators) -> bool:
    """Is q a non-negative integer combination of the generators?"""
    q = Fraction(q)
    if q < 0:
        return False
    if q == 0:
        return True
    gens = [Fraction(g) for g in generators]
    if not gens:
        return False
    scale = math.lcm(q.denominator, *(g.denominator for g in gens))
    target = int(q * scale)
    steps = sorted({int(g * scale) for g in gens})
    reachable = [False] * (target + 1)
    reachable[0] = True
    for value in range(1, target + 1):
        for s in steps:
            if s <= value and reachable[value - s]:
                reachable[value] = True
                break
    return reachable[target]


# -- brute-force divisor enumeration -----------------------------------------

def brute_divisor_set(terms, generators):
    """All non-associate divisors of an element of Q[S], for desk-scale inputs.

    ``terms`` is the element as a sequence of (Fraction exponent, Fraction
    coefficient) pairs with integer exponents after scaling by the lcm of the
    generator denominators; ``generators`` generate S.  Returns a set of
    canonical term tuples, each with leading coefficient 1.

    Route: complete Kronecker factorization of the scaled polynomial, then
    exhaustive sub-multiset and monomial-split enumeration with DP-checked
    supports on both the divisor and its cofactor.
    """
    gens = [Fraction(g) for g in generators]
    scale = math.lcm(*(g.denominator for g in gens))
    scaled = {}
    for e, c in terms:
        e = Fraction(e) * scale
        assert e.denominator == 1
        scaled[int(e)] = Fraction(c)
    degree = max(scaled)
    dense = [scaled.get(i, Fraction(0)) for i in range(degree + 1)]
    lcm_den = math.lcm(*(c.denominator for c in dense))
    ints = [int(c * lcm_den) for c in dense]

    k = next(i for i, c in enumerate(ints) if c)
    core = ints[k:]
    factors = kronecker_factor(core) if len(core) > 1 else []

    member = lru_cache(maxsize=None)(lambda x: dp_membership(Fraction(x), gens))

    def supports_ok(poly_ints, shift):
        return all(
            member(Fraction(shift + i, scale))
            for i, c in enumerate(poly_ints)
            if c
        )

    results = set()
    counts = []
    unique = []
    for p in factors:
        key = tuple(p)
        if unique and tuple(unique[-1]) == key:
            counts[-1] += 1
        else:
            unique.append(p)
            counts.append(1)
    ranges = [range(c + 1) for c in counts]
    for t in range(k + 1):
        if not (member(Fraction(t, scale)) and member(Fraction(k - t, scale))):
            continue
        for picks in itertools.product(*ranges):
            g = [1]
            h = [1]
            for p, take, total in zip(unique, picks, counts):
                for _ in range(take):
                    g = mul(g, p)
                for _ in range(total - take):
                    h = mul(h, p)
            if not supports_ok(g, t) or not supports_ok(h, k - t):
                continue
            lc = Fraction(g[-1])
            canonical = tuple(
                (Fraction(t + i, scale), Fraction(c) / lc)
                for i, c in enumerate(g)
                if c
            )
            results.add(canonical)
    return results


# -- Berlekamp with an exhaustive splitting scan -----------------------------

def berlekamp_scan(f, p):
    """Irreducible monic factors of a monic squarefree f over F_p, sorted:
    every basis vector v of the Berlekamp subalgebra is tried on every piece
    of degree >= 2, through gcd(w, v - c) for c = 0, ..., p - 1."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    rows = []
    xp = zz.gf_pow_mod([0, 1], p, f, p)
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = zz.gf_rem(zz.gf_mul(cur, xp, p), f, p)
    a = [[rows[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = (a[i][i] - 1) % p
    basis = zz.gf_nullspace(a, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        if len(factors) == r:
            break
        vpoly = strip([c % p for c in v])
        if len(vpoly) <= 1:
            continue
        refined = []
        for w in factors:
            if len(w) <= 2:
                refined.append(w)
                continue
            pieces = []
            for c in range(p):
                g = zz.gf_gcd(w, zz.gf_sub(vpoly, [c], p), p)
                if len(g) > 1:
                    pieces.append(g)
            refined.extend(pieces if pieces else [w])
        factors = refined
    return sorted(factors, key=lambda g: (len(g), g))


# -- Zassenhaus without recombination pre-tests ------------------------------

def hensel_step_pseudo(m, f, g, h, s, t):
    """One quadratic lifting step, dividing by the monic h over Z."""
    big = m * m
    e = zz.zz_trunc_sym(zz.zz_sub(f, zz.zz_mul(g, h)), big)
    _, q, r = zz.zz_pseudo_divmod(zz.zz_mul(s, e), h)
    q = zz.zz_trunc_sym(q, big)
    r = zz.zz_trunc_sym(r, big)
    g1 = zz.zz_trunc_sym(zz.zz_add(g, zz.zz_add(zz.zz_mul(t, e), zz.zz_mul(q, g))), big)
    h1 = zz.zz_trunc_sym(zz.zz_add(h, r), big)
    b = zz.zz_trunc_sym(zz.zz_sub(zz.zz_add(zz.zz_mul(s, g1), zz.zz_mul(t, h1)), [1]), big)
    _, c, d = zz.zz_pseudo_divmod(zz.zz_mul(s, b), h1)
    c = zz.zz_trunc_sym(c, big)
    d = zz.zz_trunc_sym(d, big)
    s1 = zz.zz_trunc_sym(zz.zz_sub(s, d), big)
    t1 = zz.zz_trunc_sym(zz.zz_sub(t, zz.zz_add(zz.zz_mul(t, b), zz.zz_mul(c, g1))), big)
    return g1, h1, s1, t1


def hensel_lift_pseudo(p, f, factors, l):
    """Monic lifts mod p^l of the monic coprime factors of f mod p."""
    lc = f[-1]
    if len(factors) == 1:
        pl = p**l
        return [zz.zz_trunc_sym(zz.zz_mul_scalar(f, pow(lc, -1, pl)), pl)]
    k = len(factors) // 2
    g = [lc % p]
    for fi in factors[:k]:
        g = zz.gf_mul(g, fi, p)
    h = [1]
    for fi in factors[k:]:
        h = zz.gf_mul(h, fi, p)
    s, t, _ = zz.gf_gcdex(g, h, p)
    g, h, s, t = (zz.zz_trunc_sym(a, p) for a in (g, h, s, t))
    m = p
    for _ in range(max(1, math.ceil(math.log2(l))) if l > 1 else 0):
        g, h, s, t = hensel_step_pseudo(m, f, g, h, s, t)
        m = m * m
    return hensel_lift_pseudo(p, g, factors[:k], l) + hensel_lift_pseudo(p, h, factors[k:], l)


def zassenhaus_all_subsets(f):
    """Irreducible factors of a primitive squarefree f with lc(f) > 0: every
    subset of lifted factors, in increasing size and lexicographic order, is
    multiplied out and trial-divided."""
    if len(f) == 2:
        return [f]
    p = zz._choose_prime(f)
    modular = zz.gf_berlekamp(zz.gf_monic(zz.gf_normal(f, p), p), p)
    if len(modular) == 1:
        return [f]
    bound = zz._mignotte_bound(f)
    l, pl = 1, p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    lifted = hensel_lift_pseudo(p, f, modular, l)
    result, remaining, cur, size = [], list(range(len(lifted))), f, 1
    while 2 * size <= len(remaining):
        for subset in itertools.combinations(remaining, size):
            cand = [cur[-1]]
            for i in subset:
                cand = zz.zz_mul(cand, lifted[i])
            cand = zz.zz_primitive(zz.zz_trunc_sym(cand, pl))[1]
            q = zz.zz_trial_div(cur, cand)
            if q is not None:
                result.append(cand)
                cur = q
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    if len(cur) > 1:
        result.append(cur)
    return result


# -- factorization over Q without the cyclotomic split -----------------------

def factor_without_split(f):
    """Monic irreducible factors with multiplicities of an integer polynomial
    f of degree >= 1, as (Fraction coefficient tuple, multiplicity) pairs
    sorted by degree and coefficients: X^k is split off, and Zassenhaus
    factors every part of Yun's split, with no cyclotomic factor peeled off
    first."""
    k = next(i for i, c in enumerate(f) if c)
    found = [((Fraction(0), Fraction(1)), k)] if k else []
    for part, mult in zz.zz_squarefree(zz.zz_primitive(list(f[k:]))[1]):
        for irr in zz.zz_factor_squarefree(part):
            found.append((tuple(Fraction(c, irr[-1]) for c in irr), mult))
    return sorted(found, key=lambda item: (len(item[0]), item[0]))


# -- cyclotomic recognition by the inverse-totient fiber ---------------------

def classify_by_fiber(p):
    """n when the monic irreducible QPoly p equals Phi_n, else None: p is
    compared with Phi_n for every n with phi(n) = deg p, which is complete
    over Q."""
    for n in sorted(inverse_totient(p.degree)):
        if p == cyclotomic_poly(n):
            return n
    return None


def canonical_by_fiber(f):
    """The canonical factorization of a nonzero PuiseuxPoly f: clear
    denominators, factor the core over Q, then classify every factor."""
    m, cleared = f.clear_denominators()
    k, core = cleared.split_monomial()
    fact = factor_over_rationals(core)
    cyclo, primes = [], []
    for poly, mult in fact.factors:
        n = classify_by_fiber(poly)
        if n is None:
            primes.append((poly, mult))
        else:
            cyclo.append((n, mult))
    return CanonicalFactorization(fact.constant, m, Rat(k, m), tuple(sorted(cyclo)), tuple(primes))
