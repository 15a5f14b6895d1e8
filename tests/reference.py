"""Independent reference implementations used only to cross-check results.

Factorization is Kronecker interpolation over integer points, monoid
membership is a direct dynamic-programming reachability table, and divisor
enumeration combines the two.  Division, gcd and Yun's squarefree split are
the textbook algorithms over Q on ``Fraction`` coefficient lists.  Slow on
purpose; intended for degree <= 8 (the rational routines stay usable to
degree 30 or so).  None of these import the production algorithms.

The exceptions are the references at the end, from Berlekamp on.  The
Berlekamp and Zassenhaus references reuse the kernel's list division over
F_p, prime choice and Berlekamp, and keep in textbook form the steps that
the kernel shortcuts.  The gcd, squarefree test and null space over F_p
work on coefficient lists here, where the kernel packs each polynomial
into one int.
Berlekamp's matrix comes from X^p mod f by repeated squaring, its splitting
loop takes gcd(w, v - c) for every piece w of degree at least 2 and every c
in F_p, Hensel lifting follows the binary factor tree with one extended gcd
per inner node and steps that divide by pseudo-division over Z, where the
kernel lifts every factor in one Newton iteration, and recombination
trial-divides every subset.  The extended Euclidean algorithm over F_p,
with the products and differences it needs, lives here, not in the
kernel, which inverts modulo a factor by carrying only one cofactor.
Division modulo m reduces every working coefficient at every step, where
the kernel reduces only the quotient digits it reads and the remainder it
returns.  Factorization over Q without the cyclotomic split runs the
kernel's Yun split and Zassenhaus on every squarefree part, cyclotomic
factors included.  The cyclotomic
recognizer compares a monic irreducible factor with the library's
``cyclotomic_poly(n)`` for every n in the library's inverse-totient fiber
of its degree, and the canonical form built on it classifies that way every
factor of the factorization without the split.  The inverse totient is a
depth-first search over the library's divisors and primality test, where
the library tabulates every totient dividing d, and the split's candidate
pairs (phi(n), n) come from one such search per totient value, where the
split enumerates products of prime powers.  The dense canonical form
factors every cleared polynomial, binomials included, with the library's
cyclotomic split, where the engine reads a binomial's indices off its two
terms.
Pseudo-division and the primitive remainder sequence over Z live here,
not in the kernel, and Yun's split runs on that gcd with trial division,
where the kernel's heuristic gcd returns the cofactors.  The canonical
form through rational objects rebuilds the scaled element, clears it to a
``QPoly`` and sorts the monic primes by their ``Fraction`` coefficients,
where the engine reads the element once in integers and orders the
primitive primes by an integer key.  The divisor walks scale and factor
through it and reuse the kernel's membership, but the first multiplies
every sub-multiset of factor powers out in full, with no truncation below
the conductor, and collects the divisors, built by ``PuiseuxPoly``'s
checking constructor, in a set.  The key walk is the engine's walk on
truncated coefficient lists, with ``zz_mul`` and one bitmask of the gaps,
where the engine packs each truncated product into one int.  Making an
element dense rebuilds the scaled element through that constructor and
gives every dense coefficient its own ``Fraction``, where
``PuiseuxPoly.to_qpoly`` scales in integers.
The wire-format parser splits the text into a token list before it parses,
where the library reads the characters directly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from puiseux import (
    CanonicalFactorization,
    DomainError,
    ParseError,
    PuiseuxMonoid,
    PuiseuxPoly,
    QPoly,
    Rat,
    ResourceLimitError,
    cyclotomic_poly,
    inverse_totient,
)
from puiseux import _intpoly as zz
from puiseux.cyclotomic import _divisors, binomial_indices, factor_primitive
from puiseux.exact import is_prime
from puiseux.ppoly import MAX_DENSE_DEGREE
from puiseux.textform import _digit_limit_error


# -- integer polynomial helpers (ascending coefficient lists) ---------------

def strip(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def scale(f, a):
    return strip([c * a for c in f])


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


def conductor_by_dp(generators) -> int:
    """Least c with every integer >= c a non-negative integer combination of
    the positive integer generators (gcd 1): a reachability table grown
    until it shows a run of min(generators) consecutive members, after which
    adding the least generator reaches everything."""
    gens = sorted(set(generators))
    a = gens[0]
    reachable = [True]
    run = 1
    while run < a:
        x = len(reachable)
        reachable.append(any(g <= x and reachable[x - g] for g in gens))
        run = run + 1 if reachable[-1] else 0
    return len(reachable) - run


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


# -- schoolbook division modulo m -------------------------------------------

def gf_divmod_eager(f, g, m):
    """(q, r) with f = q*g + r modulo m and deg r < deg g, for lc(g) a unit
    mod m: every working coefficient is reduced mod m at every step."""
    n = len(g) - 1
    inv = pow(g[-1], -1, m)
    r = [c % m for c in f]
    q = [0] * max(len(r) - n, 0)
    for i in reversed(range(len(q))):
        c = r[i + n] * inv % m
        q[i] = c
        for j, gc in enumerate(g):
            r[i + j] = (r[i + j] - c * gc) % m
    return strip(q), strip(r[:n])


# -- the extended Euclidean algorithm over F_p -------------------------------

def gf_sub(f, g, p):
    return strip([c % p for c in add(f, scale(g, -1))])


def gf_mul(f, g, p):
    return strip([c % p for c in mul(f, g)])


def gf_gcdex(f, g, p):
    """Extended Euclid: (s, t, h) with s*f + t*g = h, h the monic gcd."""
    a, b = strip([c % p for c in f]), strip([c % p for c in g])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while b:
        q, r = gf_divmod_eager(a, b, p)
        a, b = b, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not a:
        return [], [], []
    inv = pow(a[-1], -1, p)
    return tuple(strip([c * inv % p for c in h]) for h in (s0, t0, a))


# -- gcd, squarefree test and null space over F_p, on lists ------------------

def gf_gcd(f, g, p):
    """The monic gcd of f and g over F_p by Euclid on the kernel's list
    remainder; gcd(0, 0) = 0."""
    a, b = zz.gf_normal(f, p), zz.gf_normal(g, p)
    while b:
        a, b = b, zz.gf_rem(a, b, p)
    return zz.gf_monic(a, p)


def gf_is_squarefree(f, p):
    d = strip([(i * c) % p for i, c in enumerate(f)][1:])
    return bool(d) and len(gf_gcd(f, d, p)) == 1


def choose_prime_full_euclid(f):
    """Smallest prime p >= 3 with p not dividing lc(f) and f squarefree mod
    p, by one Euclid of f and f' of the full degree at every such prime."""
    p = 3
    while not (is_prime(p) and f[-1] % p and gf_is_squarefree(f, p)):
        p += 2
    return p


def gf_nullspace(a, p):
    """Basis of the right null space of a square matrix over F_p."""
    n = len(a)
    m = [row[:] for row in a]
    pivots = {}
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, n) if m[r][col] % p), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for r in range(n):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [(v - factor * w) % p for v, w in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for c, r in pivots.items():
            v[c] = (-m[r][fc]) % p
        basis.append(v)
    return basis


# -- Berlekamp with an exhaustive splitting scan -----------------------------

def gf_pow_mod(f, n, mod, p):
    """f^n modulo mod over F_p, by repeated squaring."""
    result = [1]
    base = zz.gf_rem(f, mod, p)
    while n:
        if n & 1:
            result = zz.gf_rem(gf_mul(result, base, p), mod, p)
        base = zz.gf_rem(gf_mul(base, base, p), mod, p)
        n >>= 1
    return result


def berlekamp_scan(f, p):
    """Irreducible monic factors of a monic squarefree f over F_p, sorted:
    every basis vector v of the Berlekamp subalgebra is tried on every piece
    of degree >= 2, through gcd(w, v - c) for c = 0, ..., p - 1."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    rows = []
    xp = gf_pow_mod([0, 1], p, f, p)
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = zz.gf_rem(gf_mul(cur, xp, p), f, p)
    a = [[rows[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = (a[i][i] - 1) % p
    basis = gf_nullspace(a, p)
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
                g = gf_gcd(w, gf_sub(vpoly, [c], p), p)
                if len(g) > 1:
                    pieces.append(g)
            refined.extend(pieces if pieces else [w])
        factors = refined
    return sorted(factors, key=lambda g: (len(g), g))


# -- pseudo-division and the primitive remainder sequence over Z ------------

def pseudo_divmod(f, g):
    """(a, q, r) with a*f = q*g + r and deg r < deg g over Z.

    A step scales by lc(g) only where lc(g) does not divide the leading
    coefficient, so a is a power of lc(g), and 1 when g is monic.
    """
    m, glc, a = len(g) - 1, g[-1], 1
    r = list(f)
    q = [0] * max(len(r) - m, 0)
    for i in reversed(range(len(q))):
        c = r[i + m]
        if c % glc:
            a *= glc
            r = [x * glc for x in r]
            q = [x * glc for x in q]
        else:
            c //= glc
        q[i] = c
        if c:
            for j, gc in enumerate(g):
                r[i + j] -= c * gc
    return a, strip(q), strip(r[:m])


def prs_gcd(f, g):
    """The gcd of the primitive parts of f and g, primitive with lc > 0, by the
    primitive remainder sequence (Brown & Traub, J. ACM 18, 1971)."""
    a = primitive(list(f)) if f else []
    b = primitive(list(g)) if g else []
    while b:
        r = pseudo_divmod(a, b)[2]
        a, b = b, primitive(r) if r else []
    return a


# -- Zassenhaus without recombination pre-tests ------------------------------

def hensel_step_pseudo(m, f, g, h, s, t):
    """One quadratic lifting step, dividing by the monic h over Z."""
    big = m * m
    e = zz.zz_trunc_sym(zz.zz_sub(f, zz.zz_mul(g, h)), big)
    _, q, r = pseudo_divmod(zz.zz_mul(s, e), h)
    q = zz.zz_trunc_sym(q, big)
    r = zz.zz_trunc_sym(r, big)
    g1 = zz.zz_trunc_sym(add(g, add(zz.zz_mul(t, e), zz.zz_mul(q, g))), big)
    h1 = zz.zz_trunc_sym(add(h, r), big)
    b = zz.zz_trunc_sym(zz.zz_sub(add(zz.zz_mul(s, g1), zz.zz_mul(t, h1)), [1]), big)
    _, c, d = pseudo_divmod(zz.zz_mul(s, b), h1)
    c = zz.zz_trunc_sym(c, big)
    d = zz.zz_trunc_sym(d, big)
    s1 = zz.zz_trunc_sym(zz.zz_sub(s, d), big)
    t1 = zz.zz_trunc_sym(zz.zz_sub(t, add(zz.zz_mul(t, b), zz.zz_mul(c, g1))), big)
    return g1, h1, s1, t1


def hensel_lift_pseudo(p, f, factors, l):
    """Monic lifts mod p^l of the monic coprime factors of f mod p."""
    lc = f[-1]
    if len(factors) == 1:
        pl = p**l
        return [zz.zz_trunc_sym(scale(f, pow(lc, -1, pl)), pl)]
    k = len(factors) // 2
    g = [lc % p]
    for fi in factors[:k]:
        g = gf_mul(g, fi, p)
    h = [1]
    for fi in factors[k:]:
        h = gf_mul(h, fi, p)
    s, t, _ = gf_gcdex(g, h, p)
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


def totient_search(d):
    """All n with phi(n) = d, by a depth-first search with no cap: n is built
    from prime powers p^k, p - 1 | d, in increasing order of p, with the
    quotient of d still to cover.  The library tabulates every totient r | d
    instead; the divisors of d and the primality test are the library's."""
    primes = [e + 1 for e in _divisors(d) if is_prime(e + 1)]
    found = set()

    def extend(start, rest, n):
        if rest == 1:
            found.add(n)
        for j in range(start, len(primes)):
            p = primes[j]
            if p - 1 > rest:
                break
            if rest % (p - 1):
                continue
            rest_p, power = rest // (p - 1), p
            while True:
                extend(j + 1, rest_p, n * power)
                if rest_p % p:
                    break
                rest_p //= p
                power *= p

    extend(0, d, 1)
    return frozenset(found)


def totient_pairs(d):
    """The pairs (phi(n), n) with phi(n) <= d, increasing, from one
    ``totient_search`` per totient value k <= d: 1 and every even k.
    The cyclotomic split enumerates its candidates instead."""
    ks = [1, *range(2, d + 1, 2)]
    return tuple(sorted((k, n) for k in ks for n in totient_search(k)))


def strong_probable_prime(n, bases):
    """True when an odd n > 2 passes the strong test to every base a:
    with n - 1 = d * 2^s, d odd, a^d is 1 or one of a^d, a^(2d), ...,
    a^(2^(s-1) d) is -1 modulo n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_all_bases(n):
    """Primality of n below 3317044064679887385961981: trial division by
    the first 13 primes, then the strong test to all 13 of them at every
    size of n (Sorenson & Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    return strong_probable_prime(n, bases)


def canonical_by_fiber(f):
    """The canonical factorization of a nonzero PuiseuxPoly f: clear
    denominators, factor the core over Q without the cyclotomic split, then
    classify every factor."""
    m, cleared = f.clear_denominators()
    k = next(i for i, c in enumerate(cleared.prim) if c)
    cyclo, primes = [], []
    for coeffs, mult in factor_without_split(cleared.prim[k:]):
        poly = QPoly(coeffs)
        n = classify_by_fiber(poly)
        if n is None:
            primes.append((poly, mult))
        else:
            cyclo.append((n, mult))
    return CanonicalFactorization(
        cleared.leading_coefficient, m, Rat(k, m), tuple(sorted(cyclo)), tuple(primes)
    )


# -- the canonical form through the cleared polynomial -----------------------

def dense_factorization(f):
    """The canonical factorization of a nonzero PuiseuxPoly f through its
    cleared polynomial, binomials included: clear denominators, split off
    X^k, factor the core with the library's cyclotomic split, and make the
    non-cyclotomic factors monic."""
    m, cleared = f.clear_denominators()
    k = next(i for i, c in enumerate(cleared.prim) if c)
    core = QPoly.from_ints(cleared.content, cleared.prim[k:])
    cyclotomic, other = factor_primitive(list(core.prim))
    primes = [(QPoly.from_ints(Fraction(1, g[-1]), g), e) for g, e in other]
    return CanonicalFactorization(
        constant=core.leading_coefficient,
        clearing_denominator=m,
        monomial_exponent=Rat(k, m),
        cyclotomic_part=tuple(cyclotomic),
        prime_part=tuple(sorted(primes, key=lambda item: (item[0].degree, item[0].coeffs))),
    )


# -- the canonical form through rational objects -----------------------------

def canonical_by_clearing(f):
    """The canonical factorization through rational objects: a binomial's
    indices off its two terms; any other core read off the cleared QPoly,
    made dense by :func:`dense_by_substitution`, factored with the library's
    cyclotomic split, and its primes made monic QPolys sorted by degree and
    then by their ``Fraction`` coefficients."""
    if f.is_zero:
        raise DomainError("cannot factor the zero element")
    constant, r = f.leading_coefficient, f.order
    m = math.lcm(*(e.denominator for e, _ in f.terms))
    if len(f.terms) == 2 and abs(f.terms[0][1]) == abs(constant):
        sign = 1 if f.terms[0][1] == constant else -1
        cyclotomic, primes = [(d, 1) for d in binomial_indices(int((f.degree - r) * m), sign)], []
    else:
        cleared = dense_by_substitution(f, m)
        cyclotomic, other = factor_primitive(list(cleared.prim[int(r * m) :]))
        primes = sorted(
            ((QPoly.from_ints(Fraction(1, g[-1]), g), e) for g, e in other),
            key=lambda item: (item[0].degree, item[0].coeffs),
        )
    return CanonicalFactorization(constant, m, r, tuple(cyclotomic), tuple(primes))


def scaled_by_clearing(f, monoid):
    """(scale, N, k, splits, factors) for f in Q[S]: f scaled onto the
    numerical monoid N = scale * S as an element, every exponent tested for
    membership in N, X^k times the factors (g primitive, e) of
    :func:`canonical_by_clearing`, cyclotomic first, and the splits of k."""
    scale, numerical = monoid.normalization()
    scaled = f.substitute(scale)
    for e, _ in scaled.terms:
        if not (e.denominator == 1 and numerical.contains(e.numerator)):
            raise DomainError(f"support exponent {e / scale} lies outside the monoid")
    cf = canonical_by_clearing(scaled)
    k = int(cf.monomial_exponent)
    factors = [(cyclotomic_poly(n).prim, e) for n, e in cf.cyclotomic_part]
    factors += [(q.prim, l) for q, l in cf.prime_part]
    return scale, numerical, k, numerical.divisors(k), factors


# -- Yun's split by primitive remainder sequences ----------------------------

def yun_squarefree(f):
    """Yun's split of a primitive f with lc(f) > 0 by primitive remainder
    sequences and trial division, as ``zz_squarefree`` returns it."""
    df = zz.zz_derivative(f)
    g = prs_gcd(f, df)
    c = zz.zz_trial_div(f, g)
    d = zz.zz_sub(zz.zz_trial_div(df, g), zz.zz_derivative(c))
    parts, i = [], 1
    while len(c) > 1:
        a = prs_gcd(c, d)
        c = zz.zz_trial_div(c, a)
        d = zz.zz_sub(zz.zz_trial_div(d, a), zz.zz_derivative(c))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


# -- the divisor walk on full products ---------------------------------------

def untruncated_divisors(f, monoid):
    """The sorted divisors of f in Q[S], from every (monomial split,
    sub-multiset) pair of :func:`scaled_by_clearing` whose full g and
    cofactor supports lie in the scaled monoid; the same pair may be met
    twice and is kept once."""
    scale, numerical, k, splits, factors = scaled_by_clearing(f, monoid)
    powers = []
    for g, mult in factors:
        row = [[1]]
        for _ in range(mult):
            row.append(zz.zz_mul(row[-1], g))
        powers.append(row)
    inverse = Rat(1) / scale
    found = set()

    def walk(index, g, h):
        if index == len(powers):
            g_support = [i for i, c in enumerate(g) if c]
            h_support = [i for i, c in enumerate(h) if c]
            for t in splits:
                if all(numerical.contains(t + e) for e in g_support) and all(
                    numerical.contains(k - t + e) for e in h_support
                ):
                    found.add(
                        PuiseuxPoly(
                            (Rat(t + i) * inverse, Fraction(g[i], g[-1])) for i in g_support
                        )
                    )
            return
        row = powers[index]
        top = len(row) - 1
        for j in range(top + 1):
            walk(index + 1, zz.zz_mul(g, row[j]), zz.zz_mul(h, row[top - j]))

    walk(0, [1], [1])
    return tuple(sorted(found, key=lambda g: (g.degree, g.terms)))


def list_walk_keys(f, monoid):
    """The kept (t, choice) keys of f's divisors in Q[S], in the engine's
    order, over the factors of :func:`scaled_by_clearing`: each choice
    walked with its mirror on integer coefficient lists
    truncated below c, and every split of a leaf decided against one
    bitmask of the gaps of the scaled monoid below k + c."""
    _, numerical, k, splits, factors = scaled_by_clearing(f, monoid)
    powers = []
    for g, mult in factors:
        row = [[1]]
        for _ in range(mult):
            row.append(zz.zz_mul(row[-1], g))
        powers.append(row)
    c = min(numerical.conductor, sum(len(row[-1]) - 1 for row in powers) + 1)
    gaps = sum(1 << x for x in range(k + c) if not numerical.contains(x))
    low = [[p[:c] for p in row] for row in powers]
    keys = []

    def walk(index, g, h, choice, mirror, same):
        if index == len(low):
            g_bits = sum(1 << i for i, x in enumerate(g) if x)
            h_bits = sum(1 << i for i, x in enumerate(h) if x)
            for t in splits:
                if not (g_bits & gaps >> t or h_bits & gaps >> (k - t)):
                    keys.append((t, choice))
                if not (same or h_bits & gaps >> t or g_bits & gaps >> (k - t)):
                    keys.append((t, mirror))
            return
        row = low[index]
        e = len(row) - 1
        for j in range(e // 2 + 1 if same else e + 1):
            g_j = zz.zz_mul(g, row[j])[:c] if j else g
            h_j = zz.zz_mul(h, row[e - j])[:c] if j < e else h
            walk(index + 1, g_j, h_j, choice + (j,), mirror + (e - j,), same and 2 * j == e)

    walk(0, [1][:c], [1][:c], (), (), True)
    return keys


# -- sparse to dense through a rebuilt element --------------------------------

def dense_by_substitution(f, scale):
    """f(X^scale) as a QPoly, through the scaled element rebuilt by the
    checking constructor and a dense list with one Fraction per exponent."""
    scaled = PuiseuxPoly((e * Rat(scale), c) for e, c in f.terms)
    for e, _ in scaled.terms:
        if e.denominator != 1:
            raise DomainError(f"exponent {e} is not an integer")
    if not scaled.terms:
        return QPoly()
    degree = int(scaled.degree)
    if degree > MAX_DENSE_DEGREE:
        raise ResourceLimitError(f"dense degree {degree} exceeds the cap of {MAX_DENSE_DEGREE}")
    out = [Fraction(0)] * (degree + 1)
    for e, c in scaled.terms:
        out[int(e)] = c
    return QPoly(out)


# -- the wire-format parser over a token list ---------------------------------
#
# The library reads the characters directly; this reader first splits the
# text into tokens (single characters and runs of ASCII digits, each with
# its offset, then an END token at the text's length) and walks that list.


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()<>,X":
            # a one-character token's kind is the character itself
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    """Recursive descent with single-token lookahead; the grammar is LL(1)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {what}", self.current.offset)
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "END"

    # -- shared pieces ----------------------------------------------------

    def uint(self, what: str) -> int:
        tok = self.expect("INT", what)
        try:
            return int(tok.text)
        except ValueError:
            # an ASCII digit run fails only past the interpreter's digit limit
            raise _digit_limit_error() from None

    def unsigned_rational(self, what: str) -> Fraction:
        start = self.current.offset
        num = self.uint(what)
        if self.current.kind == "/":
            self.advance()
            if self.current.kind == "-":
                raise ParseError("denominator must be positive", self.current.offset)
            den = self.uint("denominator")
            if den == 0:
                raise ParseError("zero denominator", start)
            return Fraction(num, den)
        return Fraction(num)

    def coefficient(self) -> Fraction:
        sign = 1
        if self.current.kind == "-":
            self.advance()
            sign = -1
        return sign * self.unsigned_rational("a number")

    def exponent(self) -> Rat:
        tok = self.current
        if tok.kind == "-":
            raise ParseError("negative exponent is not allowed", tok.offset)
        if tok.kind == "INT":
            return Rat(self.uint("an exponent"))
        if tok.kind == "(":
            self.advance()
            if self.current.kind == "-":
                raise ParseError(
                    "negative exponent is not allowed", self.current.offset
                )
            start = self.current.offset
            num = self.uint("an exponent numerator")
            self.expect("/", "'/' in fractional exponent")
            if self.current.kind == "-":
                raise ParseError("denominator must be positive", self.current.offset)
            den = self.uint("an exponent denominator")
            if den == 0:
                raise ParseError("zero denominator", start)
            self.expect(")", "')'")
            return Rat(num, den)
        raise ParseError("expected an exponent", tok.offset)

    # -- polynomials --------------------------------------------------------

    def mono_exponent(self) -> Rat:
        self.expect("X", "'X'")
        if self.current.kind == "^":
            self.advance()
            return self.exponent()
        return Rat(1)

    def term(self) -> tuple[Rat, Fraction]:
        tok = self.current
        if tok.kind == "X":
            return self.mono_exponent(), Fraction(1)
        if tok.kind in ("INT", "-"):
            coeff = self.coefficient()
            if self.current.kind == "*":
                self.advance()
                return self.mono_exponent(), coeff
            if self.current.kind == "X":
                return self.mono_exponent(), coeff
            return Rat(0), coeff
        raise ParseError("expected a term", tok.offset)

    def poly(self) -> PuiseuxPoly:
        terms = [self.term()]
        while self.current.kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            exponent, coeff = self.term()
            terms.append((exponent, sign * coeff))
        if not self.at_end():
            raise ParseError("unexpected trailing input", self.current.offset)
        return PuiseuxPoly(terms)

    # -- monoid literals -----------------------------------------------------

    def generator(self) -> Rat:
        tok = self.current
        if tok.kind == "-":
            raise ParseError("generator must be positive", tok.offset)
        value = self.unsigned_rational("a generator")
        if value == 0:
            raise ParseError("generator must be positive", tok.offset)
        return Rat(value)

    def monoid(self) -> PuiseuxMonoid:
        self.expect("<", "'<'")
        gens = [self.generator()]
        while self.current.kind == ",":
            self.advance()
            gens.append(self.generator())
        self.expect(">", "'>'")
        if not self.at_end():
            raise ParseError("unexpected trailing input", self.current.offset)
        return PuiseuxMonoid(gens)


def parse_poly_by_tokens(text: str) -> PuiseuxPoly:
    return _Parser(text).poly()


def parse_monoid_by_tokens(text: str) -> PuiseuxMonoid:
    return _Parser(text).monoid()


def parse_rat_by_tokens(text: str) -> Rat:
    parser = _Parser(text)
    value = parser.unsigned_rational("a rational number")
    if not parser.at_end():
        raise ParseError("unexpected trailing input", parser.current.offset)
    return Rat(value)
