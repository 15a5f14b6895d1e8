"""Dense integer and modular polynomial arithmetic backing rational factorization.

A polynomial is a ``list[int]`` (or, as an argument, a tuple such as
``QPoly.prim``) in ascending order of exponent with no trailing zeros; the
zero polynomial is empty.  ``zz_*`` functions work over Z, ``gf_*``
functions modulo a prime p or, in Hensel lifting, a power of p.  The work
modulo p itself (the prime test, Berlekamp and Hensel's first inverse)
packs a polynomial over F_p into one int, ``PackedGF``.  Berlekamp first
reads the factors of degree 1 and 2 off the roots of f in F_(p^2), all
evaluated at once on a cached table of packed powers, and factors only what
is left.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations, product

from .errors import ResourceLimitError
from .exact import is_prime

# zz_factor_squarefree refuses an input whose degree times the bit length of
# its Mignotte bound exceeds this: Hensel lifting works at that degree
# modulo p^l > 2 * bound, and Berlekamp's matrix is cubic in the degree.
# X^400 + X + 1 (size 162000) still factors, in 0.6-0.75 s with Python 3.11
# on a 2-vCPU virtual machine; X^500 + X + 1 (size 251000) took 1.0-1.3 s
# with the cap lifted.
MAX_LIFT_SIZE = 170_000
# It also refuses once its recombination would pre-test more subsets than this,
# counting the choices that split an even factor h(X^2) as subsets.
MAX_SUBSETS = 1 << 20
# gf_berlekamp's root pass builds a table per prime only if it takes at most
# half this many bytes, and the tables kept take at most this: 512 KiB in all,
# whatever the primes and degrees.  At degree 409, the lifting cap's largest,
# it admits p <= 7; p = 11 to degree 313, 23 to 70, 43 to 16, 89 to 2, and no
# larger p.  On random squarefree inputs the pass with Berlekamp on the rest
# took about as long as Berlekamp alone up to p = 53, 1.4x as long at p = 97.
MAX_ROOT_TABLE = 1 << 19


# ---------------------------------------------------------------------------
# arithmetic over Z

def zz_strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zz_sub(f: list[int], g: list[int]) -> list[int]:
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return zz_strip(out)


def zz_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return zz_strip(out)


def zz_max_norm(f: list[int]) -> int:
    return max((abs(c) for c in f), default=0)


def zz_primitive(f: list[int]) -> tuple[int, list[int]]:
    """Split ``f = cont * prim`` with ``prim`` primitive and of positive leading coefficient."""
    if not f:
        return 0, []
    cont = math.gcd(*f)
    if f[-1] < 0:
        cont = -cont
    return cont, [c // cont for c in f]


def zz_trunc_sym(f: list[int], m: int) -> list[int]:
    """Reduce every coefficient to the symmetric residue system (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return zz_strip(out)


def zz_derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def zz_trial_div(f: list[int], g: list[int]) -> list[int] | None:
    """Quotient ``f // g`` when g divides f exactly over Z, else None.

    Stepwise integer division: when g | f every leading step divides, so an
    abort or a nonzero remainder certifies non-divisibility.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return []
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        return None
    glc = g[-1]
    r = list(f)
    q = [0] * (n - m + 1)
    for i in reversed(range(len(q))):
        c = r[i + m]
        if c % glc:
            return None
        c //= glc
        q[i] = c
        if c:
            for j, gc in enumerate(g):
                r[i + j] -= c * gc
    if any(r[:m]):
        return None
    return zz_strip(q)


def zz_eval_pow2(f: list[int], k: int) -> int:
    """f(2^k), by halves: lo + X^m * hi gives lo(2^k) + (hi(2^k) << k*m).
    Horner's rule shifts an ever longer integer once per coefficient, which
    is quadratic in the degree."""
    if len(f) <= 32:
        v = 0
        for c in reversed(f):
            v = (v << k) + c
        return v
    m = len(f) // 2
    return zz_eval_pow2(f[:m], k) + (zz_eval_pow2(f[m:], k) << (k * m))


def zz_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) with h the gcd of the primitive parts of f and g,
    primitive with lc > 0, by the heuristic gcd (Char, Geddes & Gonnet,
    J. Symb. Comp. 7, 1989; Geddes, Czapor & Labahn, Algorithms for
    Computer Algebra, 7.7).

    At x = 2^k > 2 * min(|f|, |g|) + 2 the candidate is the primitive part
    of the polynomial whose symmetric base-x digits are gcd(f(x), g(x)); it
    is h exactly when it divides both f and g, and the two quotients are
    the cofactors.  Otherwise k doubles: the stray integer factor divides a
    resultant of the cofactors, so some x reads h off.  A constant candidate
    is h at once, with no division: every root of a common divisor is below
    x/2 in absolute value (Cauchy's bound), so a nonconstant one exceeds x/2
    at x.  gcd(f, 0) = pp(f) and gcd(0, 0) = 0.
    """
    if not f or not g:
        if not f and not g:
            return [], [], []
        cont, h = zz_primitive(f or g)
        return (h, [cont], []) if f else (h, [], [cont])
    k = (2 * min(zz_max_norm(f), zz_max_norm(g)) + 2).bit_length()
    while True:
        v = math.gcd(zz_eval_pow2(f, k), zz_eval_pow2(g, k))
        x = 1 << k
        if 2 * v <= x:
            return [1], list(f), list(g)
        cand = []
        while v:
            c = v & (x - 1)
            if 2 * c > x:
                c -= x
            cand.append(c)
            v = (v - c) >> k
        h = zz_primitive(cand)[1]
        qf = zz_trial_div(f, h)
        qg = None if qf is None else zz_trial_div(g, h)
        if qg is not None:
            return h, qf, qg
        k *= 2


def zz_squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's split (SYMSAC 1976) of a primitive f with lc(f) > 0 into the pairs
    (a_i, i), i increasing, with a_i primitive, squarefree, pairwise coprime,
    of degree >= 1 and f = prod a_i^i.  Every gcd is primitive, so every
    cofactor is exact over Z by Gauss's lemma, and a constant gcd(f, f')
    returns [(f, 1)] at once.
    """
    if len(f) < 2:
        return []
    g, c, w = zz_gcd(f, zz_derivative(f))
    if len(g) == 1:
        return [(f, 1)]
    d = zz_sub(w, zz_derivative(c))
    parts, i = [], 1
    while len(c) > 1:
        a, c, w = zz_gcd(c, d)
        d = zz_sub(w, zz_derivative(c))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


# ---------------------------------------------------------------------------
# arithmetic over F_p

def gf_normal(f: list[int], p: int) -> list[int]:
    return zz_strip([c % p for c in f])


def gf_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo p, for lc(g) a unit mod p (p may be a
    prime power).  The working coefficients are left unreduced: only the
    quotient digit read at each step and the remainder returned are taken
    mod p."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(g) - 1
    if len(f) <= m:
        return [], gf_normal(f, p)
    inv = pow(g[-1], -1, p)
    low = g[:-1]
    r = list(f)
    q = [0] * (len(r) - m)
    for i in reversed(range(len(q))):
        c = (r[i + m] * inv) % p
        if c:
            q[i] = c
            for j, gc in enumerate(low, i):
                r[j] -= c * gc
    return zz_strip(q), gf_normal(r[:m], p)


def gf_rem(f: list[int], g: list[int], p: int) -> list[int]:
    return gf_divmod(f, g, p)[1]


class PackedGF:
    """Polynomials of degree <= n over F_p, each packed into one int as
    sum a_i * 2^(W*i) with slots a_i >= 0 (Kronecker substitution; Harvey,
    J. Symb. Comp. 44, 2009).  Between reductions a slot takes at most
    k = max(n + 1, p) additions of at most (p - 1)^2 (a division's steps, a
    row of Berlekamp's walk or an update in ``inverse``), so it stays below
    2^b, b the bit length of (p - 1) + k*(p - 1)^2.  ``reduce`` takes every
    slot mod p at once (Granlund & Montgomery, PLDI 1994): for
    s = b + bit_length(p) and M = ceil(2^s / p) = (2^s + e)/p, 0 <= e < p,
    a*M/2^s - a/p < 2^(b-s) < 1/p for a < 2^b, so
    floor(a*M / 2^s) = floor(a/p).  For W = s + b + 1 each a_i*M < 2^(s+b)
    stays in its slot; shifted by s, the quotient of slot i fills its low b
    bits, below the low part of slot i + 1's product, which the mask clears.
    Subtracting the quotients times p leaves a_i mod p.  W may be rounded up
    to a multiple of ``align`` bits."""

    def __init__(self, p: int, n: int, align: int = 1):
        self.p, self.b = p, ((p - 1) + max(n + 1, p) * (p - 1) ** 2).bit_length()
        self.s = self.b + p.bit_length()
        self.W = -(-(self.s + self.b + 1) // align) * align
        self.M, self.slot = -(-(1 << self.s) // p), (1 << self.W) - 1
        self.mask = ((1 << self.b) - 1) * ((1 << self.W * (n + 1)) - 1) // self.slot

    def pack(self, f: list[int]) -> int:
        W, p, v = self.W, self.p, 0
        for c in reversed(f):
            v = (v << W) | c % p
        return v

    def unpack(self, v: int, n: int | None = None) -> list[int]:
        """The coefficient list of v, or its first n slots."""
        n = self.degree(v) + 1 if n is None else n
        return [(v >> self.W * i) & self.slot for i in range(n)]

    def reduce(self, v: int) -> int:
        return v - ((v * self.M >> self.s) & self.mask) * self.p

    def degree(self, v: int) -> int:
        return (v.bit_length() - 1) // self.W

    def divmod(self, a: int, g: int) -> tuple[int, int]:
        """(a quo g, a rem g) for reduced a and g != 0, reducing only the remainder."""
        W, p, slot = self.W, self.p, self.slot
        top = (g.bit_length() - 1) // W * W
        inv = pow(g >> top, -1, p)
        q = 0
        for shift in range((a.bit_length() - 1) // W * W - top, -1, -W):
            c = ((a >> (shift + top)) & slot) * inv % p
            if c:
                q |= c << shift
                a += (p - c) * g << shift
        return q, self.reduce(a & ((1 << top) - 1))

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a and b; gcd(0, 0) = 0."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.reduce(a * pow(a >> self.W * self.degree(a), -1, self.p)) if a else 0

    def inverse(self, a: int, f: int) -> int:
        """The s with deg s < deg f and s*a = 1 modulo f, for reduced a and f:
        Euclid on (f, a rem f) carries only the cofactor of a (von zur Gathen &
        Gerhard, Modern Computer Algebra, 3.2 and 4.2); s0 - q*s1 is s0 + (-q)*s1,
        -q being q*(p - 1) reduced.  Each q*s1 has degree below deg f <= n, so a
        slot of the update sums at most n + 1 products of at most (p - 1)^2 on
        top of s0's p - 1: within the slot bound.  Raises ValueError when a and
        f are not coprime."""
        r0, r1, s0, s1 = f, self.divmod(a, f)[1], 0, 1
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.reduce(s0 + self.reduce(q * (self.p - 1)) * s1)
        if self.degree(r0):
            raise ValueError("polynomial is not invertible modulo f")
        return self.reduce(s0 * pow(r0, -1, self.p))

    def is_squarefree(self, f: list[int]) -> bool:
        """Whether f, with lc(f) a unit mod p, is squarefree mod p."""
        d = self.pack(zz_derivative(f))
        return d != 0 and self.degree(self.gcd(self.pack(f), d)) == 0


_root_tables: dict[int, tuple[PackedGF, int, list[int], list[int], int]] = {}


def _root_table(p: int, n: int) -> tuple[PackedGF, int, list[int], list[int], int] | None:
    """(T, nu, re, im, size): slot b*p + a of re[j] and im[j] holds the two
    coordinates of alpha^j, j <= n, for the m = p(p+1)/2 elements
    alpha = a + b*s of F_(p^2) with 0 <= b <= (p-1)/2 and s^2 = nu the least
    non-residue, in the byte-aligned slots of T; size over-counts their bytes.
    None for a table above MAX_ROOT_TABLE / 2.  The least recently used
    tables go first, so that the tables kept stay within MAX_ROOT_TABLE."""
    table = _root_tables.get(p)
    if table and len(table[2]) > n:
        _root_tables[p] = _root_tables.pop(p)
        return table
    m = p * (p + 1) // 2
    if 4 * (n + 1) * m > MAX_ROOT_TABLE:  # every slot takes a byte at least
        return None
    T = PackedGF(p, max(n, m - 1), 8)
    step = T.W // 8
    size = (2 * n + 3) * (m * step * 16 // 15 + 64)  # re, im and T.mask, 30 bits per 4 bytes
    if 2 * size > MAX_ROOT_TABLE:
        return None
    _root_tables.pop(p, None)
    while size + sum(t[4] for t in _root_tables.values()) > MAX_ROOT_TABLE:
        del _root_tables[next(iter(_root_tables))]
    nu = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    coords = [(a, b, nu * b) for b in range((p + 1) // 2) for a in range(p)]
    x, y, buf, re, im = [1] * m, [0] * m, bytearray(m * step), [], []
    for _ in range(n + 1):
        buf[::step] = bytes(x)
        re.append(int.from_bytes(buf, "little"))
        buf[::step] = bytes(y)
        im.append(int.from_bytes(buf, "little"))
        x, y = ([(u * a + v * nb) % p for u, v, (a, _, nb) in zip(x, y, coords)],
                [(u * b + v * a) % p for u, v, (a, b, _) in zip(x, y, coords)])
    table = _root_tables[p] = (T, nu, re, im, size)
    return table


def gf_berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Irreducible monic factors of a monic squarefree f over F_p, sorted.

    >>> gf_berlekamp([1, 2, 2, 3, 2, 1, 1], 7)  # (X + 1)(X^2 + 1)(X^3 + X + 1)
    [[1, 1], [1, 0, 1], [1, 1, 0, 1]]

    First the factors of degree 1 and 2, through the roots of f in F_(p^2),
    if _root_table admits p and deg f >= 2: f(alpha) for all alpha at once is
    sum f_j * re[j] + (sum f_j * im[j]) * s, each sum reduced by T, whose slot
    bound covers deg f.  Slot b*p + a is a root if both parts vanish there;
    b = 0 gives X - a, b > 0 the irreducible X^2 - 2a*X + a^2 - nu*b^2.  Their
    product is divided out of f.  A rest of degree 3 to 5 is then irreducible,
    and only a rest of degree 6 or more goes on to Berlekamp.

    The matrix rows X^(p*i) mod f, i < n = deg f, are every p-th step of one
    packed walk through the powers of X mod f, a shift and top * (-f mod p) a
    step: p*n steps, no more than squaring and n products mod f take if p <= 2n.

    Every v in the Berlekamp subalgebra {v : v^p = v mod f} is congruent to
    a constant modulo each irreducible factor of f.  For each basis vector
    v, a piece w is reduced to u = v mod w, and while u is not constant the
    non-trivial gcd(w, u - c) for c = 0, 1, ... in increasing order splits
    off the factors of w on which v takes the value c; they are divided out
    of w, and u is reduced modulo what is left.  Once u is constant, v takes
    one value on every factor of the rest, which is then a single piece, and
    the remaining values of c are not tried.  Deterministic: the basis comes
    from Gaussian elimination.
    """
    f, small, key = gf_normal(f, p), [], lambda g: (len(g), g)
    n = len(f) - 1
    if n > 1 and (table := _root_table(p, n)):
        T, nu, re, im, _ = table
        step = T.W // 8
        zero = T.reduce(sum(c * r for c, r in zip(f, re))) | T.reduce(sum(c * r for c, r in zip(f, im)))
        values = zero.to_bytes(p * (p + 1) // 2 * step, "little")[::step]
        small = [[(a * a - nu * b * b) % p, -2 * a % p, 1] if b else [-a % p, 1]
                 for i, v in enumerate(values) if not v for b, a in [divmod(i, p)]]
        if small:
            P, g = PackedGF(p, n), 1
            for h in small:
                g = P.reduce(g * P.pack(h))
            f = P.unpack(P.divmod(P.pack(f), g)[0])
            n = len(f) - 1
        if n < 6:
            return sorted(small + [f] * (n > 0), key=key)
    P = PackedGF(p, n)
    W, slot, top = P.W, P.slot, P.W * n
    neg, low, cur, rows = P.pack([-c for c in f[:n]]), (1 << top) - 1, 1, [1]
    for _ in range(n - 1):
        for _ in range(p):
            cur = ((cur << W) & low) + (cur >> (top - W)) % p * neg
        rows.append(cur := P.reduce(cur))
    # v is in the Berlekamp subalgebra iff (R^T - I) v = 0.  Gauss-Jordan on its
    # packed rows: a row takes one addition per pivot, so only pivots are reduced.
    columns = zip(*(P.unpack(r, n) for r in rows))
    m = [P.reduce(P.pack(c) + ((p - 1) << W * i)) for i, c in enumerate(columns)]
    pivots = {}
    for col in range(n):
        shift, row = W * col, len(pivots)
        pr = next((r for r in range(row, n) if ((m[r] >> shift) & slot) % p), None)
        if pr is not None:
            pivot, m[pr] = P.reduce(m[pr]), m[row]
            pivot = m[row] = P.reduce(pivot * pow((pivot >> shift) & slot, -1, p))
            for r in range(n):
                c = ((m[r] >> shift) & slot) % p
                if c and r != row:
                    m[r] += (p - c) * pivot
            pivots[col] = row
    # For each column fc without a pivot: 1 at fc, minus column fc at the pivots.
    basis = [sum(-((m[r] >> W * fc) & slot) % p << W * c for c, r in pivots.items()) + (1 << W * fc)
             for fc in range(n) if fc not in pivots]
    factors = [P.pack(f)]
    for v in basis:
        if len(factors) == len(basis):
            break
        refined = []
        for w in factors:
            u, c = P.divmod(v, w)[1], 0
            while P.degree(u) > 0:
                g = P.gcd(w, u - (u & slot) + ((u & slot) - c) % p)
                if P.degree(g) >= 1:
                    refined.append(g)
                    w = P.divmod(w, g)[0]
                    u = P.divmod(u, w)[1]
                c += 1
            refined.append(w)
        factors = refined
    return sorted(small + list(map(P.unpack, factors)), key=key)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, multifactor)

def _mirror(h: list[int]) -> list[int]:
    """sigma(h) = (-1)^deg h * h(-X), monic with h."""
    return [-c if (len(h) - i) % 2 == 0 else c for i, c in enumerate(h)]


def _pairs(factors: list[list[int]], p: int) -> list[tuple[int, int]]:
    """(i, j), i <= j, for sigma(f_i) = f_j mod p; (i, i) if sigma(f_i) is f_i or no f_j."""
    index = {tuple(c % p for c in fi): i for i, fi in enumerate(factors)}
    return [(i, j) for i, fi in enumerate(factors)
            if (j := index.get(tuple(c % p for c in _mirror(fi)), i)) >= i]


def zz_hensel_lift(p: int, f: list[int], factors: list[list[int]], l: int) -> list[list[int]]:
    """Lift monic pairwise-coprime factors f_i of f mod p to monic factors mod p^l.

    One Newton iteration lifts all the factors at once.  Let F = f/lc(f) and
    s_i the inverse modulo (f_i, m) of the cofactor c_i, F = f_i * c_i mod m;
    f_i + (F rem f_i) * s_i rem f_i is the lift mod m^2.  A step reads only F
    and f_i, so any subset of F's factors mod p lifts to its entries in the
    lift of them all.

    A factor of degree 1 or 2 is lifted through its root t in Z/m[t]/(f_i),
    where F rem f_i is F(t).  One Horner pass gives F(t) mod m^2 and F'(t)
    mod m.  F = f_i * c_i mod m gives F' = f_i' * c_i mod (f_i, m), so
    s_i = f_i'(t) / F'(t); F'(t) is a unit because F is squarefree mod p.
    For f_i = X^2 + b1*X + b0, the inverse of w0 + w1*t is its conjugate
    (w0 - b1*w1) - w1*t over its norm w0^2 - b1*w0*w1 + b0*w1^2.

    A larger factor divides F by f_i, whose quotient gives c_i modulo
    (f_i, m): s_i comes from one PackedGF.inverse at m = p and is lifted by
    s_i * (2 - s_i * c_i) rem f_i at every later step.  Hensel lifts are
    unique, so the result is that of the factor tree of von zur Gathen &
    Gerhard, Modern Computer Algebra 15.5, which runs a gcd of up to the
    degree of f at each of its r - 1 inner nodes and lifts every node's
    Bezout pair.
    """
    pl = p**l
    F = gf_monic(f, pl)
    lifted = [list(fi) for fi in factors]
    inverses = [[] for _ in lifted]
    m = p
    while m < pl:
        big = min(m * m, pl)
        Fm = gf_normal(F, big)
        for i, fi in enumerate(lifted):
            if len(fi) == 2:
                t, v, w = -fi[0], 0, 0
                for c in reversed(Fm):
                    w, v = (w * t + v) % m, (v * t + c) % big
                fi[0] = (fi[0] + v * pow(w, -1, m)) % big
            elif len(fi) == 3:
                b0, b1, _ = fi
                v0 = v1 = w0 = w1 = 0  # v0 and w0 feed no later step of their own
                for c in reversed(Fm):
                    w0, w1 = v0 - b0 * w1, (v1 + w0 - b1 * w1) % m
                    v0, v1 = c - b0 * v1, (v0 - b1 * v1) % big
                n = pow(w0 * w0 - b1 * w0 * w1 + b0 * w1 * w1, -1, m)
                s0, s1 = (b1 * (w0 - b1 * w1) + 2 * b0 * w1) * n % m, (2 * w0 - b1 * w1) * n % m
                fi[0] = (b0 + v0 * s0 - b0 * v1 * s1) % big
                fi[1] = (b1 + v0 * s1 + v1 * s0 - b1 * v1 * s1) % big
            else:
                q, e = gf_divmod(Fm, fi, big)
                c = gf_rem(q, fi, m)
                if m == p:
                    P = PackedGF(p, len(fi) - 1)
                    s = P.unpack(P.inverse(P.pack(c), P.pack(fi)))
                else:
                    s = inverses[i]
                    s = gf_rem(zz_mul(s, zz_sub([2], gf_rem(zz_mul(s, c), fi, m))), fi, m)
                inverses[i] = s
                for j, d in enumerate(gf_rem(zz_mul(e, s), fi, big)):
                    fi[j] = (fi[j] + d) % big
        m = big
    return [zz_trunc_sym(fi, pl) for fi in lifted]


# ---------------------------------------------------------------------------
# Zassenhaus factorization of primitive squarefree integer polynomials

def _choose_prime(f: list[int]) -> int:
    """Smallest prime p >= 3 with p not dividing lc(f) and f squarefree mod p.

    An even f = g(X^2) has f' = 2X * g'(X^2) and X^2 | f if X | f.  So for
    odd p it is squarefree mod p exactly when p does not divide f(0) and g,
    of half the degree, is: gcd(g(X^2), g'(X^2)) = gcd(g, g')(X^2).
    """
    g = f if any(f[1::2]) else f[::2]
    p = 3
    while not (is_prime(p) and f[-1] % p != 0 and (g is f or f[0] % p != 0)
               and PackedGF(p, len(g) - 1).is_squarefree(g)):
        p += 2
    return p


_SMALL_PRIMES = [p for p in range(2, 100) if is_prime(p)]
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _certified_irreducible(f: list[int], shift: bool = True) -> bool:
    """Whether f's Newton polygon at some prime p < 100 proves f irreducible:
    p divides f(0) != 0 but not lc(f), v = v_p(f(0)) is prime to n, and each
    a_i, 0 < i < n, has v_p(a_i) >= v*(n - i)/n.  The polygon is then one
    segment with no lattice point inside, so a factor over Q_p has degree n
    (Dumas, J. Math. Pures Appl. 1906; Eisenstein is v = 1).  Failing that,
    with shift, if s = a_(n-1)/(n*a_n) is a nonzero integer and f(-s) has a
    prime factor below 100, f(X - s) is tried: (X + 1)^n + c becomes X^n + c."""
    n, c = len(f) - 1, f[0]
    g = math.gcd(_PRIMORIAL, *f[:-1]) if c else 1  # p | a_i for i < n; v_p(0) is infinite
    for p in _SMALL_PRIMES:
        if g % p == 0 and f[-1] % p:
            v = next(k for k in range(c.bit_length()) if c % p ** (k + 1))  # v_p(f(0))
            if math.gcd(v, n) == 1 and all(a % p ** -(-v * (n - i) // n) == 0 for i, a in enumerate(f[1:-1], 1)):
                return True
    s, r = divmod(f[-2], n * f[-1])
    if not shift or r or not s:
        return False
    value = 0
    for a in reversed(f):
        value = value * -s + a
    if not value or math.gcd(value, _PRIMORIAL) == 1:
        return False
    f = list(f)
    for i in range(n):  # Taylor shift, n(n+1)/2 steps
        for j in range(n - 1, i - 1, -1):
            f[j] -= s * f[j + 1]
    return _certified_irreducible(f, False)


def _mignotte_bound(f: list[int]) -> int:
    n = len(f) - 1
    return (math.isqrt(n + 1) + 1) * (1 << n) * zz_max_norm(f) * abs(f[-1])


def _trace_bound(cur: list[int], bound: int) -> int:
    """A bound on |lc(h)*g_(deg g - 1)| for every factorization cur = g*h over Z.

    That coefficient is -lc(cur) times the sum of the roots of g.  They are
    at most deg cur roots of cur, each of modulus at most
    1 + max_(i<n) |cur_i| / |lc(cur)| (Cauchy).  bound, the Mignotte bound of
    a multiple f of cur, bounds it too; the smaller of the two is returned.
    """
    return min(bound, (len(cur) - 1) * (abs(cur[-1]) + max(map(abs, cur[:-1]))))


def _first_factor(cur: list[int], candidates: Iterable[tuple[tuple[int, ...], int]],
                  lifted: list[list[int]], values: list[int], pl: int,
                  bound: int) -> tuple[tuple[int, ...], list[int], list[int]] | None:
    """The first (subset, g, cur / g) over the (subset, trace sum) pairs of
    candidates such that g, the primitive part of lc(cur) times the subset's
    lifted factors mod pl, divides cur over Z; None if none does.  The two
    pre-tests of zz_factor_squarefree come first."""
    lc, trace_bound = cur[-1], _trace_bound(cur, bound)
    target = lc * sum(cur)
    for subset, t in candidates:
        if trace_bound < lc * t % pl < pl - trace_bound:
            continue
        c = lc
        for i in subset:
            c = c * values[i] % pl
        if target and (c == 0 or target % (c - pl if c > pl // 2 else c)):
            continue  # a zero target, cur(1) = 0, rejects nothing
        cand = [lc]
        for i in subset:
            cand = zz_mul(cand, lifted[i])
        _, cand = zz_primitive(zz_trunc_sym(cand, pl))
        q = zz_trial_div(cur, cand)
        if q is not None:
            return subset, cand, q
    return None


def zz_factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f with lc(f) > 0, deg f >= 1.

    Classic Zassenhaus: Berlekamp factorization modulo a deterministic prime,
    quadratic Hensel lifting past the Mignotte bound, then subset
    recombination in increasing size and lexicographic order.

    A subset is multiplied out and trial-divided only after two necessary
    tests modulo p^l (Abbott, Shoup & Zimmermann, ISSAC 2000) on a table of
    each lifted factor's next-to-leading coefficient and value at 1.  If
    cur = g*h over Z and the subset lifts g, then lc(cur) times the product
    of its monic lifts is lc(h)*g modulo p^l.  So the symmetric residue of
    its next-to-leading coefficient lies within _trace_bound, and if
    cur(1) != 0 that of lc(h)*g(1) is nonzero and divides
    lc(cur)*cur(1) = lc(h)*g(1) * lc(g)*h(1).  The residues are the true
    values: with M the Mahler measure, |lc(h)*g(x)| for |x| = 1 and the
    coefficients of lc(h)*g are at most 2^(deg g)*|lc(h)|*M(g) <= 2^n*M(cur)
    <= 2^n*M(f) <= 2^n*sqrt(n+1)*|f|_inf <= bound < p^l/2, as cur divides f.
    A subset that fails a test lifts no factor, so the factors found are
    those of trial division alone.

    Recombination recurses on even inputs.  An odd f runs the subset loop
    over its lifted factors.  An even f = g(X^2) recombines g over its units
    and splits each factor h of g that comes back.  f = sigma(f), sigma =
    _mirror, so sigma permutes the modular factors f_i, and as Hensel lifts
    are unique it takes the lift of f_i to that of sigma(f_i): one f_i of
    each pair {f_i, sigma(f_i)} (_pairs) is lifted, the other is sigma of
    that lift.  p does not divide f(0), so no f_i is X and a self-mirrored
    f_i is even.  The units, one per pair and one per self-mirrored f_i, are
    the even parts (f_i * sigma(f_i) mod p^l)[::2] and f_i[::2]: monic lifts
    of the factors of g mod p, so g's Hensel lifts.  A factor h of g gives
    h(X^2), which divides f and has h's coefficients and M(h(X^2)) = M(h),
    so the same bound, p^l and tests hold over the units, and g, odd or
    even, is recombined over them by the same rule.

    Lemma: for h irreducible in Z[Y] and not +-Y, h(X^2) is irreducible or
    +-u(X)*u(-X) with u irreducible.  Proof: let u be an irreducible factor
    of h(X^2); u(-X) divides h((-X)^2) = h(X^2) too.  If u(-X) = +-u(X), u
    is even (an odd u has the factor X, so u = +-X and h = +-Y), so
    u = w(X^2) with w a factor of h, and u = +-h(X^2).  Otherwise
    u(X)*u(-X) divides h(X^2), and it is +-v(X^2) with deg v = deg u.  h
    divides v, as both vanish at a^2 for a root a of u, so
    2 deg u <= deg h(X^2) = 2 deg h <= 2 deg v = 2 deg u, and h(X^2) is
    c*u(X)*u(-X) with c = +-1 by Gauss's lemma, h being primitive.  Then
    h(0) = c*u(0)^2 and lc(h) = +-lc(u)^2, so |h(0)| and lc(h) > 0 are squares.

    So h(X^2) is irreducible at once if |h(0)| or lc(h) is not a square, or
    if a unit of h is self-mirrored: that f_i dividing u mod p would divide
    sigma(u) = +-u(-X) too, and f_i^2 would divide f mod p.  Otherwise u
    takes one f_i of each of h's k pairs, and the 2^(k-1) choices with the
    first pair's f_i fixed each go through the two pre-tests against h(X^2)
    before trial division.  The factors are returned sorted by their number
    of f_i, then their sorted indices: the order in which recombination over
    the f_i finds them.

    An f that _certified_irreducible proves irreducible returns [f] first; its
    shift runs only within the lifting cap, past which it can take seconds.
    An f with ``deg f * bit_length(bound) > MAX_LIFT_SIZE`` raises
    :class:`ResourceLimitError` before a prime is chosen, and so does one
    whose recombination would pre-test more than ``MAX_SUBSETS`` subsets or
    choices.
    """
    n, bound = len(f) - 1, _mignotte_bound(f)
    if n == 1 or _certified_irreducible(f, n * bound.bit_length() <= MAX_LIFT_SIZE):
        return [f]
    if n * bound.bit_length() > MAX_LIFT_SIZE:
        raise ResourceLimitError(
            f"factoring degree {n} with a {bound.bit_length()}-bit coefficient bound "
            f"exceeds the cap of {MAX_LIFT_SIZE}"
        )
    p = _choose_prime(f)
    fp = gf_monic(gf_normal(f, p), p)
    modular = gf_berlekamp(fp, p)
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    pairs = [] if any(f[1::2]) else _pairs(modular, p)
    own = zz_hensel_lift(p, f, [modular[i] for i, _ in pairs] or modular, l)
    lifted = list(modular) if pairs else own
    for (i, j), g in zip(pairs, own):
        lifted[i], lifted[j] = g, (_mirror(g) if i < j else g)
    subsets = 0

    def plan(count: int) -> None:
        nonlocal subsets
        subsets += count
        if subsets > MAX_SUBSETS:
            raise ResourceLimitError(
                f"{subsets} recombination subsets exceed the cap of {MAX_SUBSETS}"
            )

    def recombine(f: list[int], lifted: list[list[int]],
                  pairs: list[tuple[int, int]]) -> list[tuple[list[int], tuple[int, ...]]]:
        """The factors of f over its lifted factors, each with the indices it takes."""
        trace = [g[-2] for g in lifted]
        values = [sum(g) % pl for g in lifted]
        found = []
        if pairs:
            g = f[::2]
            units = [(zz_trunc_sym(zz_mul(lifted[i], lifted[j]), pl) if i < j else lifted[i])[::2]
                     for i, j in pairs]
            for h, ks in recombine(g, units, [] if any(g[1::2]) else _pairs(units, p)):
                H = [c for a in h for c in (a, 0)][:-1]
                chosen = [pairs[k] for k in ks]
                indices = tuple(sorted({i for pair in chosen for i in pair}))
                hit = None
                if all(i < j for i, j in chosen) and all(math.isqrt(a) ** 2 == a for a in (abs(h[0]), h[-1])):
                    plan(1 << (len(chosen) - 1))
                    choices = [chosen[0][:1]] + chosen[1:]
                    sums = map(sum, product(*[[trace[i] for i in c] for c in choices]))
                    hit = _first_factor(H, zip(product(*choices), sums), lifted, values, pl, bound)
                if hit:
                    subset, u, q = hit
                    found += [(u, tuple(sorted(subset))), (q, tuple(i for i in indices if i not in subset))]
                else:
                    found.append((H, indices))
            return found
        remaining = list(range(len(lifted)))
        size = 1
        while 2 * size <= len(remaining):
            plan(math.comb(len(remaining), size))
            sums = map(sum, combinations([trace[i] for i in remaining], size))
            hit = _first_factor(f, zip(combinations(remaining, size), sums), lifted, values, pl, bound)
            if hit:
                subset, g, f = hit
                found.append((g, subset))
                remaining = [i for i in remaining if i not in subset]
            else:
                size += 1
        if len(f) > 1:
            found.append((f, tuple(remaining)))
        return found

    return [g for g, _ in sorted(recombine(f, lifted, pairs), key=lambda t: (len(t[1]), t[1]))]
