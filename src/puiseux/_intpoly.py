"""Dense integer and modular polynomial arithmetic backing rational factorization.

A polynomial is a plain ``list[int]`` in ascending order of exponent with no
trailing zeros; the zero polynomial is the empty list.  ``zz_*`` functions
work over Z, ``gf_*`` functions over F_p for a prime p.
"""

from __future__ import annotations

import math
from itertools import combinations

from .exact import is_prime


# ---------------------------------------------------------------------------
# arithmetic over Z

def zz_strip(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zz_deg(f: list[int]) -> int:
    return len(f) - 1


def zz_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, c in enumerate(g):
        out[i] += c
    return zz_strip(out)


def zz_sub(f: list[int], g: list[int]) -> list[int]:
    out = f[:] + [0] * (len(g) - len(f))
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


def zz_mul_scalar(f: list[int], a: int) -> list[int]:
    if a == 0:
        return []
    return [c * a for c in f]


def zz_max_norm(f: list[int]) -> int:
    return max((abs(c) for c in f), default=0)


def zz_content(f: list[int]) -> int:
    return math.gcd(*f) if f else 0


def zz_primitive(f: list[int]) -> tuple[int, list[int]]:
    """Split ``f = cont * prim`` with ``prim`` primitive and of positive leading coefficient."""
    if not f:
        return 0, []
    cont = zz_content(f)
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


def zz_divmod_by_monic(f: list[int], h: list[int]) -> tuple[list[int], list[int]]:
    """Long division by a monic divisor; exact over Z."""
    assert h and h[-1] == 1
    m = len(h) - 1
    r = f[:]
    if len(r) <= m:
        return [], zz_strip(r)
    q = [0] * (len(r) - m)
    for i in reversed(range(len(q))):
        c = r[i + m]
        if c:
            q[i] = c
            for j, hc in enumerate(h):
                r[i + j] -= c * hc
    return zz_strip(q), zz_strip(r[:m])


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
    r = f[:]
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


# ---------------------------------------------------------------------------
# arithmetic over F_p

def gf_normal(f: list[int], p: int) -> list[int]:
    return zz_strip([c % p for c in f])


def gf_sub(f: list[int], g: list[int], p: int) -> list[int]:
    out = f[:] + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return zz_strip(out)


def gf_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return zz_strip(out)


def gf_mul_scalar(f: list[int], a: int, p: int) -> list[int]:
    a %= p
    if a == 0:
        return []
    return [(c * a) % p for c in f]


def gf_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    return gf_mul_scalar(f, pow(f[-1], -1, p), p)


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    m = len(g) - 1
    inv = pow(g[-1], -1, p)
    r = [c % p for c in f]
    if len(r) <= m:
        return [], zz_strip(r)
    q = [0] * (len(r) - m)
    for i in reversed(range(len(q))):
        c = (r[i + m] * inv) % p
        if c:
            q[i] = c
            for j, gc in enumerate(g):
                r[i + j] = (r[i + j] - c * gc) % p
    return zz_strip(q), zz_strip(r[:m])


def gf_rem(f: list[int], g: list[int], p: int) -> list[int]:
    return gf_divmod(f, g, p)[1]


def gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a, b = gf_normal(f, p), gf_normal(g, p)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended Euclid: (s, t, h) with s*f + t*g = h, h the monic gcd."""
    a, b = gf_normal(f, p), gf_normal(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while b:
        q, r = gf_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not a:
        return [], [], []
    inv = pow(a[-1], -1, p)
    return (
        gf_mul_scalar(s0, inv, p),
        gf_mul_scalar(t0, inv, p),
        gf_mul_scalar(a, inv, p),
    )


def gf_pow_mod(f: list[int], n: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = gf_rem(f, mod, p)
    while n:
        if n & 1:
            result = gf_rem(gf_mul(result, base, p), mod, p)
        base = gf_rem(gf_mul(base, base, p), mod, p)
        n >>= 1
    return result


def gf_derivative(f: list[int], p: int) -> list[int]:
    return zz_strip([(i * c) % p for i, c in enumerate(f)][1:])


def gf_is_squarefree(f: list[int], p: int) -> bool:
    d = gf_derivative(f, p)
    if not d:
        return False
    return zz_deg(gf_gcd(f, d, p)) == 0


def gf_nullspace(a: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right null space of a square matrix over F_p."""
    n = len(a)
    m = [row[:] for row in a]
    pivots: dict[int, int] = {}
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


def gf_berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Irreducible monic factors of a monic squarefree f over F_p (Berlekamp).

    Deterministic: the Frobenius fixed-space basis comes from Gaussian
    elimination and the splitting loop scans field elements in order.
    """
    n = zz_deg(f)
    if n <= 1:
        return [f]
    rows = []
    xp = gf_pow_mod([0, 1], p, f, p)
    cur = [1]
    for _ in range(n):
        rows.append(cur + [0] * (n - len(cur)))
        cur = gf_rem(gf_mul(cur, xp, p), f, p)
    # v is in the Berlekamp subalgebra iff v(X^p) = v(X) mod f, i.e. R^T v = v.
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
        vpoly = zz_strip([c % p for c in v])
        if zz_deg(vpoly) <= 0:
            continue
        refined = []
        for w in factors:
            if zz_deg(w) <= 1:
                refined.append(w)
                continue
            pieces = []
            for c in range(p):
                g = gf_gcd(w, gf_sub(vpoly, [c], p), p)
                if zz_deg(g) >= 1:
                    pieces.append(g)
            refined.extend(pieces if pieces else [w])
        factors = refined
    return sorted(factors, key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, multifactor)

def zz_hensel_step(m, f, g, h, s, t):
    """One quadratic lifting step: from f = g*h, s*g + t*h = 1 (mod m) to mod m^2.

    Requires lc(h) = 1 and lc(f) invertible mod m.
    """
    big = m * m
    e = zz_trunc_sym(zz_sub(f, zz_mul(g, h)), big)
    q, r = zz_divmod_by_monic(zz_mul(s, e), h)
    q = zz_trunc_sym(q, big)
    r = zz_trunc_sym(r, big)
    u = zz_add(zz_mul(t, e), zz_mul(q, g))
    g1 = zz_trunc_sym(zz_add(g, u), big)
    h1 = zz_trunc_sym(zz_add(h, r), big)
    u = zz_add(zz_mul(s, g1), zz_mul(t, h1))
    b = zz_trunc_sym(zz_sub(u, [1]), big)
    c, d = zz_divmod_by_monic(zz_mul(s, b), h1)
    c = zz_trunc_sym(c, big)
    d = zz_trunc_sym(d, big)
    u = zz_add(zz_mul(t, b), zz_mul(c, g1))
    s1 = zz_trunc_sym(zz_sub(s, d), big)
    t1 = zz_trunc_sym(zz_sub(t, u), big)
    return g1, h1, s1, t1


def zz_hensel_lift(p: int, f: list[int], factors: list[list[int]], l: int) -> list[list[int]]:
    """Lift monic pairwise-coprime factors of f mod p to monic factors mod p^l."""
    r = len(factors)
    lc = f[-1]
    if r == 1:
        pl = p**l
        return [zz_trunc_sym(zz_mul_scalar(f, pow(lc, -1, pl)), pl)]
    k = r // 2
    d = max(1, math.ceil(math.log2(l))) if l > 1 else 0
    g = [lc % p]
    for fi in factors[:k]:
        g = gf_mul(g, fi, p)
    h = factors[k]
    for fi in factors[k + 1:]:
        h = gf_mul(h, fi, p)
    s, t, one = gf_gcdex(g, h, p)
    assert one == [1], "factor halves are not coprime mod p"
    g = zz_trunc_sym(g, p)
    h = zz_trunc_sym(h, p)
    s = zz_trunc_sym(s, p)
    t = zz_trunc_sym(t, p)
    m = p
    for _ in range(d):
        g, h, s, t = zz_hensel_step(m, f, g, h, s, t)
        m = m * m
    return zz_hensel_lift(p, g, factors[:k], l) + zz_hensel_lift(p, h, factors[k:], l)


# ---------------------------------------------------------------------------
# Zassenhaus factorization of primitive squarefree integer polynomials

def _choose_prime(f: list[int]) -> int:
    """Smallest prime p >= 3 with p not dividing lc(f) and f squarefree mod p."""
    p = 3
    while True:
        if is_prime(p) and f[-1] % p != 0:
            fp = gf_normal(f, p)
            if gf_is_squarefree(fp, p):
                return p
        p += 2


def _mignotte_bound(f: list[int]) -> int:
    n = zz_deg(f)
    return (math.isqrt(n + 1) + 1) * (1 << n) * zz_max_norm(f) * abs(f[-1])


def zz_factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f with lc(f) > 0, deg f >= 1.

    Classic Zassenhaus: Berlekamp factorization modulo a deterministic prime,
    quadratic Hensel lifting past the Mignotte bound, then subset
    recombination in increasing size and lexicographic order.
    """
    n = zz_deg(f)
    if n == 1:
        return [f]
    p = _choose_prime(f)
    fp = gf_monic(gf_normal(f, p), p)
    modular = gf_berlekamp(fp, p)
    if len(modular) == 1:
        return [f]
    bound = _mignotte_bound(f)
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    lifted = zz_hensel_lift(p, f, modular, l)

    result = []
    remaining = list(range(len(lifted)))
    cur = f
    size = 1
    while 2 * size <= len(remaining):
        for subset in combinations(remaining, size):
            cand = [cur[-1]]
            for i in subset:
                cand = zz_mul(cand, lifted[i])
            cand = zz_trunc_sym(cand, pl)
            _, cand = zz_primitive(cand)
            q = zz_trial_div(cur, cand)
            if q is not None:
                result.append(cand)
                cur = q
                chosen = set(subset)
                remaining = [i for i in remaining if i not in chosen]
                break
        else:
            size += 1
    if zz_deg(cur) >= 1:
        result.append(cur)
    return result
