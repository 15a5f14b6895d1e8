"""The benchmark's own exact arithmetic, independent of ``puiseux``.

Everything here is written from scratch on Python integers and fractions so
that the benchmark can build its inputs and check the library's answers
without trusting the library.  Polynomials are ascending coefficient lists
(index = exponent).  Elements of Q[Q_+] are dicts {exponent: coefficient}
with ``Fraction`` keys and values and no zero coefficients.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# -- integers -----------------------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def totient_table(bound: int) -> list[int]:
    """phi(n) for 0 <= n <= bound by a sieve (phi(0) is set to 0)."""
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    phi[0] = 0
    return phi


def inverse_totient_brute(d: int) -> list[int]:
    """Every n with phi(n) = d; phi(n) >= sqrt(n/2) bounds n by 2*d^2 + 2."""
    bound = 2 * d * d + 2
    phi = totient_table(bound)
    return [n for n in range(1, bound + 1) if phi[n] == d]


# -- dense polynomials ----------------------------------------------------------


def strip(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f: list, g: list) -> list:
    out = list(f) + [0] * max(0, len(g) - len(f))
    for i, c in enumerate(g):
        out[i] += c
    return strip(out)


def scale(f: list, c) -> list:
    return strip([a * c for a in f])


def mul(f: list, g: list) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def power(f: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = mul(out, f)
    return out


def exact_div(f: list, g: list) -> list | None:
    """f / g when g divides f exactly with an integer (or rational) quotient.

    For integer lists every leading step must divide, so an inexact step or a
    nonzero remainder certifies non-divisibility.  Fraction lists divide
    exactly at every step, leaving only the remainder test.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return []
    if len(f) < len(g):
        return None
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    lc = g[-1]
    for i in reversed(range(len(q))):
        c = r[i + len(g) - 1]
        if isinstance(c, int) and isinstance(lc, int):
            if c % lc:
                return None
            c //= lc
        else:
            c = Fraction(c) / lc
        q[i] = c
        if c:
            for j, gc in enumerate(g):
                r[i + j] -= c * gc
    return q if not any(r[: len(g) - 1]) else None


def compose_power(f: list, k: int) -> list:
    """f(X^k)."""
    out = [0] * ((len(f) - 1) * k + 1) if f else []
    for i, c in enumerate(f):
        out[i * k] = c
    return out


def taylor_shift_terms(f: list) -> list[list[int]]:
    """Coefficient polynomials c_j(X) with f(X + t) = sum_j c_j(X) t^j."""
    n = len(f) - 1
    out = []
    for j in range(n + 1):
        cj = [0] * (n - j + 1)
        for i in range(j, n + 1):
            cj[i - j] = f[i] * math.comb(i, j)
        out.append(strip(cj))
    return out


def swinnerton_dyer(primes: list[int]) -> list[int]:
    """prod over all signs of (X - sum(+-sqrt p)); monic, irreducible, degree 2^k.

    Adjoining sqrt(p) to P(X) gives P(X + sqrt p) P(X - sqrt p) = E^2 - p O^2,
    where E and O collect the even and odd Taylor terms of P(X + t).
    """
    poly = [0, 1]
    for p in primes:
        even, odd = [], []
        for j, cj in enumerate(taylor_shift_terms(poly)):
            if j % 2 == 0:
                even = add(even, scale(cj, p ** (j // 2)))
            else:
                odd = add(odd, scale(cj, p ** (j // 2)))
        poly = add(mul(even, even), scale(mul(odd, odd), -p))
    return poly


def cyclotomic(n: int) -> list[int]:
    """Phi_n as the Moebius product prod_{d | n} (X^d - 1)^mu(n/d).

    All numerator binomials are multiplied first; dividing by the
    denominator binomials one at a time stays exact, because each partial
    quotient is Phi_n times the binomials still to be divided out.
    """
    ds = divisors(n)
    poly = [1]
    for d in ds:
        if mobius(n // d) == 1:
            poly = mul(poly, [-1] + [0] * (d - 1) + [1])
    for d in ds:
        if mobius(n // d) == -1:
            # Exact division by X^d - 1: q_i = p_{i+d} + q_{i+d}, read from the top.
            top = len(poly) - 1
            q = [0] * (top - d + 1)
            for i in reversed(range(len(q))):
                q[i] = poly[i + d] + (q[i + d] if i + d < len(q) else 0)
            poly = q
    return poly


def monic(f: list) -> list[Fraction]:
    lc = Fraction(f[-1])
    return [Fraction(c) / lc for c in f]


def to_integer(f: list) -> tuple[int, list[int]]:
    """(D, F) with F = D * f an integer list and D > 0."""
    den = 1
    for c in f:
        den = math.lcm(den, Fraction(c).denominator)
    return den, [int(Fraction(c) * den) for c in f]


# -- elements of Q[Q_+] -----------------------------------------------------------


def puiseux_from_poly(f: list, m: int, shift: Fraction = Fraction(0), c=1) -> dict:
    """c * X^shift * f(X^(1/m)) as an exponent -> coefficient dict."""
    out = {}
    for i, a in enumerate(f):
        if a:
            out[Fraction(i, m) + shift] = Fraction(a) * c
    return out


def clearing_denominator(f: dict) -> int:
    m = 1
    for e in f:
        m = math.lcm(m, e.denominator)
    return m


def to_poly_in(f: dict, m: int) -> list:
    """The ordinary polynomial g with g(X^(1/m)) = f; exponents must allow it."""
    top = max(f) * m
    out = [0] * (int(top) + 1)
    for e, c in f.items():
        k = e * m
        if k.denominator != 1:
            raise ValueError(f"exponent {e} is not a multiple of 1/{m}")
        out[int(k)] = c
    return out


def format_rat(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_element(f: dict) -> str:
    """Render in the CLI input grammar, highest exponent first."""
    parts = []
    for e in sorted(f, reverse=True):
        c = f[e]
        mag = abs(c)
        if e == 0:
            mono = ""
        elif e.denominator == 1:
            mono = "X" if e == 1 else f"X^{e.numerator}"
        else:
            mono = f"X^({e.numerator}/{e.denominator})"
        # The grammar has no unary minus before a bare X: a leading -X is -1*X.
        if not mono:
            body = format_rat(mag)
        elif mag == 1 and (parts or c > 0):
            body = mono
        else:
            body = f"{format_rat(mag)}*{mono}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def parse_element(text: str) -> dict:
    """Read the library's printed form back: signed terms 'c*X^e'.

    Exponents are non-negative and coefficients carry the only signs, so the
    text splits into terms at every '+' and '-'.
    """
    out: dict = {}
    for term in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        if "X" in term:
            coeff_text, _, mono = term.partition("X")
            coeff_text = coeff_text.rstrip("*")
            coeff = Fraction(coeff_text + "1" if coeff_text in ("", "+", "-") else coeff_text)
            if mono == "":
                expo = Fraction(1)
            elif mono.startswith("^"):
                expo = Fraction(mono[1:].strip("()"))
            else:
                raise ValueError(f"cannot read term {term!r}")
        else:
            coeff, expo = Fraction(term), Fraction(0)
        out[expo] = out.get(expo, 0) + coeff
    return {e: c for e, c in out.items() if c}


# -- numerical monoids ----------------------------------------------------------


def normalize_monoid(gens: list[Fraction]) -> tuple[Fraction, list[int]]:
    """(r, N) with r * gens = N, integers with gcd 1."""
    gens = [Fraction(g) for g in gens]
    big = 1
    for g in gens:
        big = math.lcm(big, g.denominator)
    ints = [int(g * big) for g in gens]
    common = math.gcd(*ints)
    return Fraction(big, common), [i // common for i in ints]


def reachable(gens: list[int], bound: int) -> list[bool]:
    """DP membership table: table[x] says x is a sum of the generators."""
    table = [False] * (bound + 1)
    table[0] = True
    for x in range(1, bound + 1):
        table[x] = any(g <= x and table[x - g] for g in gens)
    return table


def minimal_generators(gens: list[int]) -> list[int]:
    """The atoms of <gens>: generators that are no sum of two nonzero members."""
    gens = sorted(set(gens))
    top = gens[-1]
    table = reachable(gens, top)
    atoms = []
    for g in gens:
        # g is no atom iff g = a + b with a, b nonzero members.
        if not any(table[a] and table[g - a] for a in range(1, g)):
            atoms.append(g)
    return atoms
