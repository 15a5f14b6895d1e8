"""Integer division, gcd, Yun's split and Zassenhaus factorization in the
kernel, against the textbook algorithms kept in the reference module."""

import math
import random
import time
from fractions import Fraction

import pytest

from puiseux import PuiseuxPoly, QPoly, ResourceLimitError, canonical_factorization, cyclotomic_poly
from puiseux import factor_over_rationals, poly_divrem, poly_gcd
from puiseux import squarefree_decompose
from puiseux import _intpoly
from puiseux.cyclotomic import split_cyclotomic
from puiseux._intpoly import (
    MAX_LIFT_SIZE,
    _choose_prime,
    _mignotte_bound,
    gf_berlekamp,
    gf_is_squarefree,
    gf_monic,
    gf_mul,
    gf_normal,
    zz_add,
    zz_factor_squarefree,
    zz_gcd,
    zz_hensel_lift,
    zz_mul,
    zz_mul_scalar,
    zz_primitive,
    zz_pseudo_divmod,
    zz_squarefree,
    zz_sub,
    zz_trial_div,
)

from reference import (
    berlekamp_scan,
    hensel_lift_pseudo,
    q_divmod,
    q_gcd,
    q_squarefree,
    yun_squarefree,
    zassenhaus_all_subsets,
)
from randgen import random_fraction, random_qpoly

X = QPoly.variable()


def random_power_product(rng: random.Random) -> QPoly:
    """A rational constant times one to three random non-monic rational bases
    of degree 1 or 2, each raised to a power up to 5."""
    f = QPoly([random_fraction(rng)])
    for _ in range(rng.randint(1, 3)):
        base = QPoly([random_fraction(rng) for _ in range(rng.randint(2, 3))])
        f = f * base ** rng.randint(1, 5)
    return f


def random_zz(rng: random.Random, degree: int, lead=None) -> list[int]:
    f = [rng.randint(-20, 20) for _ in range(degree)]
    return f + [lead if lead is not None else rng.choice((-6, -3, -1, 1, 2, 5))]


EXAMPLE = (X**2 - 2) ** 5 * (3 * X + 1) ** 3


def test_divrem_matches_fraction_oracle():
    rng = random.Random(41)
    for _ in range(60):
        f = random_power_product(rng)
        g = random_power_product(rng) if rng.random() < 0.5 else random_qpoly(rng, 5)
        if g.is_zero:
            continue
        q, r = poly_divrem(f, g)
        oq, orem = q_divmod(f.coeffs, g.coeffs)
        assert q == QPoly(oq) and r == QPoly(orem)
    q, r = poly_divrem(EXAMPLE, QPoly([Fraction(1, 2), 0, 7]))
    assert (q, r) == tuple(map(QPoly, q_divmod(EXAMPLE.coeffs, (Fraction(1, 2), 0, 7))))


def test_gcd_matches_fraction_oracle():
    rng = random.Random(43)
    for _ in range(60):
        h = random_power_product(rng)
        f = h * random_qpoly(rng, 4)
        g = h * random_power_product(rng)
        if f.is_zero:
            continue
        assert poly_gcd(f, g) == QPoly(q_gcd(f.coeffs, g.coeffs))
    assert poly_gcd(EXAMPLE, EXAMPLE * (X - 1)) == EXAMPLE.monic()


def test_squarefree_matches_fraction_oracle():
    rng = random.Random(47)
    cases = [EXAMPLE, EXAMPLE * (X**2 - 2) ** 2 * Fraction(-5, 3)]
    cases += [random_power_product(rng) for _ in range(60)]
    for f in cases:
        expected = [(QPoly(a), i) for a, i in q_squarefree(f.coeffs)]
        assert squarefree_decompose(f) == expected
    assert squarefree_decompose(EXAMPLE) == [(X + Fraction(1, 3), 3), (X**2 - 2, 5)]


def test_pseudo_divmod_identity():
    rng = random.Random(53)
    for _ in range(300):
        f = random_zz(rng, rng.randint(0, 12))
        monic = rng.random() < 0.3
        g = random_zz(rng, rng.randint(0, 5), 1 if monic else None)
        a, q, r = zz_pseudo_divmod(f, g)
        assert zz_mul_scalar(f, a) == zz_sub(zz_mul(q, g), zz_mul_scalar(r, -1))
        assert len(r) < len(g)
        if monic:
            assert a == 1
        assert a in [g[-1] ** k for k in range(len(f) + 1)]
        # an exact divisor never scales, and then agrees with trial division
        a, q, r = zz_pseudo_divmod(zz_mul(f, g), g)
        assert (a, q, r) == (1, zz_trial_div(zz_mul(f, g), g), [])


def test_zz_gcd_is_the_primitive_gcd():
    rng = random.Random(59)
    for _ in range(150):
        h = random_zz(rng, rng.randint(0, 4))
        f = zz_mul(h, random_zz(rng, rng.randint(0, 6)))
        g = zz_mul(h, random_zz(rng, rng.randint(0, 6)))
        d = zz_gcd(f, g)
        assert zz_primitive(d) == (1, d)
        assert zz_trial_div(f, d) is not None and zz_trial_div(g, d) is not None
        assert zz_trial_div(d, zz_primitive(h)[1]) is not None
        monic = [Fraction(c, d[-1]) for c in d]
        assert monic == q_gcd(f, g)
    assert zz_gcd([], []) == []
    assert zz_gcd([0, 4, -6], []) == [0, -2, 3]
    assert zz_gcd([-2, 2], [3, 0, -3]) == [-1, 1]


def test_zz_squarefree_parts():
    rng = random.Random(61)
    for _ in range(60):
        f = random_power_product(rng)
        prim = f.primitive_integer()[1]
        parts = zz_squarefree(prim)
        product = [1]
        for a, i in parts:
            assert zz_primitive(a) == (1, a) and len(a) > 1
            for _ in range(i):
                product = zz_mul(product, a)
        assert product == prim
        for j, (a, _) in enumerate(parts):
            for b, _ in parts[j + 1 :]:
                assert zz_gcd(a, b) == [1]
    assert zz_squarefree([7]) == [] and zz_squarefree([1]) == []


def test_squarefree_certificate_skips_yun_on_sparse_trinomials():
    f = [1, 1] + [0] * 7998 + [1]  # X^8000 + X + 1
    start = time.perf_counter()
    parts = zz_squarefree(f)
    elapsed = time.perf_counter() - start
    assert parts == [(f, 1)]
    assert elapsed < 0.5, f"X^8000 + X + 1 took {elapsed:.2f}s"


def test_squarefree_matches_plain_yun():
    rng = random.Random(67)
    # squarefree, but not modulo any certificate prime: Yun must run
    both = 32749 * 32719
    unlucky = [[-both, 0, 1], [1, both], [1, 1, both * 7]]
    cases = [(X**2 - 2) ** 3 * (X + 1), X**3 * (X - 1) ** 2]
    # gcd(f, f') has a coefficient beyond p/2: its lift modulo p fails
    cases += [(X + 40000) ** 2 * (X + 1), (3 * X**2 + 50000 * X - 7) ** 3 * (X - 2) ** 2]
    cases += [random_power_product(rng) for _ in range(40)]
    for _ in range(40):
        f = random_power_product(rng) * random_qpoly(rng, max_degree=4)
        if f.degree > 0:
            cases.append(f)
    # a square that vanishes modulo both primes, where lc(f) is a multiple
    # of each: f mod p is the squarefree X + 2
    hidden = zz_mul(zz_mul([1, both], [1, both]), [2, 1])
    prims = [f.primitive_integer()[1] for f in cases] + unlucky + [hidden]
    for prim in prims:
        if prim[-1] < 0:
            prim = [-c for c in prim]
        assert zz_squarefree(prim) == yun_squarefree(prim)
    for f in unlucky:
        assert zz_squarefree(f) == [(f, 1)]
    assert zz_squarefree(hidden) == [([2, 1], 1), ([1, both], 2)]


def swinnerton_dyer(primes: list[int]) -> list[int]:
    """prod over all signs of (X - sum(+-sqrt p)): monic, irreducible, of degree 2^k.

    Adjoining sqrt(p) to P(X) gives P(X + sqrt p) P(X - sqrt p) = E^2 - p O^2,
    where E and O collect the even and odd Taylor terms of P(X + t).
    """
    poly = [0, 1]
    for p in primes:
        parts = [[], []]
        for j in range(len(poly)):
            cj = [poly[i] * math.comb(i, j) * p ** (j // 2) for i in range(j, len(poly))]
            parts[j % 2] = zz_add(parts[j % 2], cj)
        even, odd = parts
        poly = zz_sub(zz_mul(even, even), zz_mul_scalar(zz_mul(odd, odd), p))
    return poly


def count_calls(monkeypatch, name: str, run):
    """run() and the number of calls it made to the kernel function ``name``."""
    calls = 0
    inner = getattr(_intpoly, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(_intpoly, name, counting)
    return run(), calls


def count_trial_divisions(monkeypatch, f: list[int]) -> tuple[list[list[int]], int]:
    return count_calls(monkeypatch, "zz_trial_div", lambda: zz_factor_squarefree(f))


def count_berlekamp_gcds(monkeypatch, f: list[int]) -> tuple[int, list[list[int]], int]:
    p = _choose_prime(f)
    fp = gf_monic(gf_normal(f, p), p)
    factors, calls = count_calls(monkeypatch, "gf_gcd", lambda: gf_berlekamp(fp, p))
    return p, factors, calls


def sd16_of_x_squared() -> list[int]:
    sd16 = swinnerton_dyer([2, 3, 5, 7])
    f = [0] * (2 * len(sd16) - 1)
    f[::2] = sd16
    return f


def test_swinnerton_dyer_builder():
    assert swinnerton_dyer([2]) == [-2, 0, 1]
    assert swinnerton_dyer([2, 3]) == [1, 0, -10, 0, 1]


def test_sd32_recombination_trial_divisions(monkeypatch):
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    factors, calls = count_trial_divisions(monkeypatch, sd32)
    assert factors == [sd32]
    assert calls <= 300  # 39,202 without the pre-tests


def test_sd16_of_x_squared_trial_divisions(monkeypatch):
    f = sd16_of_x_squared()
    factors, calls = count_trial_divisions(monkeypatch, f)
    assert factors == [f]
    assert calls <= 200  # 2,509 without the pre-tests


def test_sd32_berlekamp_gcds(monkeypatch):
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    p, factors, calls = count_berlekamp_gcds(monkeypatch, sd32)
    assert p == 19 and len(factors) == 16
    assert calls <= 100  # 551 when irreducible pieces are rescanned


def test_sd16_of_x_squared_berlekamp_gcds(monkeypatch):
    f = sd16_of_x_squared()
    p, factors, calls = count_berlekamp_gcds(monkeypatch, f)
    assert p == 11 and len(factors) == 12
    assert calls <= 80  # 363 when irreducible pieces are rescanned


def test_sparse_trinomial_factors_in_bounded_time():
    f = X**250 + X + 1
    start = time.perf_counter()
    result = factor_over_rationals(f)
    elapsed = time.perf_counter() - start
    assert result.factors == ((f, 1),)  # Selmer: X^n + X + 1 is irreducible for n = 1 mod 3
    assert elapsed < 8.0, f"X^250 + X + 1 took {elapsed:.2f}s"


def test_lifting_cap_admits_x400_and_refuses_larger_trinomials():
    def size(f):
        return (len(f) - 1) * _mignotte_bound(f).bit_length()

    x400 = [1, 1] + [0] * 398 + [1]
    assert size(x400) <= MAX_LIFT_SIZE
    x1000 = [1, 1] + [0] * 998 + [1]
    assert size(x1000) > MAX_LIFT_SIZE
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap"):
        zz_factor_squarefree(x1000)
    assert time.perf_counter() - start < 0.1


def seven_phi_product() -> QPoly:
    f = QPoly.one()
    for n in (7, 9, 15, 21, 35, 45, 63):
        f = f * cyclotomic_poly(n)
    return f


def test_pure_cyclotomic_products_skip_zassenhaus(monkeypatch):
    for f in (seven_phi_product(), X**60 - 1):
        result, calls = count_calls(monkeypatch, "zz_factor_squarefree", lambda: factor_over_rationals(f))
        assert calls == 0
        assert result.expand() == f and all(m == 1 for _, m in result.factors)
        assert len(result.factors) == (7 if f.degree == 116 else 12)


def test_canonical_factorization_looks_up_only_true_cyclotomic_factors():
    def lookups(f: QPoly) -> int:
        before = cyclotomic_poly.cache_info()
        canonical_factorization(PuiseuxPoly.from_qpoly(f))
        after = cyclotomic_poly.cache_info()
        return after.hits + after.misses - before.hits - before.misses

    assert lookups(QPoly(swinnerton_dyer([2, 3, 5, 7, 11]))) == 0  # 7 with the fiber compare
    assert lookups(seven_phi_product()) <= 7  # 27 with the fiber compare


def test_sd32_split_makes_no_trial_division(monkeypatch):
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    (indices, rest), calls = count_calls(monkeypatch, "zz_trial_div", lambda: split_cyclotomic(sd32))
    assert indices == [] and rest == sd32
    assert calls == 0  # the value tests reject all 64 indices with phi(n) <= 32


def eisenstein_block(rng: random.Random) -> list[int]:
    q = rng.choice((2, 3, 5))
    degree = rng.randint(2, 4)
    lead = rng.choice([c for c in (1, 2, 3, 5, 7) if c % q])
    body = [q * rng.randint(-3, 3) for _ in range(degree)]
    body[0] = q * rng.choice([c for c in (-4, -3, -2, -1, 1, 2, 3, 4) if c % q])
    return body + [lead]


def random_squarefree_product(rng: random.Random) -> list[int]:
    """A primitive squarefree product of distinct blocks with lc > 0: SD8,
    Eisenstein blocks, X^2 - a, Phi_n, linear (non-monic) factors and X."""
    blocks = [
        lambda: swinnerton_dyer(rng.sample((2, 3, 5, 7), 3)),
        lambda: eisenstein_block(rng),
        lambda: [-rng.choice((-3, -1, 2, 3, 4, 5, 9)), 0, rng.choice((1, 1, 2, 3))],
        lambda: list(cyclotomic_poly(rng.choice((3, 4, 5, 6, 8, 9, 10, 12))).prim),
        lambda: [rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 5))],
        lambda: [0, 1],
    ]
    f = [rng.choice((1, 2, 3, 6))]
    for _ in range(rng.randint(2, 4)):
        f = zz_mul(f, rng.choice(blocks)())
    return zz_primitive(f)[1]


def test_recombination_pretests_match_all_subsets():
    rng = random.Random(67)
    cases = [
        zz_mul([0, 1], swinnerton_dyer([2, 3, 5])),  # f(0) = 0, even cofactor
        zz_mul([-2, 0, 1], [-3, 0, 1]),  # next-to-leading coefficient 0
        zz_mul([1, 3], zz_mul([-5, 2], [7, 0, 2])),  # non-monic lifts
    ]
    checked = 0
    while checked < 40:
        f = cases.pop() if cases else random_squarefree_product(rng)
        if len(f) < 3 or zz_squarefree(f) != [(f, 1)]:
            continue
        assert zz_factor_squarefree(f) == zassenhaus_all_subsets(f), f
        checked += 1


def test_hensel_lift_matches_pseudo_division_steps():
    rng = random.Random(71)
    lifted = 0
    while lifted < 25:
        f = random_squarefree_product(rng)
        if len(f) < 3 or zz_squarefree(f) != [(f, 1)]:
            continue
        p = _choose_prime(f)
        modular = gf_berlekamp(gf_monic(gf_normal(f, p), p), p)
        if len(modular) < 2:
            continue
        l = rng.randint(2, 12)
        assert zz_hensel_lift(p, f, modular, l) == hensel_lift_pseudo(p, f, modular, l)
        lifted += 1


def random_gf_squarefree(rng: random.Random, p: int) -> list[int]:
    """A monic squarefree f over F_p of degree 1 to 30: either random, or a
    product of random monic factors of degree 1 to 4, which splits further."""
    while True:
        degree = rng.randint(1, 30)
        if rng.random() < 0.5:
            f = [rng.randrange(p) for _ in range(degree)] + [1]
        else:
            f = [1]
            while len(f) <= degree:
                k = rng.randint(1, min(4, degree + 1 - len(f)))
                f = gf_mul(f, [rng.randrange(p) for _ in range(k)] + [1], p)
        if gf_is_squarefree(f, p):
            return f


def test_berlekamp_matches_exhaustive_scan():
    rng = random.Random(73)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for _ in range(15):
            f = random_gf_squarefree(rng, p)
            assert gf_berlekamp(f, p) == berlekamp_scan(f, p), (f, p)
    checked = 0
    while checked < 40:
        f = random_squarefree_product(rng)
        if len(f) < 2 or zz_squarefree(f) != [(f, 1)]:
            continue
        p = _choose_prime(f)
        fp = gf_monic(gf_normal(f, p), p)
        assert gf_berlekamp(fp, p) == berlekamp_scan(fp, p), (f, p)
        checked += 1
