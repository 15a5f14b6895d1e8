"""Integer division, gcd and Yun's split in the kernel, against the textbook
algorithms over Q kept in the oracles."""

import random
from fractions import Fraction

from puiseux import QPoly, poly_divrem, poly_gcd, squarefree_decompose
from puiseux._intpoly import (
    zz_gcd,
    zz_mul,
    zz_mul_scalar,
    zz_primitive,
    zz_pseudo_divmod,
    zz_squarefree,
    zz_sub,
    zz_trial_div,
)

from oracles import q_divmod, q_gcd, q_squarefree
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
