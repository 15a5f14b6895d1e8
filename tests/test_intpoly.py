"""Integer division, gcd, Yun's split and Zassenhaus factorization in the
kernel, against the textbook algorithms kept in the reference module."""

import gc
import math
import pathlib
import random
import signal
import time
import tracemalloc
from itertools import combinations
from fractions import Fraction

import pytest

from puiseux import PuiseuxPoly, QPoly, ResourceLimitError, canonical_factorization, cyclotomic_poly, parse_poly
from puiseux import _intpoly, cyclotomic
from puiseux.cyclotomic import classify_cyclotomic, factor_primitive
from puiseux.exact import is_prime
from puiseux._intpoly import (
    MAX_LIFT_SIZE,
    MAX_ROOT_TABLE,
    MAX_SUBSETS,
    PackedGF,
    _certified_irreducible,
    _choose_prime,
    _mignotte_bound,
    _root_table,
    _trace_bound,
    gf_berlekamp,
    gf_divmod,
    gf_monic,
    gf_normal,
    gf_rem,
    zz_factor_squarefree,
    zz_gcd,
    zz_hensel_lift,
    zz_mul,
    zz_primitive,
    zz_squarefree,
    zz_sub,
    zz_trial_div,
)

from reference import (
    add,
    berlekamp_scan,
    choose_prime_full_euclid,
    gf_divmod_eager,
    gf_gcd,
    gf_gcdex,
    gf_is_squarefree,
    gf_mul,
    gf_pow_mod,
    hensel_lift_pseudo,
    kronecker_factor,
    prs_gcd,
    pseudo_divmod,
    q_divmod,
    q_gcd,
    q_squarefree,
    scale,
    yun_squarefree,
    zassenhaus_all_subsets,
)
from randgen import power, random_fraction, random_qpoly

X = QPoly([0, 1])


def random_power_product(rng: random.Random) -> QPoly:
    """A rational constant times one to three random non-monic rational bases
    of degree 1 or 2, each raised to a power up to 5."""
    f = QPoly([random_fraction(rng)])
    for _ in range(rng.randint(1, 3)):
        base = QPoly([random_fraction(rng) for _ in range(rng.randint(2, 3))])
        f = f * power(base, rng.randint(1, 5))
    return f


def random_zz(rng: random.Random, degree: int, lead=None) -> list[int]:
    f = [rng.randint(-20, 20) for _ in range(degree)]
    return f + [lead if lead is not None else rng.choice((-6, -3, -1, 1, 2, 5))]


X2_MINUS_2 = QPoly([-2, 0, 1])
EXAMPLE = power(X2_MINUS_2, 5) * power(QPoly([1, 3]), 3)


def _divmod_over_q(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """f = (q/a)*g + r/a over Q from the pseudo-division a*f = q*g + r."""
    a, q, r = pseudo_divmod(f, g)
    return [Fraction(c, a) for c in q], [Fraction(c, a) for c in r]


def test_divrem_matches_fraction_oracle():
    rng = random.Random(41)
    for _ in range(60):
        f = random_power_product(rng)
        g = random_power_product(rng) if rng.random() < 0.5 else random_qpoly(rng, 5)
        if g.is_zero:
            continue
        assert _divmod_over_q(f.prim, g.prim) == q_divmod(f.prim, g.prim)
    assert _divmod_over_q(EXAMPLE.prim, [1, 0, 14]) == q_divmod(EXAMPLE.prim, [1, 0, 14])


def test_gcd_matches_fraction_oracle():
    rng = random.Random(43)
    for _ in range(60):
        h = random_power_product(rng)
        f = h * random_qpoly(rng, 4)
        g = h * random_power_product(rng)
        if f.is_zero:
            continue
        d = zz_gcd(f.prim, g.prim)[0]
        assert [Fraction(c, d[-1]) for c in d] == q_gcd(f.coeffs, g.coeffs)
    assert zz_gcd(EXAMPLE.prim, (EXAMPLE * QPoly([-1, 1])).prim)[0] == list(EXAMPLE.prim)


def test_squarefree_matches_fraction_oracle():
    rng = random.Random(47)
    cases = [EXAMPLE, EXAMPLE * power(X2_MINUS_2, 2) * Fraction(-5, 3)]
    cases += [random_power_product(rng) for _ in range(60)]
    for f in cases:
        parts = [([Fraction(c, a[-1]) for c in a], i) for a, i in zz_squarefree(list(f.prim))]
        assert parts == q_squarefree(f.coeffs)
    assert zz_squarefree(list(EXAMPLE.prim)) == [([1, 3], 3), (list(X2_MINUS_2.prim), 5)]


def test_pseudo_divmod_identity():
    rng = random.Random(53)
    for _ in range(300):
        f = random_zz(rng, rng.randint(0, 12))
        monic = rng.random() < 0.3
        g = random_zz(rng, rng.randint(0, 5), 1 if monic else None)
        a, q, r = pseudo_divmod(f, g)
        assert scale(f, a) == zz_sub(zz_mul(q, g), scale(r, -1))
        assert len(r) < len(g)
        if monic:
            assert a == 1
        assert a in [g[-1] ** k for k in range(len(f) + 1)]
        # an exact divisor never scales, and then agrees with trial division
        a, q, r = pseudo_divmod(zz_mul(f, g), g)
        assert (a, q, r) == (1, zz_trial_div(zz_mul(f, g), g), [])


def test_zz_gcd_is_the_primitive_gcd():
    rng = random.Random(59)
    for _ in range(150):
        h = random_zz(rng, rng.randint(0, 4))
        f = zz_mul(h, random_zz(rng, rng.randint(0, 6)))
        g = zz_mul(h, random_zz(rng, rng.randint(0, 6)))
        d, cf, cg = zz_gcd(f, g)
        assert zz_primitive(d) == (1, d)
        assert zz_mul(d, cf) == f and zz_mul(d, cg) == g
        assert zz_trial_div(d, zz_primitive(h)[1]) is not None
        monic = [Fraction(c, d[-1]) for c in d]
        assert monic == q_gcd(f, g)
    assert zz_gcd([], []) == ([], [], [])
    assert zz_gcd([0, 4, -6], []) == ([0, -2, 3], [-2], [])
    assert zz_gcd([], [0, 4, -6]) == ([0, -2, 3], [], [-2])
    assert zz_gcd([-2, 2], [3, 0, -3]) == ([-1, 1], [2], [-3, -3])
    assert zz_gcd([6], [0, 4]) == ([1], [6], [0, 4])
    assert zz_gcd([96], [0, 1]) == ([1], [96], [0, 1])
    assert zz_gcd([-5], []) == ([1], [-5], [])
    assert zz_gcd([0, 4, -6], [-2]) == ([1], [0, 4, -6], [-2])


def test_zz_gcd_retries_when_the_first_candidate_fails():
    # at x = 8, gcd(f(8), g(8)) = gcd(6, 90) = 6 reads as the candidate X - 2
    assert zz_gcd([-2, 1], [2, 3, 1]) == ([1], [-2, 1], [2, 3, 1])
    # at x = 8, gcd(5, 80) = 5 reads as X - 3, which does not divide X^2 + 2X
    assert zz_gcd([-3, 1], [0, 2, 1]) == ([1], [-3, 1], [0, 2, 1])
    # a common factor times a stray integer at x = 8: 6 * 7 = 42 reads as 5X + 2
    f, g = zz_mul([-1, 1], [-2, 1]), zz_mul([-1, 1], [2, 3, 1])
    assert zz_gcd(f, g) == ([-1, 1], [-2, 1], [2, 3, 1])


def test_zz_gcd_matches_remainder_sequence():
    rng = random.Random(61)
    for _ in range(150):
        digits = rng.randint(1, 20)
        coeff = lambda: rng.randint(-(10**digits), 10**digits)
        h = [coeff() for _ in range(rng.randint(0, 4))] + [rng.randint(1, 9)]
        f = zz_mul(h, [coeff() for _ in range(rng.randint(0, 6))] + [rng.randint(-9, 9) or 1])
        g = zz_mul(h, [coeff() for _ in range(rng.randint(0, 6))] + [rng.randint(-9, 9) or 1])
        d, cf, cg = zz_gcd(f, g)
        assert d == prs_gcd(f, g)
        assert zz_mul(d, cf) == f and zz_mul(d, cg) == g


def test_zz_squarefree_parts():
    rng = random.Random(61)
    for _ in range(60):
        f = random_power_product(rng)
        prim = list(f.prim)
        parts = zz_squarefree(prim)
        product = [1]
        for a, i in parts:
            assert zz_primitive(a) == (1, a) and len(a) > 1
            for _ in range(i):
                product = zz_mul(product, a)
        assert product == prim
        for j, (a, _) in enumerate(parts):
            for b, _ in parts[j + 1 :]:
                assert zz_gcd(a, b)[0] == [1]
    assert zz_squarefree([7]) == [] and zz_squarefree([1]) == []


def test_squarefree_certificate_skips_yun_on_sparse_trinomials():
    # X^65536 + X + 1 guards the evaluation at 2^k against Horner's rule
    for n in (8000, 65536):
        f = [1, 1] + [0] * (n - 2) + [1]
        start = time.perf_counter()
        parts = zz_squarefree(f)
        elapsed = time.perf_counter() - start
        assert parts == [(f, 1)]
        assert elapsed < 0.5, f"X^{n} + X + 1 took {elapsed:.2f}s"


def test_squarefree_loop_is_bounded_on_a_sparse_square():
    a = [1, 1] + [0] * 1998 + [1]  # X^2000 + X + 1
    f = zz_mul(a, a)
    start = time.perf_counter()
    parts = zz_squarefree(f)
    elapsed = time.perf_counter() - start
    assert parts == [(a, 2)]
    assert elapsed < 0.5, f"(X^2000 + X + 1)^2 took {elapsed:.2f}s"


def test_squarefree_matches_plain_yun():
    rng = random.Random(67)
    # squarefree, with a large leading or constant coefficient
    both = 32749 * 32719
    large = [[-both, 0, 1], [1, both], [1, 1, both * 7]]
    cases = [power(X2_MINUS_2, 3) * QPoly([1, 1]), power(X, 3) * power(QPoly([-1, 1]), 2)]
    # gcd(f, f') with large coefficients, monic and not
    cases += [power(QPoly([40000, 1]), 2) * QPoly([1, 1])]
    cases += [power(QPoly([-7, 50000, 3]), 3) * power(QPoly([-2, 1]), 2)]
    cases += [random_power_product(rng) for _ in range(40)]
    for _ in range(40):
        f = random_power_product(rng) * random_qpoly(rng, max_degree=4)
        if f.degree > 0:
            cases.append(f)
    # a square whose leading coefficient is large: (both*X + 1)^2 * (X + 2)
    hidden = zz_mul(zz_mul([1, both], [1, both]), [2, 1])
    prims = [list(f.prim) for f in cases] + large + [hidden]
    for prim in prims:
        if prim[-1] < 0:
            prim = [-c for c in prim]
        assert zz_squarefree(prim) == yun_squarefree(prim)
    for f in large:
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
            parts[j % 2] = add(parts[j % 2], cj)
        even, odd = parts
        poly = zz_sub(zz_mul(even, even), scale(zz_mul(odd, odd), p))
    return poly


def count_calls(monkeypatch, name: str, run, owner=_intpoly):
    """run() and the number of calls it made to the function or the
    PackedGF method ``name`` of ``owner``."""
    calls = 0
    inner = getattr(owner, name)

    def counting(*args):
        nonlocal calls
        calls += 1
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return run(), calls


def count_trial_divisions(monkeypatch, f: list[int]) -> tuple[list[list[int]], int]:
    return count_calls(monkeypatch, "zz_trial_div", lambda: zz_factor_squarefree(f))


def count_berlekamp_gcds(monkeypatch, f: list[int]) -> tuple[int, list[list[int]], int]:
    p = _choose_prime(f)
    fp = gf_monic(gf_normal(f, p), p)
    factors, calls = count_calls(monkeypatch, "gcd", lambda: gf_berlekamp(fp, p), PackedGF)
    return p, factors, calls


def sd16_times_x2_minus_3() -> list[int]:
    """SD16(2, 3, 5, 7) * (X^2 - 3), the median op of the factor benchmark."""
    return zz_mul(swinnerton_dyer([2, 3, 5, 7]), [-3, 0, 1])


def of_x_squared(g: list[int]) -> list[int]:
    f = [0] * (2 * len(g) - 1)
    f[::2] = g
    return f


def sd16_of_x_squared() -> list[int]:
    return of_x_squared(swinnerton_dyer([2, 3, 5, 7]))


def test_swinnerton_dyer_builder():
    assert swinnerton_dyer([2]) == [-2, 0, 1]
    assert swinnerton_dyer([2, 3]) == [1, 0, -10, 0, 1]


def test_sd32_recombination_trial_divisions(monkeypatch):
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    factors, calls = count_trial_divisions(monkeypatch, sd32)
    assert factors == [sd32]
    assert calls == 0  # 232 with the constant-term pre-test alone, 39,202 with none


def test_sd16_of_x_squared_trial_divisions(monkeypatch):
    f = sd16_of_x_squared()
    factors, calls = count_trial_divisions(monkeypatch, f)
    assert factors == [f]
    assert calls == 0  # 24 with the constant-term pre-test alone, 2,509 with none


def test_sd16_times_x2_minus_3_trial_divisions(monkeypatch):
    f = sd16_times_x2_minus_3()
    factors, calls = count_trial_divisions(monkeypatch, f)
    assert factors == [[-3, 0, 1], swinnerton_dyer([2, 3, 5, 7])]
    assert calls <= 1  # 11 with the constant-term pre-test alone


def test_three_sd8_trial_divisions(monkeypatch):
    # the next-to-leading coefficient rejects two subsets that pass all value tests
    sd8s = [swinnerton_dyer(ps) for ps in ([2, 5, 11], [2, 7, 11], [3, 5, 7])]
    factors, calls = count_trial_divisions(monkeypatch, zz_mul(zz_mul(sd8s[0], sd8s[1]), sd8s[2]))
    assert sorted(factors) == sorted(sd8s)
    assert calls <= 2  # 4 with the value tests alone, 6 with the constant-term pre-test alone


def test_sd32_berlekamp_gcds(monkeypatch):
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    p, factors, calls = count_berlekamp_gcds(monkeypatch, sd32)
    assert p == 19 and len(factors) == 16
    assert calls <= 28  # 76 when every c is tried, 551 when whole pieces are rescanned
    assert calls == 0  # 28 before the root pass: all sixteen factors are quadratics


def test_sd16_of_x_squared_berlekamp_gcds(monkeypatch):
    f = sd16_of_x_squared()
    p, factors, calls = count_berlekamp_gcds(monkeypatch, f)
    assert p == 11 and len(factors) == 12
    assert calls <= 23  # 55 when every c is tried, 363 when whole pieces are rescanned
    assert calls == 7  # 23 before the root pass, which leaves four quartics to Berlekamp


def test_sd16_times_x2_minus_3_berlekamp_gcds(monkeypatch):
    p, factors, calls = count_berlekamp_gcds(monkeypatch, sd16_times_x2_minus_3())
    assert p == 11 and len(factors) == 10
    assert calls <= 23  # 33 when every c is tried
    assert calls == 0  # 23 before the root pass: every factor is linear or quadratic


@pytest.mark.parametrize("f, p, tests", [
    (swinnerton_dyer([2, 3, 5, 7, 11]), 19, 7),
    # 3 and 5 divide f(0) = -138675, so 7 and 11 are left (4 with a test at every prime)
    (sd16_times_x2_minus_3(), 11, 2),
    # 5 divides f(0) = 46225, so 3, 7 and 11 are left (4 with a test at every prime)
    (sd16_of_x_squared(), 11, 3),
])
def test_choose_prime_runs_one_squarefree_test_per_odd_prime(monkeypatch, f, p, tests):
    # no odd prime below p divides lc(f) = 1, and every f here is even: an odd
    # prime dividing f(0) is rejected with no test, every other one is tested
    chosen, calls = count_calls(monkeypatch, "is_squarefree", lambda: _choose_prime(f), PackedGF)
    assert (chosen, calls) == (p, tests)


def test_choose_prime_on_even_inputs_matches_full_euclid(monkeypatch):
    """The half-degree test on g for f = g(X^2) picks the prime that one
    Euclid of f and f' at every prime picks."""
    rng = random.Random(89)
    seen, by_content, by_lead, checked = set(), 0, 0, 0
    while checked < 240:
        g = [rng.randint(-30, 30) for _ in range(rng.randint(1, 8))]
        g += [rng.choice((1, 2, 3, 5, 9, 15, 21, 35, 105))]
        if rng.random() < 0.3:
            g[0] = rng.choice((3, 5, 7, 15, 21, 105)) * rng.choice((-2, -1, 1, 2))
        h = zz_primitive(g)[1]
        if g[0] == 0 or zz_squarefree(h) != [(h, 1)]:
            continue
        f, tested = of_x_squared(g), []
        inner = PackedGF.is_squarefree
        monkeypatch.setattr(PackedGF, "is_squarefree", lambda P, h: tested.append(len(h)) or inner(P, h))
        p = _choose_prime(f)
        monkeypatch.undo()
        assert p == choose_prime_full_euclid(f), f
        assert set(tested) == {len(g)}, (f, tested)  # every test ran on g
        below = [q for q in range(3, p, 2) if is_prime(q)]
        by_content += any(f[0] % q == 0 and f[-1] % q for q in below)
        by_lead += any(f[-1] % q == 0 for q in below)
        seen.add(p)
        checked += 1
    assert by_content >= 40 and by_lead >= 40 and len(seen) >= 4, (by_content, by_lead, seen)


def test_sparse_trinomial_factors_in_bounded_time():
    f = QPoly([1, 1] + [0] * 248 + [1])
    start = time.perf_counter()
    cf = canonical_factorization(PuiseuxPoly.from_qpoly(f))
    elapsed = time.perf_counter() - start
    # Selmer: X^n + X + 1 is irreducible for n = 1 mod 3
    assert cf.cyclotomic_part == () and cf.prime_part == ((f, 1),)
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


def test_recombination_cap_refuses_sd64_quickly():
    # SD64 * (X + 1) is odd, so its 33 lifted factors are recombined one by
    # one: C(33, 1) subsets find X + 1, and the other 32 plan C(32, 1) + ...
    # + C(32, 6), past 2^20 at size 6 (1,149,049 planned subsets in all)
    f = zz_mul(swinnerton_dyer([2, 3, 5, 7, 11, 13]), [1, 1])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="1149049 recombination subsets"):
        zz_factor_squarefree(f)
    assert time.perf_counter() - start < 2.0


def test_sd64_is_proved_irreducible_in_bounded_time():
    # Its 32 factors mod 19 are 16 mirrored pairs: recombination runs over
    # 16 units in Y = X^2, where the trace test is not blind.  Refused at
    # the subset cap when each lifted factor was its own unit.
    sd64 = swinnerton_dyer([2, 3, 5, 7, 11, 13])
    start = time.perf_counter()
    assert zz_factor_squarefree(sd64) == [sd64]
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n, c", [(200, 30), (300, 6), (300, 566292)])
def test_binomials_skip_splits_that_cannot_happen(monkeypatch, n, c):
    # Every h(X^2) on the even tower of X^n + c has h(0) = c, not a square,
    # so none splits as +-u(X)*u(-X) and only the odd core's subsets are
    # planned (2^20 - 1 for X^300 + 6).  Refused at the subset cap when each
    # split's 2^(k-1) choices were tried.  Each binomial is Eisenstein at a
    # prime dividing c, so the Newton-polygon certificate is switched off to
    # keep the tower on this path.
    monkeypatch.setattr(_intpoly, "_certified_irreducible", lambda f, shift=True: False)
    f = [c] + [0] * (n - 1) + [1]
    start = time.perf_counter()
    assert zz_factor_squarefree(f) == [f]
    assert time.perf_counter() - start < 5.0


SD64_TIMES_X_PLUS_2 = pathlib.Path(__file__).parent / "data" / "sd64_times_x_plus_2.txt"


def test_sd64_fixture_is_swinnerton_dyer_times_x_plus_2():
    # The CLI refusal checks read SD64 * (X + 2) from this file: X + 2 is not
    # cyclotomic, so the odd product reaches Zassenhaus whole (SD64 * (X + 1)
    # would lose Phi_2 to the cyclotomic split, and SD64 alone is answered).
    text = SD64_TIMES_X_PLUS_2.read_text().strip()
    f = zz_mul(swinnerton_dyer([2, 3, 5, 7, 11, 13]), [2, 1])
    assert parse_poly(text).to_qpoly().prim == tuple(f)
    with pytest.raises(ResourceLimitError, match="1149049 recombination subsets"):
        zz_factor_squarefree(f)


def dumas_block(rng: random.Random, p: int | None = None, depressed: bool = False) -> list[int]:
    """A primitive f of degree n in 2..8 whose Newton polygon at p is the one
    segment from (0, v) to (n, 0), v coprime to n: a_0 = p^v * unit, lc a
    unit mod p, and every other a_i zero or a multiple of p^ceil(v(n-i)/n),
    sometimes of a higher power.  With depressed, a_(n-1) = 0."""
    p = p or rng.choice((2, 3, 5, 7))
    n = rng.randint(2, 8)
    v = rng.choice([v for v in range(1, 5) if math.gcd(v, n) == 1])
    units = [c for c in range(-6, 7) if c % p]
    f = [p**v * rng.choice(units)]
    for i in range(1, n):
        f.append(rng.choice((0, 1, 1, 2)) * rng.choice((-1, 1)) * p ** (-(-v * (n - i) // n) + rng.choice((0, 0, 1))))
    f.append(rng.choice([c for c in (1, 2, 3, 5, 7) if c % p]))
    if depressed:
        f[-2] = 0
    return zz_primitive(f)[1]


def shifted(f: list[int], t: int) -> list[int]:
    """f(X + t)."""
    out = []
    for c in reversed(f):
        out = add(zz_mul(out, [t, 1]), [c])
    return out


def test_certificate_fires_on_one_segment_polygons_and_the_oracle_agrees():
    # Half the inputs are depressed blocks shifted by X -> X + t, which only
    # the depressing shift certifies.
    rng = random.Random(361)
    shifted_hits = 0
    for case in range(120):
        depressed = case % 2 == 1
        f = dumas_block(rng, depressed=depressed)
        t = rng.choice((-3, -2, -1, 1, 2, 3)) if depressed else 0
        g = zz_primitive(shifted(f, t))[1] if t else f
        assert _certified_irreducible(g), (f, t)
        assert _certified_irreducible(g, shift=False) or t, (f, t)
        shifted_hits += not _certified_irreducible(g, shift=False)
        assert zz_factor_squarefree(g) == [g]
        assert len(kronecker_factor(g)) == 1, g
    assert shifted_hits > 30


def product_of_irreducibles(rng: random.Random) -> list[int]:
    """A primitive product of two to four nonconstant blocks, lc > 0: one-segment
    polygons at a shared or a random prime, Eisenstein blocks, SD8, X^2 - a,
    Phi_n and non-monic linear factors.  Sometimes even, as h(X^2) or
    h(X) * h(-X); sometimes a product of depressed blocks (so itself
    depressed) shifted by X -> X + t, which the certificate shifts back."""
    p, shape = rng.choice((2, 3, 5)), rng.random()
    depressed = shape < 0.3
    blocks = [
        lambda: dumas_block(rng, p, depressed),
        lambda: dumas_block(rng, None, depressed),
        lambda: swinnerton_dyer(rng.sample((2, 3, 5, 7), 3)),
        lambda: [-rng.choice((-3, -1, 2, 3, 5, 6)), 0, rng.choice((1, 2, 3))],
        lambda: eisenstein_block(rng),
        lambda: list(cyclotomic_poly(rng.choice((3, 4, 5, 6, 8, 9, 10, 12))).prim),
        lambda: [rng.choice((-6, -3, -2, 2, 3, 6)), rng.choice((1, 2, 3, 5))],
    ]
    f = [1]
    for _ in range(rng.randint(2, 4)):
        f = zz_mul(f, rng.choice(blocks[:4] if depressed else blocks)())
    if depressed:
        f = shifted(f, rng.choice((-3, -2, -1, 1, 2, 3)))
    elif shape < 0.45:
        f = of_x_squared(f)
    elif shape < 0.6:
        f = zz_mul(f, [-c if i % 2 else c for i, c in enumerate(f)])
    return zz_primitive(f)[1]


def test_certificate_never_fires_on_a_product():
    rng = random.Random(362)
    for _ in range(600):
        f = product_of_irreducibles(rng)
        assert not _certified_irreducible(f), f


def test_certificate_edge_cases():
    sd8 = swinnerton_dyer([2, 3, 5])

    def hang(signum, frame):
        raise AssertionError("the certificate did not return within 2 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        # f(0) = 0: v_p(0) is infinite, and a valuation loop on it never ends
        assert not _certified_irreducible(zz_mul([0, 1], sd8))
        assert zz_factor_squarefree(zz_mul([0, 1], sd8)) == [[0, 1], sd8]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # 2 divides lc and f(0), so only 3 may certify 2X^3 + 3X + 6
    assert _certified_irreducible([6, 3, 0, 2])
    assert not _certified_irreducible([2, 4, 1, 2])  # (2X + 1)(X^2 + 2)
    assert not _certified_irreducible([4, 0, 0, 0, 1])  # X^4 + 4, gcd(v, n) = 2
    assert zz_factor_squarefree([4, 0, 0, 0, 1]) == [[2, -2, 1], [2, 2, 1]]
    assert not _certified_irreducible([8, 0, 0, 0, 0, 0, 1])  # X^6 + 8, gcd(v, n) = 3
    assert zz_factor_squarefree([8, 0, 0, 0, 0, 0, 1]) == [[2, 0, 1], [4, 0, -2, 0, 1]]
    # zero middle coefficients lie above every line: X^5 + 12 at 3, X^7 + 8 at 2
    assert _certified_irreducible([12, 0, 0, 0, 0, 1])
    assert _certified_irreducible([8] + [0] * 6 + [1])
    # (X + 1)^4 + 2 through the shift; (X + 1)^4 + 4 is Y^4 + 4 at Y = X + 1
    assert _certified_irreducible(shifted([2, 0, 0, 0, 1], 1))
    assert not _certified_irreducible(shifted([4, 0, 0, 0, 1], 1))
    # past the lifting cap the shift is not tried: (X + 1)^1000 + 2 is refused
    # there at once (a shift at degree 4000 took seconds)
    f = [math.comb(1000, i) for i in range(1001)]
    f[0] += 2
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="coefficient bound"):
        zz_factor_squarefree(f)
    assert time.perf_counter() - start < 0.5


def test_recombination_cap_counts_every_planned_subset(monkeypatch):
    # SD32 splits into 8 mirrored pairs mod 19.  Recombination over the 8
    # units plans C(8, 1) + ... + C(8, 4) = 162 subsets, and the irreducible
    # core read at X^2 plans 2^7 = 128 choices of one factor per pair: 290.
    # (39,202 = C(16, 1) + ... + C(16, 8) over the 16 lifted factors.)
    sd32 = swinnerton_dyer([2, 3, 5, 7, 11])
    assert MAX_SUBSETS >= 290
    monkeypatch.setattr(_intpoly, "MAX_SUBSETS", 290)
    assert zz_factor_squarefree(sd32) == [sd32]
    monkeypatch.setattr(_intpoly, "MAX_SUBSETS", 289)
    with pytest.raises(ResourceLimitError, match="290 recombination subsets"):
        zz_factor_squarefree(sd32)
    monkeypatch.setattr(_intpoly, "MAX_SUBSETS", 161)
    with pytest.raises(ResourceLimitError, match="162 recombination subsets"):
        zz_factor_squarefree(sd32)


def count_pretests(monkeypatch, f: list[int]) -> tuple[list[list[int]], int, int]:
    """zz_factor_squarefree(f), the subsets and choices that reached the
    pre-tests, and the trial divisions."""
    pretests, first_factor = 0, _intpoly._first_factor

    def counting(cur, candidates, *rest):
        def each():
            nonlocal pretests
            for candidate in candidates:
                pretests += 1
                yield candidate
        return first_factor(cur, each(), *rest)

    monkeypatch.setattr(_intpoly, "_first_factor", counting)
    factors, calls = count_trial_divisions(monkeypatch, f)
    return factors, pretests, calls


@pytest.mark.parametrize("f, found, pretests, divisions", [
    # 39,202 subsets when every lifted factor was its own unit
    (swinnerton_dyer([2, 3, 5, 7, 11]), 1, 290, 0),
    # the factor benchmark's p90 product: 794 subsets over single factors
    (zz_mul(swinnerton_dyer([2, 3, 5, 11]), swinnerton_dyer([2, 3, 7])), 2, 32, 1),
    # its median op: 165 subsets over single factors; X^2 - 3 has a split
    # choice, skipped because -3 is not a square
    (sd16_times_x2_minus_3(), 2, 19, 1),
])
def test_recombination_pretests_and_trial_divisions(monkeypatch, f, found, pretests, divisions):
    factors, tested, calls = count_pretests(monkeypatch, f)
    assert len(factors) == found
    assert (tested, calls) == (pretests, divisions)


def mirrored(u: list[int]) -> list[int]:
    """(-1)^deg u * u(-X)."""
    return [-c if (len(u) - i) % 2 == 0 else c for i, c in enumerate(u)]


def test_even_recombination_matches_all_subsets():
    """Recombination over mirror pairs in Y = X^2 and the split of each
    h(X^2) find the factors, in order, that trial division of every subset
    of the lifted factors finds."""
    rng = random.Random(97)
    cubic = [2, -2, 0, 1]  # Eisenstein X^3 - 2X + 2
    splitting = [
        [9, 0, 5, 0, 1],  # (X^2 + X + 3)(X^2 - X + 3)
        [1, 0, 0, 0, 4],  # 4X^4 + 1 = (2X^2 + 2X + 1)(2X^2 - 2X + 1)
        [4, 0, 0, 0, 1],  # X^4 + 4 = (X^2 + 2X + 2)(X^2 - 2X + 2)
    ]
    cases = splitting + [
        of_x_squared([4, 0, 0, 0, 1]),  # X^8 + 4: Y^4 + 4 splits, and neither half at X^2
        of_x_squared(of_x_squared(zz_mul([-2, 1], [3, 1]))),  # (X^4 - 2)(X^4 + 3) = g(X^4)
        of_x_squared(of_x_squared([-4, 0, 1])),  # X^8 - 4 = (X^4 - 2)(X^4 + 2)
        swinnerton_dyer([2, 3]),  # two self-mirrored quadratics mod 5
        zz_mul(swinnerton_dyer([2, 3]), [1, 0, 0, 0, 4]),
        zz_mul(zz_mul(cubic, mirrored(cubic)), [-3, 0, 1]),  # a mirrored pair of odd cubics
        zz_mul(zz_mul(cubic, mirrored(cubic)), [9, 0, 5, 0, 1]),
    ]
    blocks = [
        lambda: rng.choice(splitting),
        lambda: [-rng.choice((2, 3, 4, 5, 9, 12)), 0, rng.choice((1, 1, 3, 4))],
        lambda: of_x_squared(eisenstein_block(rng)),
        lambda: of_x_squared(of_x_squared([rng.choice((-3, -2, 2, 3, 5)), 1])),
        lambda: (lambda u: zz_mul(u, mirrored(u)))(eisenstein_block(rng)),
        lambda: swinnerton_dyer(rng.sample((2, 3, 5, 7), 2)),
    ]
    checked, split, nested = 0, 0, 0
    while checked < 60:
        if cases:
            f = cases.pop(0)
        else:
            f = [1]
            for _ in range(rng.randint(2, 3)):
                f = zz_mul(f, rng.choice(blocks)())
            f = zz_primitive(f)[1]
            if len(f) <= 13 and rng.random() < 0.3:
                f = of_x_squared(f)
        if zz_squarefree(f) != [(f, 1)]:
            continue
        assert not any(f[1::2])
        factors = zz_factor_squarefree(f)
        assert factors == zassenhaus_all_subsets(f), f
        split += any(any(g[1::2]) for g in factors)
        nested += not any(f[2::4])
        checked += 1
    assert split >= 20 and nested >= 8, (split, nested)


@pytest.mark.parametrize("f", [
    [-1, -1, 0, 1],  # X^3 - X - 1
    [-1, 1, 0, 0, 1],  # X^4 + X - 1
    [-1, 0, 1, 0, 1],  # X^4 + X^2 - 1: one self-mirrored factor, no split tried
    [-1, 0, 0, 0, 0, 0, 1, 0, 1],  # X^8 + X^6 - 1, the same at both levels
])
def test_one_modular_factor_is_lifted_and_recombined(monkeypatch, f):
    """An input irreducible mod p takes the same lift and recombination as
    any other: one lifted factor, which no subset splits."""
    assert not _certified_irreducible(f) and _choose_prime(f) == 3
    assert len(gf_berlekamp(gf_monic(gf_normal(f, 3), 3), 3)) == 1
    factors, lifts = count_calls(monkeypatch, "zz_hensel_lift", lambda: zz_factor_squarefree(f))
    assert factors == [f] == zassenhaus_all_subsets(f)
    assert lifts == 1


def seven_phi_product() -> QPoly:
    f = QPoly([1])
    for n in (7, 9, 15, 21, 35, 45, 63):
        f = f * cyclotomic_poly(n)
    return f


def test_factor_primitive_runs_yun_once_under_its_phase_name(monkeypatch):
    f = zz_mul([-1, 0, 0, 0, 0, 0, 1], zz_mul([-2, 0, 1], [-2, 0, 1]))  # (X^6 - 1)(X^2 - 2)^2
    (cyclo, other), calls = count_calls(
        monkeypatch, "squarefree_decompose", lambda: factor_primitive(f), cyclotomic
    )
    assert calls == 1
    assert cyclo == [(1, 1), (2, 1), (3, 1), (6, 1)] and other == [([-2, 0, 1], 2)]


def test_pure_cyclotomic_products_skip_zassenhaus(monkeypatch):
    for f in (seven_phi_product(), QPoly([-1] + [0] * 59 + [1])):
        (cyclotomic, other), calls = count_calls(
            monkeypatch, "zz_factor_squarefree", lambda: factor_primitive(list(f.prim))
        )
        assert calls == 0
        assert other == [] and all(e == 1 for _, e in cyclotomic)
        assert math.prod((cyclotomic_poly(n) for n, _ in cyclotomic), start=QPoly([1])) == f
        assert len(cyclotomic) == (7 if f.degree == 116 else 12)


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
    (indices, rest), calls = count_calls(monkeypatch, "zz_trial_div", lambda: classify_cyclotomic(sd32))
    assert indices == [] and rest == sd32
    assert calls == 0  # the value tests reject all 64 indices with phi(n) <= 32


def test_factor_primitive_classifies_each_yun_part_once(monkeypatch):
    # (X^6 - 1)(X^2 - 2)^2: Yun's parts are X^6 - 1 and X^2 - 2, and the
    # split runs under the name the benchmark tracer wraps.
    f = [-4, 0, 4, 0, -1, 0, 4, 0, -4, 0, 1]
    _, calls = count_calls(monkeypatch, "classify_cyclotomic", lambda: factor_primitive(f), owner=cyclotomic)
    assert calls == 2


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
        zz_mul([1, 3], zz_mul([-5, 2], [7, 0, 2])),  # non-monic lifts, lc = 12
        zz_mul([-1, 1], swinnerton_dyer([2, 3, 5])),  # f(1) = 0: no value test at 1
        zz_mul([1, 1], [-2, 0, 1]),  # f(-1) = 0: no value test at -1
        zz_mul(zz_mul([-1, 1], [1, 1]), zz_mul([0, 1], [-3, 0, 2])),  # zero at 0, 1 and -1
    ]
    checked = 0
    while checked < 43:
        f = cases.pop() if cases else random_squarefree_product(rng)
        if len(f) < 3 or zz_squarefree(f) != [(f, 1)]:
            continue
        assert zz_factor_squarefree(f) == zassenhaus_all_subsets(f), f
        checked += 1


def test_trace_bound_covers_every_true_factor():
    """Over products of known factors, lc(h) times the next-to-leading
    coefficient of every true factor g = f/h lies within the trace bound,
    which never exceeds the Mignotte bound and is below it on all of them.
    The first product is X^30 - 1, whose factor Phi_1*Phi_6*Phi_10*Phi_15
    has four roots summing to 4, twice its Cauchy root bound 2."""
    rng = random.Random(73)
    tighter = 0
    for case in range(60):
        if case == 0:
            factors = [list(cyclotomic_poly(d).prim) for d in (1, 2, 3, 5, 6, 10, 15, 30)]
        else:
            factors = [random_zz(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 5))]
        f = [1]
        for g in factors:
            f = zz_mul(f, g)
        bound = _mignotte_bound(f)
        trace_bound = _trace_bound(f, bound)
        assert trace_bound <= bound
        tighter += trace_bound < bound
        for size in range(1, len(factors)):
            for chosen in combinations(range(len(factors)), size):
                g, h = [1], [1]
                for i, factor in enumerate(factors):
                    if i in chosen:
                        g = zz_mul(g, factor)
                    else:
                        h = zz_mul(h, factor)
                assert abs(h[-1] * g[-2]) <= trace_bound, (factors, chosen)
    assert tighter == 60


def mirror_orbits(p: int, modular: list[list[int]]) -> tuple[list[int], list[int]]:
    """The degrees of the pairs {h, h*} of modular factors with h* != h, and
    of the factors with h* = h, for h* = (-1)^deg h * h(-X) mod p."""
    keys = {tuple(h) for h in modular}
    pairs, fixed = [], []
    for h in map(tuple, modular):
        star = tuple((-c if (len(h) - 1 - i) % 2 else c) % p for i, c in enumerate(h))
        if star == h:
            fixed.append(len(h) - 1)
        elif star in keys and star < h:
            pairs.append(len(h) - 1)
    return pairs, fixed


def even_part(rng: random.Random) -> list[int] | None:
    """A primitive squarefree even f: h(X^2) or h(X) * h(-X) up to sign, for a
    random squarefree product h, or None when that is not squarefree."""
    h = random_squarefree_product(rng)
    if rng.random() < 0.5:
        f = of_x_squared(h)
    else:
        f = zz_primitive(zz_mul(h, [-c if i % 2 else c for i, c in enumerate(h)]))[1]
    return f if f[0] and zz_squarefree(f) == [(f, 1)] else None


def lift_in_factorization(monkeypatch, f: list[int], p: int | None = None) -> dict:
    """Run zz_factor_squarefree(f), at the prime p if given, and record its
    zz_hensel_lift call: its p, l, factors and lifts, the inversions
    pow(., -1, m) inside it, and the order of the _pairs ("P"), _mirror ("m")
    and zz_hensel_lift ("H") calls."""
    run = {"log": [], "inversions": 0, "inside": False}
    mirror, pairs, lift = _intpoly._mirror, _intpoly._pairs, _intpoly.zz_hensel_lift

    def recording_lift(q, g, factors, l):
        run["log"].append("H")
        run.update(p=q, l=l, factors=factors, inside=True)
        run["lifts"] = lift(q, g, factors, l)
        run["inside"] = False
        return run["lifts"]

    def counting_pow(*args):
        run["inversions"] += run["inside"] and args[1:2] == (-1,)
        return pow(*args)

    with monkeypatch.context() as m:
        m.setattr(_intpoly, "_mirror", lambda h: run["log"].append("m") or mirror(h))
        m.setattr(_intpoly, "_pairs", lambda *args: run["log"].append("P") or pairs(*args))
        m.setattr(_intpoly, "zz_hensel_lift", recording_lift)
        m.setattr(_intpoly, "pow", counting_pow, raising=False)
        if p is not None:
            m.setattr(_intpoly, "_choose_prime", lambda g: p)
        zz_factor_squarefree(f)
    assert run["log"].count("H") == 1, run["log"]
    return run


def check_lift_of_mirror_pairs(run: dict, f: list[int], modular: list[list[int]]) -> None:
    """The lift in zz_factor_squarefree of an even f took exactly one factor of
    each mirror pair and every self-mirrored factor, in order, and lifted
    them to their entries in the full lift; pairing the factors took one
    _mirror per factor, and one more per twin filled in."""
    p, l, factors = run["p"], run["l"], run["factors"]
    star = {tuple(h): tuple((-c if (len(h) - 1 - i) % 2 else c) % p for i, c in enumerate(h)) for h in modular}
    keys = [tuple(h) for h in factors]
    assert keys == sorted(keys, key=[tuple(h) for h in modular].index)
    assert sorted(keys + [star[k] for k in keys if star[k] != k]) == sorted(map(tuple, modular)), (p, f)
    full = hensel_lift_pseudo(p, f, modular, l)
    assert run["lifts"] == [full[modular.index(h)] for h in factors], (p, f, l)
    log, top = "".join(run["log"]), "P" + "m" * len(modular) + "H" + "m" * (len(modular) - len(factors))
    assert log == top or log.startswith(top + "P"), log


def test_hensel_lift_matches_pseudo_division_steps(monkeypatch):
    rng = random.Random(71)
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    cubic_pair = zz_mul([2, -2, 0, 1], [-2, -2, 0, 1])  # Eisenstein X^3 - 2X + 2 and its mirror
    # (f, its number of modular factors at the chosen prime, l)
    cases = [
        (sd16_times_x2_minus_3(), 10, 40),  # the factor benchmark's median op
        (zz_mul([1, 3], zz_mul([-5, 2], [7, 0, 2])), 3, 40),  # non-monic, lc = 12
        (zz_mul([1, 3], zz_mul([-5, 2], [7, 0, 2])), 3, 2),
        (zz_mul([2, -2, 0, 1], zz_mul([-3, 0, 1], [1, 1])), 3, 40),  # Eisenstein X^3 - 2X + 2
        (zz_mul([2, -2, 0, 1], zz_mul([-3, 0, 1], [1, 1])), 3, 2),
        (zz_mul([3, 6, 0, 3, 0, 2], zz_mul([-3, 0, 1], [-5, 0, 1])), 5, 40),  # Eisenstein, lc = 2
        # even: the mirror lifts one factor of each pair {h, (-1)^deg h * h(-X)}
        (sd16_of_x_squared(), 12, 30),  # at p = 11, four self-mirrored quartics
        (zz_mul(cubic_pair, [-3, 0, 1]), 3, 40),  # at p = 5, a pair of cubics and X^2 + 2
        (zz_mul(cubic_pair, [-3, 0, 1]), 3, 2),
        (zz_mul(zz_mul([2, -2, 1], [2, 2, 1]), zz_mul([3, -1, 1], [3, 1, 1])), None, 40),
    ]
    mirrored, mirror = [], _intpoly._mirror
    monkeypatch.setattr(_intpoly, "_mirror", lambda h: mirrored.append(len(h)) or mirror(h))
    used, mixed, lifted = set(), 0, 0
    even_primes, pair_degrees, fixed_degrees = set(), set(), set()
    while lifted < 100:
        if cases:
            f, r, l = cases.pop()
            p = _choose_prime(f)
        else:
            f = random_squarefree_product(rng) if lifted < 60 else even_part(rng)
            r, l, p = None, rng.randint(2, 40), rng.choice(primes)
        if f is None or len(f) < 3 or f[-1] % p == 0 or zz_squarefree(f) != [(f, 1)]:
            continue
        if not gf_is_squarefree(gf_normal(f, p), p):
            continue
        modular = gf_berlekamp(gf_monic(gf_normal(f, p), p), p)
        assert r is None or len(modular) == r
        if len(modular) < 2:
            continue
        mirrored.clear()
        lifts = zz_hensel_lift(p, f, modular, l)
        assert lifts == hensel_lift_pseudo(p, f, modular, l), (p, f, l)
        assert mirrored == []
        pl = p**l
        product = [1]
        for g in lifts:
            product = gf_mul(product, g, pl)
        assert product == gf_monic(gf_normal(f, pl), pl)
        if not any(f[1::2]):
            # zz_factor_squarefree lifts one factor per pair and each self-mirrored
            # one: one mirror per factor to pair them, one per twin filled in
            pairs, fixed = mirror_orbits(p, modular)
            run = lift_in_factorization(monkeypatch, f, p)
            assert len(run["factors"]) == len(pairs) + len(fixed), (p, f, pairs, fixed)
            check_lift_of_mirror_pairs(run, f, modular)
            even_primes.add(p)
            pair_degrees.update(min(d, 3) for d in pairs)
            fixed_degrees.update(fixed)
        used.add(p)
        mixed += {min(len(g) - 1, 3) for g in modular} == {1, 2, 3}
        lifted += 1
    assert used == set(primes) and mixed >= 5, (used, mixed)
    assert len(even_primes) >= 5 and pair_degrees == {1, 2, 3}, (even_primes, pair_degrees)
    assert {2, 4} <= fixed_degrees, fixed_degrees


def test_hensel_lift_of_a_subset_matches_the_full_lift():
    """A Newton step reads only F and f_i, so lifting any nonempty subset of
    the modular factors gives exactly their entries in the lift of them all,
    which the even recombination relies on when it lifts one factor per
    mirror pair."""
    rng = random.Random(101)
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    used, kinds, degrees, lifted = set(), {"odd": 0, "even": 0}, set(), 0
    while lifted < 80:
        even = lifted % 2 == 1
        f = even_part(rng) if even else random_squarefree_product(rng)
        p, l = rng.choice(primes), rng.randint(2, 40)
        if f is None or len(f) < 3 or f[-1] % p == 0 or zz_squarefree(f) != [(f, 1)]:
            continue
        if not gf_is_squarefree(gf_normal(f, p), p):
            continue
        modular = gf_berlekamp(gf_monic(gf_normal(f, p), p), p)
        if len(modular) < 3:
            continue
        full = zz_hensel_lift(p, f, modular, l)
        chosen = sorted(rng.sample(range(len(modular)), rng.randint(1, len(modular) - 1)))
        assert zz_hensel_lift(p, f, [modular[i] for i in chosen], l) == [full[i] for i in chosen], (p, f, l, chosen)
        used.add(p)
        kinds["even" if even else "odd"] += 1
        degrees.update(min(len(modular[i]) - 1, 3) for i in chosen)
        lifted += 1
    assert used == set(primes) and min(kinds.values()) == 40, (used, kinds)
    assert degrees == {1, 2, 3}, degrees  # both root forms and the division step


def hensel_lift_calls(monkeypatch, f: list[int]) -> tuple[list[list[int]], dict[str, list[int]]]:
    """The modular factors of f and the degrees of the moduli that
    zz_hensel_lift passes to PackedGF.inverse and gf_divmod while it lifts them."""
    p = _choose_prime(f)
    modular = gf_berlekamp(gf_monic(gf_normal(f, p), p), p)
    calls = {"inverse": [], "gf_divmod": []}
    inverse, divmod_ = PackedGF.inverse, _intpoly.gf_divmod

    def recording_inverse(P, a, g):
        calls["inverse"].append(P.degree(g))
        return inverse(P, a, g)

    def recording_divmod(a, g, q):
        calls["gf_divmod"].append(len(g) - 1)
        return divmod_(a, g, q)

    monkeypatch.setattr(PackedGF, "inverse", recording_inverse)
    monkeypatch.setattr(_intpoly, "gf_divmod", recording_divmod)
    zz_hensel_lift(p, f, modular, 10)
    return modular, calls


def test_hensel_lift_takes_quadratic_and_linear_factors_through_their_roots(monkeypatch):
    # A division step would call inverse once and gf_divmod at least three times per factor.
    modular, calls = hensel_lift_calls(monkeypatch, sd16_times_x2_minus_3())
    assert sorted(len(g) - 1 for g in modular) == [1, 1] + [2] * 8
    assert calls == {"inverse": [], "gf_divmod": []}


@pytest.mark.parametrize("f, p, l, pairs, inversions", [
    (sd16_times_x2_minus_3(), 11, 14, 5, 21),  # 41 with all ten factors lifted
    (swinnerton_dyer([2, 3, 5, 7, 11]), 19, 22, 8, 41),  # 81 with all sixteen lifted
])
def test_hensel_lift_inverts_once_per_mirrored_pair_and_step(monkeypatch, f, p, l, pairs, inversions):
    # Every factor is linear or quadratic and none is its own mirror, so
    # zz_factor_squarefree lifts one factor per pair, and each Newton step
    # inverts F'(t) once per pair, after one inversion in gf_monic.
    modular = gf_berlekamp(gf_monic(gf_normal(f, p), p), p)
    pair_degrees, fixed = mirror_orbits(p, modular)
    assert (len(pair_degrees), fixed) == (pairs, []) and len(modular) == 2 * pairs
    run = lift_in_factorization(monkeypatch, f)
    assert (run["p"], run["l"], len(run["factors"])) == (p, l, pairs)
    assert run["inversions"] == inversions
    check_lift_of_mirror_pairs(run, f, modular)


def test_hensel_lift_runs_one_inverse_per_factor_of_degree_three_or_more(monkeypatch):
    # Eisenstein X^3 - 2X + 2 stays irreducible mod 5, next to X^2 - 3 and X + 1.
    f = zz_mul([2, -2, 0, 1], zz_mul([-3, 0, 1], [1, 1]))
    modular, calls = hensel_lift_calls(monkeypatch, f)
    assert sorted(len(g) - 1 for g in modular) == [1, 2, 3]
    assert calls["inverse"] == [3]


def test_gf_divmod_matches_eager_division():
    rng = random.Random(79)
    # (modulus, its prime): primes, and prime powers as the Hensel lift uses them
    for m, q in ((3, 3), (11, 11), (2**61 - 1, 2**61 - 1), (3**5, 3), (11**14, 11), (7**40, 7)):
        for _ in range(40):
            f = [rng.randint(-2 * m, 2 * m) for _ in range(rng.randint(0, 24))]
            lead = 1 if rng.random() < 0.4 else rng.randrange(1, m)
            while lead % q == 0:
                lead = rng.randrange(1, m)
            g = [rng.randint(-m, m) for _ in range(rng.randint(0, 8))] + [lead]
            assert gf_divmod(f, g, m) == gf_divmod_eager(f, g, m), (f, g, m)
            if len(f) < len(g):
                assert gf_divmod(f, g, m) == ([], gf_normal(f, m))


# Every prime from 3 to 23, and 65521, whose slots are wider than 64 bits.
PACKED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 65521)


def test_gf_inverse_and_gcd_match_extended_euclid():
    rng = random.Random(83)
    for p in PACKED_PRIMES:
        kinds = {"constant a": 0, "deg a >= deg f": 0, "not coprime": 0}
        inverted = 0
        while inverted < 40:
            n = rng.randint(1, 30)
            d = rng.randint(1, n) if rng.random() < 0.2 else 0  # a and f share a factor of degree d
            common = [rng.randrange(p) for _ in range(d)] + [1]
            f = gf_mul(common, [rng.randrange(p) for _ in range(n - d)] + [rng.randrange(1, p)], p)
            k = rng.randint(0, 2 * n) if rng.random() < 0.8 else 0
            a = gf_mul(common, [rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)], p)
            s, _, h = gf_gcdex(a, f, p)
            P = PackedGF(p, len(f) - 1)
            if h != [1]:
                with pytest.raises(ValueError):
                    P.inverse(P.pack(a), P.pack(f))
                kinds["not coprime"] += 1
                continue
            assert P.unpack(P.inverse(P.pack(a), P.pack(f))) == s, (a, f, p)
            assert gf_rem(gf_normal(zz_mul(s, a), p), f, p) == [1], (a, f, p)
            kinds["constant a"] += len(a) == 1
            kinds["deg a >= deg f"] += len(a) >= len(f)
            inverted += 1
        assert min(kinds.values()) > 0, (p, kinds)
        for _ in range(40):
            h = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            f, g = (gf_mul(h, [rng.randint(-p, p) for _ in range(rng.randint(0, 12))], p) for _ in "fg")
            assert gf_gcd(f, g, p) == gf_gcdex(f, g, p)[2], (f, g, p)
        for f, g in (([], []), ([], h), (h, []), ([], [p + 2])):
            assert gf_gcd(f, g, p) == gf_gcdex(f, g, p)[2], (f, g, p)


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


def random_gf_product(rng: random.Random, p: int, degree: int) -> list[int]:
    """A monic squarefree f over F_p of degree at most ``degree``: a product of
    random monic factors of degree 1 to 4, skipping any that would repeat a
    factor of the product so far."""
    f = [1]
    for _ in range(4 * degree):
        k = rng.randint(1, 4)
        if len(f) + k <= degree + 1:
            g = gf_mul(f, [rng.randrange(p) for _ in range(k)] + [1], p)
            if gf_is_squarefree(g, p):
                f = g
    return f


@pytest.mark.parametrize("p, degree", [(29, 10), (53, 10), (97, 10), (3, 40), (5, 40)])
def test_berlekamp_matrix_walk_matches_squaring(p, degree):
    # p > 2 deg f walks further than squaring needs; p in {3, 5} walks a large matrix
    rng = random.Random(p * degree)
    for _ in range(12):
        f = random_gf_product(rng, p, degree)
        assert gf_berlekamp(f, p) == berlekamp_scan(f, p), (f, p)


def random_gf_irreducible(rng: random.Random, p: int, degree: int) -> list[int]:
    """A random monic irreducible of degree 1 to 5 over F_p: it has no factor
    of degree i <= degree/2, so gcd(g, X^(p^i) - X) = 1 for each such i."""
    while True:
        g = [rng.randrange(p) for _ in range(degree)] + [1]
        xq, irreducible = [0, 1], True
        for _ in range(degree // 2):
            xq = gf_pow_mod(xq, p, g, p)
            irreducible = irreducible and gf_gcd(g, zz_sub(xq, [0, 1]), p) == [1]
        if irreducible:
            return g


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_gcd_and_squarefree_test_match_the_list_kernels(p):
    rng = random.Random(p)
    P = PackedGF(p, 40)
    assert P.W > 64 if p == 65521 else P.W < 64
    kinds = {"nontrivial gcd": 0, "squarefree": 0, "not squarefree": 0}
    for n in range(41):
        for _ in range(4):
            # f and g share a factor h of degree up to n; coefficients are raw integers
            h = [rng.randrange(p) for _ in range(rng.randint(0, min(n, 6)))] + [1]
            f = zz_mul(h, [rng.randint(-3 * p, 3 * p) for _ in range(n + 1 - len(h))] + [rng.randrange(1, p)])
            g = zz_mul(h, [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, n + 1 - len(h)))])
            for a, b in ((f, g), (g, f), (f, []), ([], f), ([], [])):
                assert P.unpack(P.gcd(P.pack(a), P.pack(b))) == gf_gcd(a, b, p), (a, b, p)
            kinds["nontrivial gcd"] += len(gf_gcd(f, g, p)) > 1
            # h^2 * f, or once n >= p X^p + c, whose derivative vanishes, is not squarefree
            for a in (f, zz_mul(h, f), [rng.randrange(1, p)] + [0] * (p - 1) + [1] if p <= n else f):
                squarefree = gf_is_squarefree(gf_normal(a, p), p)
                assert PackedGF(p, len(a) - 1).is_squarefree(a) == squarefree, (a, p)
                kinds["squarefree" if squarefree else "not squarefree"] += 1
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_berlekamp_matches_known_factors(p):
    # The walk costs p*n steps, so 65521 stops at degree 4.
    rng = random.Random(p + 1)
    for n in range(5 if p == 65521 else 41):
        factors = []
        while (rest := n - sum(len(g) - 1 for g in factors)) > 0:
            g = random_gf_irreducible(rng, p, rng.randint(1, min(4, rest)))
            if g in factors:  # drop a repeat, so that at p = 3 the last degrees can be filled
                factors.remove(g)
            else:
                factors.append(g)
        f = [1]
        for g in factors:
            f = gf_mul(f, g, p)
        assert gf_berlekamp(f, p) == sorted(factors or [[1]], key=lambda g: (len(g), g)), (f, p)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_reduction_is_exact_at_the_slot_bound(p):
    # Every slot at 2^b - 1, the largest value it may reach, and the p values
    # below it, one of each residue, reduce exactly at every degree bound.
    for n in range(41):
        P = PackedGF(p, n)
        top = (1 << P.b) - 1
        for a in range(top - min(p, 64), top + 1):
            ones = sum(1 << P.W * i for i in range(n + 1))
            assert P.reduce(a * ones) == a % p * ones, (p, n, a)
        # The largest cofactor update of inverse modulo f of degree n: s0 + (-q)*s1
        # with every residue p - 1 and deg q + deg s1 = n - 1.
        for k in range(n):
            s0, nq, s1 = [p - 1] * n, [p - 1] * (n - k), [p - 1] * (k + 1)
            expected = gf_normal(add(s0, zz_mul(nq, s1)), p)
            assert P.unpack(P.reduce(P.pack(s0) + P.pack(nq) * P.pack(s1))) == expected, (p, n, k)


def test_root_pass_matches_exhaustive_scan():
    # Every prime from 3 to 97, the first whose root table is refused at every
    # degree >= 2: linear and quadratic factors times a rest of degree 0, 3, 4,
    # 5 or 3 + 3, the last of which goes on to Berlekamp.
    assert _root_table(89, 2) is not None and _root_table(97, 2) is None
    rng = random.Random(107)
    passes = {True: 0, False: 0}
    for p in filter(is_prime, range(3, 98)):
        degree = 40 if p <= 23 else 16
        for rest in ([], [3], [4], [5], [3, 3]):
            factors = []
            for k in rest:
                while (g := random_gf_irreducible(rng, p, k)) in factors:
                    pass
                factors.append(g)
            for _ in range(3 * degree):
                g = random_gf_irreducible(rng, p, rng.randint(1, 2))
                if g not in factors and sum(len(h) - 1 for h in factors) + len(g) - 1 <= degree:
                    factors.append(g)
            f = [1]
            for g in factors:
                f = gf_mul(f, g, p)
            passes[_root_table(p, len(f) - 1) is not None] += 1
            expected = sorted(factors, key=lambda g: (len(g), g))
            assert gf_berlekamp(f, p) == berlekamp_scan(f, p) == expected, (f, p)
    assert min(passes.values()) >= 20, passes


def test_root_tables_stay_within_their_byte_bound():
    _intpoly._root_tables.clear()
    x400 = [1, 1] + [0] * 398 + [1]
    for f in (swinnerton_dyer([2, 3, 5, 7, 11]), sd16_of_x_squared(), sd16_times_x2_minus_3(), x400):
        zz_factor_squarefree(f)
    kept = [(p, len(t[2]) - 1) for p, t in _intpoly._root_tables.items()]
    assert kept == [(19, 32), (11, 32), (3, 400)]
    # The same tables rebuilt under tracemalloc, and then, in the same process,
    # one at every prime up to 89 at degrees up to the lifting cap's 409: what
    # clearing them frees is what they retained.
    for builds in (kept, [(p, n) for p in range(3, 90) if is_prime(p) for n in (2, 16, 40, 409)]):
        _intpoly._root_tables.clear()
        gc.collect()
        tracemalloc.start()
        try:
            for p, n in builds:
                _root_table(p, n)
                counted = sum(t[4] for t in _intpoly._root_tables.values())
                assert counted <= MAX_ROOT_TABLE, (p, n)
            held = tracemalloc.get_traced_memory()[0]
            _intpoly._root_tables.clear()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < retained <= counted <= MAX_ROOT_TABLE, (retained, counted)
