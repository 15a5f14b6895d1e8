"""Seeded corpora for the four workloads.

``build(workload, seed)`` returns the corpus of a run with ``seed``: plain
JSON-ready dicts, identical for identical arguments.  A corpus is made of
a few blocks (``BLOCKS``), so that it holds at least 100 ops.
Every input is assembled from blocks whose factorization is known by
construction, and each op carries what the oracles need to check it.

Two random streams feed each block.  The ``fixed`` stream depends on the
workload and the block index only; it draws everything that sets the cost of
an op: the blocks, the binomials, the Phi_n indices, the monoid generators
and the order of the ops.  The ``seeded`` stream also depends on the seed;
it draws what leaves the algebraic work unchanged: rational contents,
clearing denominators, monomial shifts and the coefficients of the
text-only CLI inputs.  Different seeds thus give different inputs with the
same work, so a run's figures do not depend on its seed.

Irreducibility of the blocks over Q:
  * Swinnerton-Dyer polynomials SD(p_1..p_k) are irreducible (classical).
  * SD(X^2) is irreducible too: alpha = sum(+-sqrt p_i) spans the totally
    real field K = Q(sqrt p_1, ..., sqrt p_k), and -alpha < 0 is a conjugate
    of alpha, so alpha is no square in K; sqrt(alpha) then has degree
    2 [K:Q] = deg SD(X^2) over Q, and SD(X^2) is its minimal polynomial.
  * Eisenstein polynomials, by Eisenstein's criterion.
  * X^2 - a for a non-square a > 0.
  * Phi_n.
None of the non-cyclotomic blocks divides any X^d - 1 (each has a root that
is no root of unity), so they land in the prime part of the canonical form.

Each element of Q[Q_+] is c * X^(j/m) * prod(B_i(X^(1/m))^e_i) with
gcd(j, m) = 1 and every block having a nonzero constant term; the lowest
exponent is then j/m, so the clearing denominator of the element is exactly m
and the expected canonical form can be read off the construction.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import algebra as A

WORKLOADS = ("factor", "cyclo", "divisors", "cli")
# Primes under the Swinnerton-Dyer blocks.  Larger primes grow the
# coefficients and with them the Hensel precision, which would widen the
# cost band of each family; 13 made one SD16(X^2) take 1.5 s instead of 0.45 s.
PRIMES = (2, 3, 5, 7, 11)

# X^n +- 1 (n <= 90) whose cold factorization takes over 0.6 s, all in
# subset recombination: X^78 + 1 takes 28 s, X^75 +- 1 and X^84 + 1 over 1 s.
# They would set the run's tail alone, so they stay out like X^105 - 1.
SLOW_BINOMIALS = {(75, -1), (75, 1), (78, 1), (84, 1)}

# Phi_n indices for cyclotomic_poly ops: 7-smooth n in [60, 500] with at
# least two distinct prime factors, so cold construction walks many divisors.
PHI_INDICES = tuple(
    n
    for n in range(60, 501)
    if max(A.factorize(n)) <= 7 and len(A.factorize(n)) >= 2
)

# The four monoids of the divisors workload: scale 1 or a proper rescaling of
# <2,3>, and one monoid with three generators.
MONOIDS = (("2", "3"), ("3", "5", "7"), ("1/2", "1/3"), ("2/3", "1"))


def streams(workload: str, seed: int, index: int) -> tuple[random.Random, random.Random]:
    """(fixed, seeded) random streams of one block; see the module docstring."""
    return random.Random(f"{workload}:block{index}"), random.Random(f"{workload}:{seed}:{index}")


def terms(f: dict) -> list[list[str]]:
    return [[A.format_rat(e), A.format_rat(c)] for e, c in sorted(f.items())]


# -- blocks --------------------------------------------------------------------


def sd_block(rng, k: int) -> list[int]:
    return A.swinnerton_dyer(sorted(rng.sample(PRIMES, k)))


def eisenstein_block(rng, degree: int) -> list[int]:
    p = rng.choice((2, 3, 5, 7))
    lead = rng.choice([c for c in range(1, 5) if c % p])
    const = p * rng.choice([u for u in range(-4, 5) if u % p])
    middle = [p * rng.randint(-3, 3) for _ in range(degree - 1)]
    return [const, *middle, lead]


def quadratic_block(rng) -> list[int]:
    a = rng.choice([a for a in range(2, 31) if math.isqrt(a) ** 2 != a])
    return [-a, 0, 1]


def small_block(rng) -> list[int]:
    if rng.random() < 0.5:
        return quadratic_block(rng)
    return eisenstein_block(rng, rng.randint(2, 5))


def content(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def shift_numerator(rng, m: int) -> int:
    return rng.choice([j for j in range(0, 2 * m + 1) if math.gcd(j, m) == 1])


# -- factorization ops -----------------------------------------------------------


def factor_op(seeded, blocks: list[tuple[list[int], int]], cyclo=()) -> dict:
    """canonical_factorization of c * X^(j/m) * prod(B(X^(1/m))^e) * prod(Phi_n(X^(1/m))^e).

    c, m and j come from the seeded stream: clearing X^(1/m) and splitting
    off X^(j/m) and c leave the same integer polynomial to factor.
    """
    m = seeded.randint(1, 6)
    j = shift_numerator(seeded, m)
    c = content(seeded)
    core = [1]
    primes: dict[tuple, int] = {}
    lead = Fraction(c)
    for block, mult in blocks:
        core = A.mul(core, A.power(block, mult))
        lead *= Fraction(block[-1]) ** mult
        key = tuple(A.format_rat(x) for x in A.monic(block))
        primes[key] = primes.get(key, 0) + mult
    cyclotomic: dict[int, int] = {}
    for n, mult in cyclo:
        core = A.mul(core, A.power(A.cyclotomic(n), mult))
        cyclotomic[n] = cyclotomic.get(n, 0) + mult
    element = A.puiseux_from_poly(core, m, Fraction(j, m), c)
    return {
        "kind": "factor",
        "element": terms(element),
        "expect": {
            "constant": A.format_rat(lead),
            "m": m,
            "shift": A.format_rat(Fraction(j, m)),
            "cyclotomic": sorted([n, e] for n, e in cyclotomic.items()),
            "primes": sorted([list(k), e] for k, e in primes.items()),
        },
    }


def binomial_op(n: int, sign: int, b: int = 1) -> dict:
    """canonical_factorization of X^(n/b) + sign with gcd(n, b) = 1."""
    if sign < 0:
        cyclo = [[d, 1] for d in A.divisors(n)]
    else:
        cyclo = [[d, 1] for d in A.divisors(2 * n) if n % d]
    element = {Fraction(0): Fraction(sign), Fraction(n, b): Fraction(1)}
    return {
        "kind": "factor",
        "element": terms(element),
        "expect": {
            "constant": "1",
            "m": b,
            "shift": "0",
            "cyclotomic": cyclo,
            "primes": [],
        },
    }


# Swinnerton-Dyer prime sets, cycled in a fixed order.  (5, 7, 11) is left
# out because it widens the cost band of its family fourfold: it makes a
# product of four SD8 take 1 s instead of 0.1-0.2 s.
SD8_SETS = tuple(s for s in itertools.combinations(PRIMES, 3) if s != (5, 7, 11))
# SD16(2,3,5,7)(X^2), the op with the most recombination work (2 509 trial
# divisions in about 0.45 s).  It is one op of block 0 only: at one per block
# the three took a third of a pass, so fewer passes fitted in a run.  Under
# X -> X^2, (2, 3, 7, 11) and (2, 5, 7, 11) take 1.8 s instead.
SQUARE_SET = (2, 3, 5, 7)


# Two products that recur in every block with the same work, so that the
# median op lies inside a band of a dozen identical-cost ops per block (about
# 13 ms) and the 90th percentile inside one of five or six per block (about
# 55 ms), not in a gap between families.  Copies differ in content, clearing
# denominator and shift only.
MEDIAN_PRODUCT = ((2, 3, 5, 7), 3)  # SD16(2,3,5,7) * (X^2 - 3)
P90_PRODUCT = ((2, 3, 5, 11), (2, 3, 7))  # SD16(2,3,5,11) * SD8(2,3,7)


def factor_corpus(fixed, seeded, index: int) -> list[dict]:
    """Products of known irreducibles of cleared degree <= 32.

    The prime sets of the other Swinnerton-Dyer blocks follow a fixed cycle
    that starts at the block index; the light blocks come from the fixed
    stream.
    """
    start = index % len(SD8_SETS)
    sd8 = itertools.cycle(SD8_SETS[start:] + SD8_SETS[:start])

    def sd(count=1):
        return [A.swinnerton_dyer(list(next(sd8))) for _ in range(count)]

    median = [(A.swinnerton_dyer(list(MEDIAN_PRODUCT[0])), 1), ([-MEDIAN_PRODUCT[1], 0, 1], 1)]
    p90 = [(A.swinnerton_dyer(list(s)), 1) for s in P90_PRODUCT]
    families = []
    for _ in range(3):  # small: two or three quadratic/Eisenstein blocks
        families.append([(small_block(fixed), 1) for _ in range(fixed.randint(2, 3))])
    for _ in range(4):  # repeated blocks exercise the squarefree split
        families.append([(sd()[0], 2), (small_block(fixed), fixed.randint(1, 3))])
    for _ in range(6):  # SD8 with one or two small blocks
        families.append([(sd()[0], 1)] + [(small_block(fixed), 1) for _ in range(fixed.randint(1, 2))])
    families += [median] * 12
    for count in (2, 3, 2, 3):  # two or three distinct SD8
        families.append([(b, 1) for b in sd(count)])
    families += [p90] * 5
    # Degree 32: four distinct SD8, and in block 0 SD16(X^2), elsewhere one
    # more copy of the 90th-percentile product.  (SD16 * SD8 * SD8 is left
    # out: one such product took 5 s, 35 times its neighbours, and would set
    # the tail alone.)
    families.append([(b, 1) for b in sd(4)])
    families.append([(A.compose_power(A.swinnerton_dyer(list(SQUARE_SET)), 2), 1)] if index == 0 else p90)
    fixed.shuffle(families)
    return [factor_op(seeded, blocks) for blocks in families]


def window(pool, index: int, count: int, salt: str) -> list:
    """Block ``index``'s share of a pool: ``count`` items of one fixed,
    seed-independent permutation, taken cyclically.  A corpus thus draws
    the same items whatever the seed."""
    order = list(pool)
    random.Random(salt).shuffle(order)
    start = index * count
    return [order[(start + i) % len(order)] for i in range(count)]


def cyclo_corpus(fixed, seeded, index: int) -> list[dict]:
    """Cold cyclotomic work in one fixed order.

    Cold cost varies a hundredfold between ops, and the order decides which
    op pays for each cold Phi_d build, so the binomials, the numerators a of
    X^(a/b) - 1, the Phi_n products and indices, and the order are fixed per
    block; the seed draws the denominators b, clearing denominators, shifts
    and contents.
    """
    pool = [(n, s) for n in range(2, 91) for s in (-1, 1) if (n, s) not in SLOW_BINOMIALS]
    numerators = [a for a in range(2, 61) if any(math.gcd(a, b) == 1 for b in range(2, 7))]
    plan = [("binomial", n, s) for n, s in window(pool, index, 24, "cyclo-binomials")]
    plan += [("general", a, -1) for a in window(numerators, index, 8, "cyclo-general")]
    plan += [("product", _phi_product(fixed), None) for _ in range(10)]
    plan += [("phi", n, None) for n in window(PHI_INDICES, index, 8, "cyclo-phi")]
    fixed.shuffle(plan)
    ops = []
    for kind, x, s in plan:
        if kind == "binomial":
            ops.append(binomial_op(x, s))
        elif kind == "general":
            ops.append(binomial_op(x, -1, seeded.choice([b for b in range(2, 7) if math.gcd(x, b) == 1])))
        elif kind == "product":
            ops.append(factor_op(seeded, [], x))
        else:
            ops.append({"kind": "phi", "n": x})
    return ops


PHI = A.totient_table(40)


def _phi_product(rng) -> list[tuple[int, int]]:
    """prod Phi_n^e with n <= 40 and total degree between 12 and 40."""
    chosen: dict[int, int] = {}
    while sum(PHI[n] * e for n, e in chosen.items()) < 12:
        n, e = rng.randint(1, 40), rng.randint(1, 2)
        if sum(PHI[d] * k for d, k in chosen.items() if d != n) + PHI[n] * e <= 40:
            chosen[n] = e
    return sorted(chosen.items())


# -- divisor ops -------------------------------------------------------------------


def divisor_op(seeded, gens: tuple[str, ...], blocks: list[tuple[list[int], int]], k: int) -> dict | None:
    """divisors_in_algebra(f, S) with f(X) = c * Y^k * prod(B(Y)^e), Y = X^(1/r).

    r scales S onto the numerical monoid N; None when supp f is not in S.
    """
    scale, numerical = A.normalize_monoid([Fraction(g) for g in gens])
    core = [1]
    for block, mult in blocks:
        core = A.mul(core, A.power(block, mult))
    top = k + len(core) - 1
    member = A.reachable(numerical, top)
    if not all(member[k + i] for i, c in enumerate(core) if c):
        return None
    c = content(seeded)
    element = A.puiseux_from_poly(core, 1, Fraction(k), c)
    element = {e / scale: v for e, v in element.items()}
    return {
        "kind": "divisors",
        "element": terms(element),
        "monoid": list(gens),
        "blocks": [[b, e] for b, e in blocks],
        "shift": k,
    }


# Blocks of each degree for the mixed divisor elements: cyclotomic
# polynomials, and for even degree also X^2 - a or an Eisenstein polynomial.
CYCLOTOMIC_BY_DEGREE = {
    d: [n for n in range(1, 31) if A.totient_table(30)[n] == d] for d in (1, 2, 4, 6, 8)
}

# Shapes of the mixed elements: (degree, multiplicity) per block, with how
# many of each a block holds.  The walk visits every sub-multiset, so the cost
# follows the shape.  The counts put the median inside a dense band of
# 20-30 ms ops and the 90th percentile inside the 100-140 ms band, so that
# neither sits in a gap between cost bands.
SHAPES = (
    (7, ((2, 2), (4, 1), (6, 1))),
    (6, ((1, 1), (2, 1), (2, 1), (4, 1), (6, 1))),
    (6, ((1, 2), (2, 1), (4, 1), (6, 2))),
    (4, ((1, 1), (1, 1), (2, 1), (4, 1), (6, 1), (8, 1))),
    (2, ((2, 1), (2, 1), (4, 1), (4, 1), (6, 1), (8, 1))),
    (2, ((1, 1), (2, 1), (2, 1), (2, 1), (4, 1), (4, 1), (8, 1))),
)
# n of the X^n - 1 elements: the light ones in every block, one of the
# heavy ones (0.16-0.53 s; X^36 - 1 in <2,3> has 192 classes) per block.
BINOMIAL_DIVISOR_N = (12, 16, 18, 20, 28, 32)
HEAVY_DIVISOR_N = (36, 30, 24)


def block_of_degree(rng, d: int) -> list[int]:
    options = [A.cyclotomic(n) for n in CYCLOTOMIC_BY_DEGREE[d]]
    if d == 2:
        options.append(quadratic_block(rng))
    if d % 2 == 0:
        options.append(eisenstein_block(rng, d))
    return rng.choice(options)


def mixed_divisor_op(fixed, seeded, gens, shape) -> dict:
    """A mixed element of the given shape, shifted by the conductor of N so
    that its whole support lies in N; blocks are redrawn until distinct."""
    _, numerical = A.normalize_monoid([Fraction(g) for g in gens])
    member = A.reachable(numerical, 2 * max(numerical) ** 2)
    k = max(x for x in range(len(member)) if not member[x]) + 1
    while True:
        blocks = [(block_of_degree(fixed, d), e) for d, e in shape]
        if not _has_associates([b for b, _ in blocks]):
            return divisor_op(seeded, gens, blocks, k)


def _has_associates(blocks) -> bool:
    keys = [tuple(A.monic(b)) for b in blocks]
    return len(set(keys)) != len(keys)


def divisors_corpus(fixed, seeded, index: int) -> list[dict]:
    """X^n - 1 for seven n with many divisors, and 27 mixed products of 3 to
    7 blocks; the monoids rotate with the block index, the seed draws the
    contents."""
    ops = []
    for i, n in enumerate(BINOMIAL_DIVISOR_N + (HEAVY_DIVISOR_N[index % len(HEAVY_DIVISOR_N)],)):
        blocks = [(A.cyclotomic(d), 1) for d in A.divisors(n)]
        ops.append(divisor_op(seeded, MONOIDS[(i + index) % len(MONOIDS)], blocks, 0))
    shapes = [shape for count, shape in SHAPES for _ in range(count)]
    for i, shape in enumerate(shapes):
        ops.append(mixed_divisor_op(fixed, seeded, MONOIDS[(i + index) % len(MONOIDS)], shape))
    fixed.shuffle(ops)
    return ops


# -- CLI ops ------------------------------------------------------------------------

# The one op kept although it fails: a negative cap is a usage error (exit 2),
# but the CLI accepts it and reports a resource limit (exit 3).
NEGATIVE_LIMIT = ["count", "X^6-1", "--monoid", "<2,3>", "--limit", "-5"]


def cli_op(argv: list[str], expect: dict | None = None, exit_code: int = 0) -> dict:
    return {"kind": "cli", "argv": argv, "exit": exit_code, "expect": expect or {}}


CLI_SHAPES = (((1, 1), (2, 1)), ((2, 1), (2, 1), (4, 1)), ((1, 1), (2, 2)))


def cli_corpus(fixed, seeded, index: int) -> list[dict]:
    """Thirty-five calls over every subcommand, one of them the known failure.

    Arguments that set the work (blocks, indices, monoid generators) come
    from the fixed stream; contents and the coefficients of the text-only
    inputs (symsupp, substitute, lemma21) from the seeded one.
    """
    ops = []
    for _ in range(5):
        blocks = [(small_block(fixed), 1) for _ in range(fixed.randint(1, 2))]
        if fixed.random() < 0.5:
            blocks.append((sd_block(fixed, 3), 1))
        cyclo = [(fixed.randint(1, 24), 1)] if fixed.random() < 0.5 else []
        op = factor_op(seeded, blocks, cyclo)
        ops.append(cli_op(["factor", _text(op)], op))
    for name, count in (("divisors", 4), ("count", 3), ("atom", 3)):
        for i in range(count):
            if name == "atom" and i == 0:
                # X^2 - a alone in a monoid scaled from <2,3>: an atom.
                gens = fixed.choice([g for g in MONOIDS if g != ("3", "5", "7")])
                op = divisor_op(seeded, gens, [(quadratic_block(fixed), 1)], 0)
            else:
                gens = fixed.choice(MONOIDS)
                op = mixed_divisor_op(fixed, seeded, gens, fixed.choice(CLI_SHAPES))
            ops.append(cli_op([name, _text(op), "--monoid", "<" + ",".join(gens) + ">"], op))
    for _ in range(4):
        ops.append(cli_op(["cyclotomic", str(fixed.randint(2, 200))]))
    for _ in range(2):
        ops.append(cli_op(["totient-inv", str(2 * fixed.randint(1, 60))]))
    for _ in range(3):
        a, b = fixed.sample(range(1000, 4001), 2)
        gens = [a, b, a + b, 2 * a + fixed.randint(1, 50)]
        if fixed.random() < 0.5:
            gens = [Fraction(g, 2) for g in gens]
        literal = "<" + ", ".join(A.format_rat(Fraction(g)) for g in gens) + ">"
        ops.append(cli_op(["monoid-atoms", literal]))
    for _ in range(2):
        gens = fixed.choice(MONOIDS)
        scale, numerical = A.normalize_monoid([Fraction(g) for g in gens])
        member = A.reachable(numerical, 200)
        n = fixed.choice([x for x in range(20, 201) if member[x]])
        ops.append(cli_op(["monoid-divisors", "<" + ",".join(gens) + ">", A.format_rat(Fraction(n) / scale)]))
    for _ in range(3):
        ops.append(cli_op(["symsupp", A.format_element(_random_element(seeded))]))
    for _ in range(2):
        ratio = Fraction(seeded.randint(1, 5), seeded.randint(1, 5))
        ops.append(cli_op(["substitute", A.format_element(_random_element(seeded)), "--by", A.format_rat(ratio)]))
    for field in (None, "F2", fixed.choice(("F3", "F5", "F7"))):
        poly = [seeded.randint(-3, 3) for _ in range(fixed.randint(3, 8))] + [1]
        argv = ["lemma21", A.format_element(A.puiseux_from_poly(poly, 1))]
        ops.append(cli_op(argv + (["--field", field] if field else [])))
    ops.append(cli_op(list(NEGATIVE_LIMIT), exit_code=2))
    fixed.shuffle(ops)
    return ops


def _text(op: dict) -> str:
    return A.format_element({Fraction(e): Fraction(c) for e, c in op["element"]})


def _random_element(rng) -> dict:
    """Two to five terms; never one, whose leading '-' argparse reads as an option."""
    out = {}
    size = rng.randint(2, 5)
    while len(out) < size:
        e = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        out[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
    return out


BUILDERS = {
    "factor": factor_corpus,
    "cyclo": cyclo_corpus,
    "divisors": divisors_corpus,
    "cli": cli_corpus,
}


# Blocks per corpus: enough for at least 100 ops.
BLOCKS = {"factor": 3, "cyclo": 2, "divisors": 3, "cli": 3}


def build(workload: str, seed: int) -> list[dict]:
    ops = []
    for index in range(BLOCKS[workload]):
        block = BUILDERS[workload](*streams(workload, seed, index), index)
        for i, op in enumerate(block):
            op["id"] = f"{workload}-{seed}-{index}-{i:03d}"
        ops.extend(block)
    return ops
