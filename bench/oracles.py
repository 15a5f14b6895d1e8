"""Checks of the library's answers, made with the benchmark's own arithmetic.

Each ``check_*`` returns None when the answer is right and a short reason
when it is wrong.  Nothing here imports ``puiseux`` or compares against a
stored copy of an earlier output: expectations come from how the input was
built (corpus.py) or from an independent computation in algebra.py.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import algebra as A
from corpus import NEGATIVE_LIMIT


def _element(pairs) -> dict:
    return {Fraction(e): Fraction(c) for e, c in pairs}


# -- canonical factorization --------------------------------------------------------


def check_factor(op: dict, got: dict) -> str | None:
    """Block factorization known from the construction, then exact recomposition."""
    expect = op["expect"]
    for key in ("constant", "m", "shift", "cyclotomic", "primes"):
        if _normal(key, got[key]) != _normal(key, expect[key]):
            return f"{key}: got {got[key]!r}, built {expect[key]!r}"
    return check_recomposition(_element(op["element"]), got)


def _normal(key, value):
    if key in ("constant", "shift"):
        return Fraction(value)
    if key == "cyclotomic":
        return sorted(tuple(x) for x in value)
    if key == "primes":
        return sorted((tuple(Fraction(c) for c in q), e) for q, e in value)
    return value


def check_recomposition(element: dict, got: dict) -> str | None:
    """c * Y^(shift*m) * prod Phi_n(Y)^e * prod q(Y)^l == element(Y^m), on integers.

    Writing each rational q as Q / D and the element as E / d with Q and E
    integral, and P for the product of the Phi_n^e and Q^l, the identity
    becomes den(c) * prod(D^l) * E == num(c) * d * P.
    """
    m = got["m"]
    if A.clearing_denominator(element) != m:
        return f"clearing denominator {m} is not the element's"
    den_e, target = A.to_integer(A.to_poly_in(element, m))
    product = [1]
    scale = 1
    for n, e in got["cyclotomic"]:
        product = A.mul(product, A.power(A.cyclotomic(n), e))
    for q, l in got["primes"]:
        den, q_int = A.to_integer([Fraction(c) for c in q])
        product = A.mul(product, A.power(q_int, l))
        scale *= den**l
    shift = Fraction(got["shift"]) * m
    if shift.denominator != 1:
        return "monomial exponent is not a multiple of 1/m"
    product = [0] * int(shift) + product
    c = Fraction(got["constant"])
    left = A.scale(target, c.denominator * scale)
    right = A.scale(product, c.numerator * den_e)
    return None if left == right else "recomposition differs from the input"


def check_phi(n: int, coeffs: list) -> str | None:
    want = A.cyclotomic(n)
    got = [Fraction(c) for c in coeffs]
    return None if got == want else f"Phi_{n} differs from the Moebius product"


# -- divisors -------------------------------------------------------------------------


def _scaled(gens) -> tuple[Fraction, list[int]]:
    return A.normalize_monoid([Fraction(g) for g in gens])


def divisor_count(op: dict) -> int:
    """Count (sub-multiset of blocks, monomial split) pairs that stay in N.

    Every block is irreducible with a nonzero constant term and no two are
    associates, so distinct pairs are distinct divisor classes.
    """
    _, numerical = _scaled(op["monoid"])
    k = op["shift"]
    blocks = [(b, e) for b, e in op["blocks"]]
    total_degree = k + sum((len(b) - 1) * e for b, e in blocks)
    member = A.reachable(numerical, total_degree)
    count = 0
    ranges = [range(e + 1) for _, e in blocks]
    for choice in itertools.product(*ranges):
        g, h = [1], [1]
        for (b, e), j in zip(blocks, choice):
            g = A.mul(g, A.power(b, j))
            h = A.mul(h, A.power(b, e - j))
        g_supp = [i for i, c in enumerate(g) if c]
        h_supp = [i for i, c in enumerate(h) if c]
        for t in range(k + 1):
            if all(member[t + i] for i in g_supp) and all(member[k - t + i] for i in h_supp):
                count += 1
    return count


def check_divisors(op: dict, divisors: list) -> str | None:
    """Each divisor: leading coefficient 1, support in S, exact division with
    cofactor support in S, no duplicates; and as many as the block count."""
    scale, numerical = _scaled(op["monoid"])
    f = _element(op["element"])
    degree = max(f) * scale
    member = A.reachable(numerical, int(degree))
    _, f_int = A.to_integer(A.to_poly_in({e * scale: c for e, c in f.items()}, 1))
    seen = set()
    for pairs in divisors:
        g = _element(pairs)
        key = tuple(sorted(g.items()))
        if key in seen:
            return f"duplicate divisor {A.format_element(g)}"
        seen.add(key)
        if g[max(g)] != 1:
            return f"divisor {A.format_element(g)} is not normalized"
        g_y = {e * scale: c for e, c in g.items()}
        if any(e.denominator != 1 or e > degree or not member[int(e)] for e in g_y):
            return f"divisor {A.format_element(g)} has support outside S"
        _, g_int = A.to_integer(A.to_poly_in(g_y, 1))
        content = math.gcd(*g_int)
        g_int = [c // content for c in g_int]
        cofactor = A.exact_div(f_int, g_int)
        if cofactor is None:
            return f"divisor {A.format_element(g)} does not divide the element"
        if any(c and not member[i] for i, c in enumerate(cofactor)):
            return f"cofactor of {A.format_element(g)} has support outside S"
    want = divisor_count(op)
    if len(divisors) != want:
        return f"{len(divisors)} divisors, blocks give {want}"
    return None


# -- CLI ------------------------------------------------------------------------------


def _poly_coeffs(text: str) -> list[Fraction]:
    return A.to_poly_in(A.parse_element(text), 1)


def check_cli(op: dict, exit_code: int, stdout: str) -> str | None:
    if exit_code != op["exit"]:
        return f"exit code {exit_code}, want {op['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    if op["exit"] != 0:
        return None if "error" in doc else "error document has no error field"
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}"
    argv = op["argv"]
    return CLI_CHECKS[argv[0]](op, argv, doc)


def _cli_factor(op, argv, doc):
    got = {
        "constant": doc["constant"],
        "m": doc["clearing_denominator"],
        "shift": doc["monomial_exponent"],
        "cyclotomic": [[c["index"], c["exponent"]] for c in doc["cyclotomic"]],
        "primes": [[_poly_coeffs(p["poly"]), p["exponent"]] for p in doc["primes"]],
    }
    return check_factor(op["expect"], got)


def _cli_divisors(op, argv, doc):
    divisors = [sorted(A.parse_element(t).items()) for t in doc["divisors"]]
    if doc["count"] != len(divisors):
        return "count field disagrees with the list"
    return check_divisors(op["expect"], divisors)


def _cli_count(op, argv, doc):
    want = divisor_count(op["expect"])
    return None if doc["count"] == want else f"count {doc['count']}, blocks give {want}"


def _cli_atom(op, argv, doc):
    want = divisor_count(op["expect"]) == 2
    return None if doc["atom"] == want else f"atom {doc['atom']}, blocks give {want}"


def _cli_cyclotomic(op, argv, doc):
    return check_phi(int(argv[1]), _poly_coeffs(doc["poly"]))


def _cli_totient_inv(op, argv, doc):
    want = A.inverse_totient_brute(int(argv[1]))
    return None if doc["indices"] == want else f"indices {doc['indices']}, sieve gives {want}"


def _monoid_literal(text: str) -> list[Fraction]:
    return [Fraction(g) for g in text.strip("<> ").split(",")]


def _cli_monoid_atoms(op, argv, doc):
    gens = _monoid_literal(argv[1])
    scale, ints = A.normalize_monoid(gens)
    want = sorted(Fraction(a) / scale for a in A.minimal_generators(ints))
    got = sorted(Fraction(a) for a in doc["atoms"])
    return None if got == want else f"atoms {doc['atoms']}, DP gives {want}"


def _cli_monoid_divisors(op, argv, doc):
    scale, ints = A.normalize_monoid(_monoid_literal(argv[1]))
    n = int(Fraction(argv[2]) * scale)
    member = A.reachable(ints, n)
    want = [Fraction(t) / scale for t in range(n + 1) if member[t] and member[n - t]]
    got = [Fraction(d) for d in doc["divisors"]]
    return None if got == want else "monoid divisors differ from the DP table"


def _cli_symsupp(op, argv, doc):
    support = set(A.parse_element(argv[1]))
    total = max(support) + min(support)
    want = all(total - s in support for s in support)
    return None if doc["symmetric"] == want else f"symmetric {doc['symmetric']}, want {want}"


def _cli_substitute(op, argv, doc):
    ratio = Fraction(argv[3])
    want = {e * ratio: c for e, c in A.parse_element(argv[1]).items()}
    return None if A.parse_element(doc["result"]) == want else "substituted exponents differ"


def _cli_lemma21(op, argv, doc):
    coeffs = _poly_coeffs(argv[1])
    n = len(coeffs) - 1
    field = argv[3] if len(argv) > 3 else None
    values = [(-1) ** k * coeffs[n - k] for k in range(n + 1)]
    if field:
        p = int(field[1:])
        values = [int(v) % p for v in values]
        rendered = [str(v) for v in values]
    else:
        rendered = [A.format_rat(v) for v in values]
    zero = [v == 0 for v in values]
    violations = [k for k in range(n + 1) if zero[k] and not zero[n - k]]
    if doc["e_vector"] != rendered:
        return f"e-vector {doc['e_vector']}, want {rendered}"
    if doc["violations"] != violations or doc["holds"] != (not violations):
        return f"violations {doc['violations']}, want {violations}"
    return None


CLI_CHECKS = {
    "factor": _cli_factor,
    "divisors": _cli_divisors,
    "count": _cli_count,
    "atom": _cli_atom,
    "cyclotomic": _cli_cyclotomic,
    "totient-inv": _cli_totient_inv,
    "monoid-atoms": _cli_monoid_atoms,
    "monoid-divisors": _cli_monoid_divisors,
    "symsupp": _cli_symsupp,
    "substitute": _cli_substitute,
    "lemma21": _cli_lemma21,
}


def is_known_failure(op: dict, answer) -> bool:
    """The one failure kept in the cli corpus, and only in its documented form:
    the negative cap accepted and reported as a resource limit (exit 3)."""
    if op.get("argv") != NEGATIVE_LIMIT or answer.get("exit") != 3:
        return False
    try:
        doc = json.loads(answer["stdout"])
    except ValueError:
        return False
    return doc.get("status") == "resource-limit" and "cap of -5" in str(doc.get("error"))


def check(op: dict, answer) -> str | None:
    """Dispatch on the op kind; ``answer`` is what the worker recorded."""
    if isinstance(answer, dict) and "exception" in answer:
        return f"raised {answer['exception']}"
    kind = op["kind"]
    if kind == "factor":
        return check_factor(op, answer)
    if kind == "phi":
        return check_phi(op["n"], answer)
    if kind == "divisors":
        return check_divisors(op, answer)
    return check_cli(op, answer["exit"], answer["stdout"])
