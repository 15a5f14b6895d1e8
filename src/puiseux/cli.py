"""Batch command-line interface.

Every invocation reads its inputs from argv, writes one human-readable or
JSON document to stdout, and exits with 0 (ok), 1 (math domain error),
2 (parse or usage error), or 3 (resource limit).  Rational numbers inside
JSON payloads are serialized as strings "a/b" to stay exact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .cyclotomic import (
    cyclotomic_poly,
    elementary_symmetric,
    inverse_totient,
    reciprocal_vanishing_check,
)
from .engine import (
    DEFAULT_DIVISOR_LIMIT,
    canonical_factorization,
    divisors_in_algebra,
    ff_divisor_count,
    is_atom_in_algebra,
)
from .errors import DomainError, ParseError, ResourceLimitError
from .textform import (
    _digit_limit_error,
    format_monoid,
    format_poly,
    format_rat,
    parse_monoid,
    parse_poly,
    parse_rat,
)

_EXIT_CODES = {
    "ok": 0,
    "math-domain-error": 1,
    "parse-error": 2,
    "resource-limit": 3,
}


class CommandResult(NamedTuple):
    """Outcome of one CLI invocation."""

    status: str
    payload: dict | None
    text: str

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


class _UsageError(Exception):
    pass


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")

    def print_help(self, file=None):
        # -h hands the text back to run_command instead of printing and exiting.
        raise _Help(self.format_help().rstrip("\n"))


def _integer(text: str) -> int:
    """An optional '-' and ASCII digits, as the wire format writes integers.

    A number past the interpreter's int/str digit limit is a resource limit,
    as in the grammar; argparse lets a ``ResourceLimitError`` through.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:
            raise _digit_limit_error() from None
    raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")


def _parse_field(spec: str) -> int:
    try:
        if spec.startswith("F"):
            return _integer(spec[1:])
    except argparse.ArgumentTypeError:
        pass
    raise _UsageError(f"field must look like F2, F3, ... (got {spec!r})")


def _limit(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise _UsageError(f"--limit must not be negative (got {value})")
    return value


# -- command handlers: each returns (payload, human-readable text) ----------


def _cmd_factor(args):
    f = parse_poly(args.poly)
    cf = canonical_factorization(f)
    m = cf.clearing_denominator
    payload = {
        "input": format_poly(f),
        "constant": format_rat(cf.constant),
        "clearing_denominator": m,
        "monomial_exponent": format_rat(cf.monomial_exponent),
        "cyclotomic": [{"index": n, "exponent": e} for n, e in cf.cyclotomic_part],
        "primes": [{"poly": str(q), "exponent": l} for q, l in cf.prime_part],
    }
    inner = f"(X^(1/{m}))" if m > 1 else ""
    cyclo_list = ", ".join(
        f"Phi_{n}{inner}" + (f"^{e}" if e > 1 else "") for n, e in cf.cyclotomic_part
    )
    prime_list = ", ".join(
        f"[{q['poly']}]{inner}" + (f"^{q['exponent']}" if q["exponent"] > 1 else "")
        for q in payload["primes"]
    )
    lines = [
        f"input: {payload['input']}",
        f"constant: {payload['constant']}",
        f"clearing denominator m: {m}",
        f"monomial exponent: {payload['monomial_exponent']}",
        f"cyclotomic components: {cyclo_list or '(none)'}",
        f"prime components: {prime_list or '(none)'}",
    ]
    return payload, "\n".join(lines)


def _cmd_symsupp(args):
    f = parse_poly(args.poly)
    verdict = f.is_symmetric_support()
    payload = {
        "input": format_poly(f),
        "support": [format_rat(s) for s in sorted(f.support)],
        "symmetric": verdict,
    }
    text = f"support: {{{', '.join(payload['support'])}}}\nsymmetric support: {str(verdict).lower()}"
    return payload, text


def _cmd_in_algebra(args):
    """divisors, count and atom: parse f, then S, and run the command's query."""
    f = parse_poly(args.poly)
    monoid = parse_monoid(args.monoid)
    answer = args.query(f, monoid, limit=args.limit)
    element, algebra = format_poly(f), format_monoid(monoid)
    payload = {"element": element, "monoid": algebra}
    if args.command == "divisors":
        listed = [format_poly(g) for g in answer.divisors]
        payload.update(count=len(listed), divisors=listed)
        head = f"{len(listed)} non-associate divisors of {element} in Q[{algebra}]:"
        return payload, "\n".join([head, *("  " + s for s in listed)])
    if args.command == "atom":
        payload["atom"] = answer
        return payload, f"atom in Q[{algebra}]: {str(answer).lower()}"
    payload["count"] = answer
    return payload, str(answer)


def _cmd_cyclotomic(args):
    text = str(cyclotomic_poly(args.index))
    payload = {"index": args.index, "poly": text}
    return payload, text


def _cmd_totient_inv(args):
    hits = sorted(inverse_totient(args.value))
    payload = {"value": args.value, "indices": hits}
    return payload, " ".join(map(str, hits)) if hits else "(none)"


def _cmd_lemma21(args):
    f = parse_poly(args.poly)
    p = None if args.field is None else _parse_field(args.field)
    poly = f.to_qpoly()
    # str of a Fraction is format_rat's text, and of an F_p residue its value
    rendered = [str(v) for v in elementary_symmetric(poly, p)]
    report = reciprocal_vanishing_check(poly, p)
    payload = {
        "input": format_poly(f),
        "field": args.field or "Q",
        "e_vector": rendered,
        "holds": report.holds,
        "violations": list(report.witnesses),
    }
    lines = [
        f"e-vector: ({', '.join(rendered)})",
        f"holds: {str(report.holds).lower()}",
    ]
    if report.witnesses:
        lines.append(
            "violations: " + ", ".join(f"k={k}" for k in report.witnesses)
        )
    return payload, "\n".join(lines)


def _cmd_monoid_atoms(args):
    monoid = parse_monoid(args.monoid_literal)
    atoms = monoid.atoms()
    payload = {
        "monoid": format_monoid(monoid),
        "atoms": [format_rat(a) for a in atoms],
    }
    return payload, " ".join(payload["atoms"])


def _cmd_monoid_divisors(args):
    monoid = parse_monoid(args.monoid_literal)
    element = parse_rat(args.element)
    divisors = monoid.divisors_of(element)
    payload = {
        "monoid": format_monoid(monoid),
        "element": format_rat(element),
        "divisors": [format_rat(d) for d in divisors],
    }
    return payload, " ".join(payload["divisors"])


def _cmd_substitute(args):
    f = parse_poly(args.poly)
    ratio = parse_rat(args.by)
    result = f.substitute(ratio)
    payload = {
        "input": format_poly(f),
        "by": format_rat(ratio),
        "result": format_poly(result),
    }
    return payload, payload["result"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="puiseux", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        return p

    p = add("factor", _cmd_factor, "canonical monomial/cyclotomic/prime factorization")
    p.add_argument("poly")
    p = add("symsupp", _cmd_symsupp, "decide symmetric support")
    p.add_argument("poly")
    for name, query, summary in (
        ("divisors", divisors_in_algebra, "list all non-associate divisors in Q[S]"),
        ("atom", is_atom_in_algebra, "decide atomicity in Q[S]"),
        ("count", ff_divisor_count, "count non-associate divisors in Q[S]"),
    ):
        p = add(name, _cmd_in_algebra, summary)
        p.set_defaults(query=query)
        p.add_argument("poly")
        p.add_argument("--monoid", required=True, help='monoid literal, e.g. "<2, 3>"')
        p.add_argument(
            "--limit", type=_limit, default=DEFAULT_DIVISOR_LIMIT,
            help="candidate-combination cap",
        )
    p = add("cyclotomic", _cmd_cyclotomic, "print the n-th cyclotomic polynomial")
    p.add_argument("index", type=_integer)
    p = add("totient-inv", _cmd_totient_inv, "all n with phi(n) = d")
    p.add_argument("value", type=_integer)
    p = add("lemma21", _cmd_lemma21, "elementary symmetric values and vanishing check")
    p.add_argument("poly")
    p.add_argument("--field", help="prime field such as F2 (default: Q)")
    p = add("monoid-atoms", _cmd_monoid_atoms, "minimal generating set of a monoid")
    p.add_argument("monoid_literal")
    p = add("monoid-divisors", _cmd_monoid_divisors, "divisors of an element in a monoid")
    p.add_argument("monoid_literal")
    p.add_argument("element")
    p = add("substitute", _cmd_substitute, "scale every exponent by a positive rational")
    p.add_argument("poly")
    p.add_argument("--by", required=True, help="positive rational ratio, e.g. 1/2")
    return parser


def run_command(argv: list[str]) -> CommandResult:
    """Dispatch one argv vector; never raises for expected error classes."""
    # Until argparse has read argv, the raw flag decides the output form.
    as_json = "--json" in argv

    def finish(status: str, payload: dict | None, text: str) -> CommandResult:
        if as_json:
            document = {"status": status, **(payload or {})}
            return CommandResult(status, payload, json.dumps(document, sort_keys=True, indent=2))
        return CommandResult(status, payload, text)

    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        payload, text = args.handler(args)
    except _Help as exc:
        return finish("ok", {"help": str(exc)}, str(exc))
    except ParseError as exc:
        return finish("parse-error", {"error": str(exc)}, f"parse error: {exc}")
    except _UsageError as exc:
        return finish("parse-error", {"error": str(exc)}, str(exc))
    except DomainError as exc:
        return finish("math-domain-error", {"error": str(exc)}, f"domain error: {exc}")
    except ResourceLimitError as exc:
        return finish("resource-limit", {"error": str(exc)}, f"resource limit: {exc}")
    except (MemoryError, RecursionError) as exc:
        # The interpreter ran out of memory or stack: a resource limit, not
        # a domain error and never a traceback.
        error = str(exc) or type(exc).__name__
        return finish("resource-limit", {"error": error}, f"resource limit: {error}")
    return finish("ok", {"command": args.command, **payload}, text)


def main(argv: list[str] | None = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    try:
        print(result.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left.  Python flushes stdout again at exit, so point it
        # at /dev/null, as the signal module's documentation advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
