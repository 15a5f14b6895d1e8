"""Batch command-line interface.

Every invocation reads its inputs from argv, writes one human-readable or
JSON document to stdout, and exits with 0 (ok), 1 (math domain error),
2 (parse or usage error), or 3 (resource limit).  Rational numbers inside
JSON payloads are serialized as strings "a/b" to stay exact.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
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


def _integer(text: str) -> int:
    """An optional '-' and ASCII digits, as the wire format writes integers.

    A number past the interpreter's int/str digit limit is a resource limit,
    as in the grammar; any other text is a usage error of the argument.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:
            raise _digit_limit_error() from None
    raise ValueError(f"expected an integer in ASCII digits, got {text!r}")


def _parse_field(spec: str) -> int:
    try:
        if spec.startswith("F"):
            return _integer(spec[1:])
    except ValueError:
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
    # looked up per call, so a replaced query function is the one that runs
    query = {"divisors": divisors_in_algebra, "atom": is_atom_in_algebra, "count": ff_divisor_count}
    answer = query[args.command](f, monoid, limit=args.limit)
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


# One row per command: its handler, a one-line summary, its positionals as
# (name, converter) and its long options as (name, converter, default,
# required, help).  Every command also takes the flags -h/--help and --json.
_POLY, _LITERAL = (("poly", str),), (("monoid_literal", str),)
_IN_ALGEBRA = (
    ("monoid", str, None, True, 'monoid literal, e.g. "<2, 3>"'),
    ("limit", _limit, DEFAULT_DIVISOR_LIMIT, False, "candidate-combination cap"),
)
_FIELD = (("field", str, None, False, "prime field such as F2 (default: Q)"),)
_BY = (("by", str, None, True, "positive rational ratio, e.g. 1/2"),)
_COMMANDS = {
    "factor": (_cmd_factor, "canonical monomial/cyclotomic/prime factorization", _POLY, ()),
    "symsupp": (_cmd_symsupp, "decide symmetric support", _POLY, ()),
    "divisors": (_cmd_in_algebra, "list all non-associate divisors in Q[S]", _POLY, _IN_ALGEBRA),
    "atom": (_cmd_in_algebra, "decide atomicity in Q[S]", _POLY, _IN_ALGEBRA),
    "count": (_cmd_in_algebra, "count non-associate divisors in Q[S]", _POLY, _IN_ALGEBRA),
    "cyclotomic": (_cmd_cyclotomic, "print the n-th cyclotomic polynomial", (("index", _integer),), ()),
    "totient-inv": (_cmd_totient_inv, "all n with phi(n) = d", (("value", _integer),), ()),
    "lemma21": (_cmd_lemma21, "elementary symmetric values and vanishing check", _POLY, _FIELD),
    "monoid-atoms": (_cmd_monoid_atoms, "minimal generating set of a monoid", _LITERAL, ()),
    "monoid-divisors": (
        _cmd_monoid_divisors, "divisors of an element in a monoid", (*_LITERAL, ("element", str)), ()
    ),
    "substitute": (_cmd_substitute, "scale every exponent by a positive rational", _POLY, _BY),
}
_USAGE = "usage: puiseux [-h] command ..."


def _usage(name: str) -> str:
    _, _, positionals, options = _COMMANDS[name]
    flags = (f"--{key} {key.upper()}" if required else f"[--{key} {key.upper()}]"
             for key, _, _, required, _ in options)
    return " ".join([f"usage: puiseux {name} [-h] [--json]", *flags, *(key for key, _ in positionals)])


def _help(name: str | None) -> str:
    """The -h text of one command, or of the program when name is None."""
    if name is None:
        head = [_USAGE, "", __doc__.strip(), "", "commands:"]
        rows = [(command, row[1]) for command, row in _COMMANDS.items()]
    else:
        _, summary, positionals, options = _COMMANDS[name]
        head = [_usage(name), "", summary, "", "arguments:"]
        rows = [(key, "") for key, _ in positionals]
        rows += [(f"--{key} {key.upper()}", text) for key, _, _, _, text in options]
        rows.append(("--json", "emit a JSON document"))
    rows.append(("-h, --help", "show this help text"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join(head + [f"  {left:{width}}{right}".rstrip() for left, right in rows])


def _read(argv: list[str]) -> SimpleNamespace | str:
    """Read argv by the command table: the handler's arguments, or the -h text.

    An option takes its value as the next token or after '=' and may be cut
    to a prefix (no option name is a prefix of another); '--' ends them.  A
    token that starts with a single '-', other than -h, is a positional, so
    "-2*X^3+1" is a polynomial.  Tokens are read in order, so an error before
    -h wins.  Usage errors are worded as argparse words them.
    """
    usage, row, ended, args, unknown, tokens = _USAGE, None, False, {"json": False}, [], iter(argv)
    names, wanted, options = ("help",), [], {}

    def fail(message: str):
        raise _UsageError(f"{usage}\nerror: {message}")

    def convert(function, text: str, label: str):
        try:
            return function(text)
        except ValueError as exc:
            fail(f"argument {label}: {exc}")

    for token in tokens:
        if token == "--" and not ended:
            ended = True
        elif ended or token != "-h" and not token.startswith("--"):
            if row is None:
                if token not in _COMMANDS:
                    choices = ", ".join(map(repr, _COMMANDS))
                    fail(f"argument command: invalid choice: {token!r} (choose from {choices})")
                row, usage = _COMMANDS[token], _usage(token)
                wanted, options = list(row[2]), {option[0]: option for option in row[3]}
                names = ("help", "json", *options)
                args.update(command=token, handler=row[0])
                args.update((key, option[2]) for key, option in options.items())
            elif wanted:
                key, function = wanted.pop(0)
                args[key] = convert(function, token, key)
            else:
                unknown.append(token)
        else:
            key, eq, value = ("--help" if token == "-h" else token)[2:].partition("=")
            matches = [name for name in names if name.startswith(key)]
            if len(matches) != 1:
                unknown.append(token)
            elif matches[0] in ("help", "json"):
                if eq:
                    label = "-h/--help" if matches[0] == "help" else "--json"
                    fail(f"argument {label}: ignored explicit argument {value!r}")
                if matches[0] == "help":
                    return _help(args.get("command"))
                args["json"] = True
            else:
                key = matches[0]
                if not eq:
                    value = next(tokens, "--")
                    if value == "-h" or value.startswith("--"):
                        fail(f"argument --{key}: expected one argument")
                args[key] = convert(options[key][1], value, f"--{key}")
    if row is None:
        fail("the following arguments are required: command")
    missing = [key for key, _ in wanted]
    missing += [f"--{key}" for key, _, _, required, _ in row[3] if required and args[key] is None]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    if unknown:
        usage = _USAGE
        fail("unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(**args)


def run_command(argv: list[str]) -> CommandResult:
    """Dispatch one argv vector; never raises for expected error classes."""
    # Until the whole argv has been read, the raw flag decides the output form.
    as_json = "--json" in argv

    def finish(status: str, payload: dict | None, text: str) -> CommandResult:
        if as_json:
            document = {"status": status, **(payload or {})}
            return CommandResult(status, payload, json.dumps(document, sort_keys=True, indent=2))
        return CommandResult(status, payload, text)

    try:
        args = _read(argv)
        if isinstance(args, str):
            return finish("ok", {"help": args}, args)
        as_json = args.json
        payload, text = args.handler(args)
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
