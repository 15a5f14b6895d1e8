"""A seeded fuzz of the command line: every argv ends in a status, in bounded time.

The argv vectors mix the wire grammar's fragments, extreme integers and
malformed text over all eleven subcommands, and run in-process through
``run_command`` under a per-call alarm.  Each must end in exit 0, 1, 2 or 3
with no exception escaping, and under ``--json`` print a JSON document.
"""

import json
import random
import signal

from puiseux.cli import run_command

CALLS = 1000
ALARM_S = 5

# Inputs that once hung or that sit at a cap, run first.
SEED_CORPUS = [
    ["factor", "X^120+566292", "--json"],  # 39 modular factors mod 7
    ["count", "X^65537-1", "--monoid", "<1>"],  # a binomial past the dense degree cap
    ["divisors", "X^131072-1", "--monoid", "<1>"],  # 2^18 divisors too large to build
    ["factor", "X^2000+X+1", "--json"],
    ["factor", "X^3000000+X+1"],
    ["divisors", "X^3000000-1", "--monoid", "<1>", "--json"],
    ["totient-inv", "963761198400", "--json"],
    ["monoid-atoms", "<100000007,100000037>"],
    ["cyclotomic", "1" * 5000, "--json"],
    ["factor", "-h"],  # help is a result, never an exit of the process
]

EXTREME = [
    "0", "1", "2", "6", "60", "65536", "65537", "2147483647", "2147483648",
    "4294967297", str(10**18), str(2**64 + 1), "9" * 40, "1" * 5000,
]
JUNK = list("+-*/^()<>,X ") + ["", "²", "٣", "é", "\x00", "1_2", "--", "-x"]
COMMANDS = [
    "factor", "symsupp", "divisors", "atom", "count", "cyclotomic", "totient-inv",
    "lemma21", "monoid-atoms", "monoid-divisors", "substitute",
]


def _uint(rng: random.Random) -> str:
    return rng.choice(EXTREME) if rng.random() < 0.05 else str(rng.randint(0, 12))


def _rat(rng: random.Random) -> str:
    return _uint(rng) + (f"/{_uint(rng)}" if rng.random() < 0.3 else "")


def _poly(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = rng.choice(["", "-", ""]) + _rat(rng)
        expo = rng.choice(["", f"^{_uint(rng)}", f"^({_uint(rng)}/{_uint(rng)})"])
        terms.append(rng.choice([coeff, f"{coeff}*X{expo}", f"X{expo}", f"{coeff}X{expo}"]))
    return rng.choice(["+", "-", " + "]).join(terms)


def _monoid(rng: random.Random) -> str:
    return "<" + ", ".join(_rat(rng) for _ in range(rng.randint(1, 3))) + ">"


def _mangle(rng: random.Random, text: str) -> str:
    """text with one character dropped, inserted or replaced, or cut short."""
    i = rng.randint(0, len(text))
    junk = rng.choice(JUNK)
    return rng.choice([text[:i] + text[i + 1 :], text[:i] + junk + text[i:], text[:i] + junk, text[:i]])


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(COMMANDS)
    if command in ("factor", "symsupp"):
        argv = [command, _poly(rng)]
    elif command in ("divisors", "atom", "count"):
        argv = [command, _poly(rng), "--monoid", _monoid(rng)]
        if rng.random() < 0.3:
            argv += ["--limit", rng.choice(["-5", "0", "3", _uint(rng)])]
    elif command in ("cyclotomic", "totient-inv"):
        argv = [command, rng.choice([_uint(rng), "-" + _uint(rng)])]
    elif command == "lemma21":
        argv = [command, _poly(rng)]
        if rng.random() < 0.5:
            argv += ["--field", "F" + rng.choice(["2", "3", "7", "4", _uint(rng)])]
    elif command == "monoid-atoms":
        argv = [command, _monoid(rng)]
    elif command == "monoid-divisors":
        argv = [command, _monoid(rng), _rat(rng)]
    else:
        argv = [command, _poly(rng), "--by", _rat(rng)]
    if rng.random() < 0.25:
        i = rng.randrange(len(argv))
        argv[i] = _mangle(rng, argv[i])
    if rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.5:
        argv.append("--json")
    return argv


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def test_cli_fuzz_ends_every_call_in_a_status():
    rng = random.Random(20261019)
    corpus = SEED_CORPUS + [_argv(rng) for _ in range(CALLS - len(SEED_CORPUS))]
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for argv in corpus:
            signal.alarm(ALARM_S)
            try:
                result = run_command(argv)
            except _Timeout:
                raise AssertionError(f"no status within {ALARM_S} s: {argv}") from None
            finally:
                signal.alarm(0)
            assert result.exit_code in (0, 1, 2, 3), argv
            if "--json" in argv:
                assert json.loads(result.text)["status"] == result.status, argv
    finally:
        signal.signal(signal.SIGALRM, previous)
