"""A census of small hard inputs: how many are answered, each under an alarm.

The inputs are binomials X^n + c, two shifted binomials (X + 1)^n + 566292
given expanded (the wire format has no parentheses), and two atom tests
whose cores are binomials of degree 171 and 342.  Each runs in-process under
its own ``signal.alarm``.  An input is answered when it returns the known
answer; a ResourceLimitError or the alarm leaves it unanswered.  The count
of answered inputs may not fall below FLOOR; a change that answers more
raises FLOOR with it.
"""

import math
import signal
import time
from fractions import Fraction

import pytest

from puiseux import (
    PuiseuxPoly,
    QPoly,
    ResourceLimitError,
    canonical_factorization,
    is_atom_in_algebra,
    parse_monoid,
    parse_poly,
)

FLOOR = 185
ALARM_S = 2
CS = (2, 3, 6, 12, 30, 566292)


def _irreducible(f: PuiseuxPoly):
    """A check that f, monic in Z[X], factors as itself alone."""
    expected = ((QPoly.from_ints(Fraction(1), list(f.to_qpoly().prim)), 1),)

    def run():
        cf = canonical_factorization(f)
        return cf.cyclotomic_part == () and cf.prime_part == expected

    return run


def _binomial(n: int, c: int) -> PuiseuxPoly:
    return PuiseuxPoly([(n, 1), (0, c)])


def _shifted(n: int, c: int) -> PuiseuxPoly:
    """(X + 1)^n + c, expanded."""
    coeffs = [math.comb(n, i) for i in range(n + 1)]
    coeffs[0] += c
    return PuiseuxPoly.from_qpoly(QPoly(coeffs), 1)


def _atom(text: str):
    f, S = parse_poly(text), parse_monoid("<13/9, 10/19, 7/14>")
    return lambda: is_atom_in_algebra(f, S) is True


CENSUS = (
    [(f"X^{n}+{c}", _irreducible(_binomial(n, c))) for n in range(20, 301, 20) for c in CS]
    + [(f"X^{n}+{c}", _irreducible(_binomial(n, c))) for n in range(15, 296, 20) for c in CS]
    + [("X^105+566292 (again, alone)", _irreducible(_binomial(105, 566292)))]
    + [(f"(X+1)^{n}+566292", _irreducible(_shifted(n, 566292))) for n in (60, 120)]
    + [(f'atom "{t}" in <13/9, 10/19, 7/14>', _atom(t)) for t in ("X+5", "X+6")]
)


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _status(run) -> str:
    signal.alarm(ALARM_S)
    try:
        return "answered" if run() else "wrong"
    except ResourceLimitError:
        return "refused"
    except _Timeout:
        return "timeout"
    finally:
        signal.alarm(0)


def test_census_answers_at_least_the_floor():
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        statuses = {name: _status(run) for name, run in CENSUS}
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    assert len(CENSUS) == 185
    assert "wrong" not in statuses.values(), statuses
    answered = sum(status == "answered" for status in statuses.values())
    assert answered >= FLOOR, {name: s for name, s in statuses.items() if s != "answered"}
    assert elapsed < 5.0


@pytest.mark.parametrize("n", [60, 120])
def test_shifted_census_inputs_are_the_expanded_shifts(n):
    f = _shifted(n, 566292).to_qpoly().prim
    assert f[0] == 566293 and f[1] == n and f[-1] == 1 and len(f) == n + 1
