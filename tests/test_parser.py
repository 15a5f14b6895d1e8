"""Wire-format parsing and printing."""

import random
import string

from fractions import Fraction

import pytest

from puiseux import (
    ParseError,
    PuiseuxPoly,
    Rat,
    ResourceLimitError,
    format_monoid,
    format_poly,
    format_rat,
    parse_monoid,
    parse_poly,
    parse_rat,
)

from randgen import random_puiseux_poly
from reference import parse_monoid_by_tokens, parse_poly_by_tokens, parse_rat_by_tokens


def test_parse_poly_examples():
    f = parse_poly("X^(1/2) - 1")
    assert f.terms == ((Rat(0), -1), (Rat(1, 2), 1))
    assert parse_poly("X^3+X+2") == parse_poly("X^3 + X + 2")
    assert dict(parse_poly("3/2*X^2").terms)[2] == Rat(3, 2)
    assert parse_poly("0").is_zero
    assert parse_poly("X - X").is_zero
    assert parse_poly("3X") == parse_poly("3*X")  # the '*' is optional


def test_parse_poly_merges_like_terms():
    assert parse_poly("X + X") == parse_poly("2*X")
    assert parse_poly("2*X^(1/2) - X^(1/2)") == parse_poly("X^(1/2)")


def test_parse_poly_negative_exponent():
    with pytest.raises(ParseError) as err:
        parse_poly("X^(-1)")
    assert "negative exponent" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("X^-1")


def test_parse_poly_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse_poly("X^(1/0)")
    assert "zero denominator" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_poly("X + ?")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_poly("X^2 junk")
    assert err.value.offset > 0
    # str.isdigit accepts these Unicode digits; the grammar's uint is 0-9 only
    for text, offset in (("X^\u00b2", 2), ("\u0663*X", 0)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_poly(text)
        assert err.value.offset == offset
    # the end offset counts trailing whitespace, and a digit run stops at a space
    for parse, text, message, offset in (
        (parse_poly, "X + ", "expected a term", 4),
        (parse_poly, "1 2*X", "unexpected trailing input", 2),
        (parse_monoid, "< 2, -3 >", "generator must be positive", 5),
        (parse_poly, "X^(1/0) + 1", "zero denominator", 3),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert err.value.offset == offset


def test_parse_monoid_examples():
    assert parse_monoid("<2, 3>").generators == (2, 3)
    assert parse_monoid("<1/2, 2/3>").generators == (Rat(1, 2), Rat(2, 3))
    with pytest.raises(ParseError) as err:
        parse_monoid("<0>")
    assert "positive" in str(err.value)
    with pytest.raises(ParseError):
        parse_monoid("<2, -3>")
    with pytest.raises(ParseError):
        parse_monoid("<2")


def test_parse_rat():
    assert parse_rat("3/2") == Rat(3, 2)
    assert parse_rat("5") == 5
    with pytest.raises(ParseError):
        parse_rat("3/2 x")
    with pytest.raises(ParseError):
        parse_rat("1/0")


def test_format_examples():
    assert format_poly(parse_poly("X^(1/2) - 1")) == "X^(1/2) - 1"
    assert format_poly(PuiseuxPoly()) == "0"
    assert format_poly(parse_poly("3/2*X^2")) == "3/2*X^2"
    assert format_rat(Rat(3, 2)) == "3/2"
    assert format_rat(Rat(4)) == "4"
    assert format_monoid(parse_monoid("< 2,3 >")) == "<2, 3>"


def test_format_leading_negative_round_trips():
    f = parse_poly("0 - X")
    text = format_poly(f)
    assert parse_poly(text) == f
    g = PuiseuxPoly([(Rat(1, 2), -1), (0, -2)])
    assert parse_poly(format_poly(g)) == g


def test_round_trip_random():
    rng = random.Random(127)
    for _ in range(1000):
        f = random_puiseux_poly(rng, max_terms=6, max_den=8)
        assert parse_poly(format_poly(f)) == f


def test_format_is_deterministic():
    rng = random.Random(131)
    for _ in range(50):
        f = random_puiseux_poly(rng)
        assert format_poly(f) == format_poly(PuiseuxPoly(f.terms))


def test_parser_never_crashes_on_garbage():
    rng = random.Random(137)
    alphabet = string.printable + "Xé∞"
    for _ in range(800):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        for parse in (parse_poly, parse_monoid, parse_rat):
            try:
                parse(text)
            except ParseError:
                pass


def test_parser_rejects_structures_outside_grammar():
    for bad in ("X*X", "(X+1)", "X^X", "X^^2", "2**X", "", "+", "X+"):
        with pytest.raises(ParseError):
            parse_poly(bad)
    for bad in ("X^(1/-2)", "1/-2"):
        with pytest.raises(ParseError, match="denominator must be positive"):
            parse_poly(bad)
    with pytest.raises(ParseError, match="trailing input"):
        parse_monoid("<2,3> 5")


def test_numbers_past_the_digit_limit_are_resource_limits():
    # the interpreter converts between int and str up to a digit limit
    with pytest.raises(ResourceLimitError, match="digits"):
        parse_poly("1" * 5000 + "*X + 1")
    with pytest.raises(ResourceLimitError, match="digits"):
        parse_rat("1/" + "7" * 5000)
    huge = Rat(10**4000) * Rat(10**4000)
    with pytest.raises(ResourceLimitError, match="digits"):
        format_poly(PuiseuxPoly([(huge, 1)]))
    with pytest.raises(ResourceLimitError, match="digits"):
        format_rat(Fraction(1, 10**4000) ** 2)


# Whole grammar fragments make the strings reach every rule; the four
# characters outside the grammar stand for Unicode digits, letters and 'x'.
_DIFF_ALPHABET = "+-*/^()<>,X0123456789 \t\n\u00b2\u0663\u00e9x"
_DIFF_PIECES = tuple(_DIFF_ALPHABET) + (
    "X", "X^", "X^(", "(1/2)", "1/2", "3/4", "0", "12", "*X", " + ", " - ",
    "<", "<2, 3>", ", ", ">", "(-1)", "1/0", "/-",
)

_PARSE_MESSAGES = {
    "unexpected character",
    "unexpected trailing input",
    "expected a term",
    "expected a number",
    "expected a generator",
    "expected a rational number",
    "expected denominator",
    "expected an exponent",
    "expected an exponent numerator",
    "expected '/' in fractional exponent",
    "expected an exponent denominator",
    "expected 'X'",
    "expected ')'",
    "expected '<'",
    "expected '>'",
    "denominator must be positive",
    "zero denominator",
    "negative exponent is not allowed",
    "generator must be positive",
}


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except (ParseError, ResourceLimitError) as err:
        return type(err), str(err), getattr(err, "offset", None)


def test_parser_matches_the_token_parser():
    rng = random.Random(139)
    pairs = (
        (parse_poly, parse_poly_by_tokens),
        (parse_monoid, parse_monoid_by_tokens),
        (parse_rat, parse_rat_by_tokens),
    )
    parsed = [0, 0, 0]
    messages = set()
    for _ in range(50_000):
        n = rng.randint(0, 14)
        text = ""
        while len(text) < n:
            text += rng.choice(_DIFF_PIECES)
        text = text[:n]
        for k, (parse, oracle) in enumerate(pairs):
            got = _outcome(parse, text)
            assert got == _outcome(oracle, text), (parse.__name__, text)
            if got[0] == "ok":
                parsed[k] += 1
            else:
                message = got[1].rsplit(" (at offset", 1)[0]
                if message.startswith("unexpected character"):
                    message = "unexpected character"
                messages.add(message)
    # the strings are not vacuous: each entry point accepts some, and every
    # error message of the grammar is reached
    assert min(parsed) >= 50, parsed
    assert messages == _PARSE_MESSAGES, sorted(messages ^ _PARSE_MESSAGES)
