"""Bidirectional text format for polynomials, rationals, and monoid literals.

Grammar, read one character at a time with one character of lookahead::

    poly   :=  term (('+' | '-') term)*
    term   :=  coeff | coeff '*'? mono | mono
    mono   :=  'X' ('^' expo)?
    expo   :=  uint | '(' uint '/' uint ')'
    coeff  :=  ['-'] uint ('/' uint)?
    monoid :=  '<' rat (',' rat)* '>'
    rat    :=  uint ('/' uint)?

A ``uint`` is a run of the ASCII digits 0-9.  Whitespace may stand
anywhere except inside a ``uint``.  A character that is not an ASCII digit,
whitespace or one of ``+-*/^()<>,X`` is reported before any syntax error.
Fractional exponents require parentheses ("X^(1/2)"), keeping '^' and '/'
unambiguous.  Output renders terms in descending exponent order and
round-trips through the parser bit-exactly.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError, ResourceLimitError
from .exact import Rat
from .monoid import PuiseuxMonoid
from .ppoly import PuiseuxPoly


class _Parser:
    """Recursive descent over the characters; the grammar is LL(1).  The
    lookahead ``ch`` is the next non-whitespace character (``''`` at the
    end) and ``pos`` its offset."""

    def __init__(self, text: str):
        for i, ch in enumerate(text):
            if ch not in "+-*/^()<>,X" and not "0" <= ch <= "9" and not ch.isspace():
                raise ParseError(f"unexpected character {ch!r}", i)
        self.text = text
        self.pos = 0
        self.skip()

    def skip(self) -> None:
        text, i = self.text, self.pos
        while i < len(text) and text[i].isspace():
            i += 1
        self.pos = i
        self.ch = text[i] if i < len(text) else ""

    def advance(self) -> str:
        ch = self.ch
        self.pos += 1
        self.skip()
        return ch

    def expect(self, ch: str, what: str) -> None:
        if self.ch != ch:
            raise ParseError(f"expected {what}", self.pos)
        self.advance()

    def end(self) -> None:
        if self.ch:
            raise ParseError("unexpected trailing input", self.pos)

    # -- shared pieces ----------------------------------------------------

    def uint(self, what: str) -> int:
        text, start = self.text, self.pos
        i = start
        while i < len(text) and "0" <= text[i] <= "9":
            i += 1
        if i == start:
            raise ParseError(f"expected {what}", start)
        self.pos = i
        self.skip()
        try:
            return int(text[start:i])
        except ValueError:
            # an ASCII digit run fails only past the interpreter's digit limit
            raise _digit_limit_error() from None

    def rational(self, what: str, slash: str = "", denominator: str = "denominator") -> Fraction:
        """Read ``uint ('/' uint)?``; naming the ``slash`` makes it required."""
        start = self.pos
        num = self.uint(what)
        if self.ch == "/":
            self.advance()
        elif slash:
            raise ParseError(f"expected {slash}", self.pos)
        else:
            return Fraction(num)
        if self.ch == "-":
            raise ParseError("denominator must be positive", self.pos)
        den = self.uint(denominator)
        if den == 0:
            raise ParseError("zero denominator", start)
        return Fraction(num, den)

    def coefficient(self) -> Fraction:
        sign = 1
        if self.ch == "-":
            self.advance()
            sign = -1
        return sign * self.rational("a number")

    def exponent(self) -> Rat:
        fractional = self.ch == "("
        if fractional:
            self.advance()
        if self.ch == "-":
            raise ParseError("negative exponent is not allowed", self.pos)
        if not fractional:
            return Rat(self.uint("an exponent"))
        value = self.rational(
            "an exponent numerator", "'/' in fractional exponent", "an exponent denominator"
        )
        self.expect(")", "')'")
        return Rat(value)

    # -- polynomials --------------------------------------------------------

    def mono_exponent(self) -> Rat:
        self.expect("X", "'X'")
        if self.ch == "^":
            self.advance()
            return self.exponent()
        return Rat(1)

    def term(self) -> tuple[Rat, Fraction]:
        if self.ch == "X":
            return self.mono_exponent(), Fraction(1)
        if self.ch != "-" and not "0" <= self.ch <= "9":
            raise ParseError("expected a term", self.pos)
        coeff = self.coefficient()
        if self.ch == "*":
            self.advance()
        elif self.ch != "X":
            return Rat(0), coeff
        return self.mono_exponent(), coeff

    def poly(self) -> PuiseuxPoly:
        terms = [self.term()]
        while self.ch in ("+", "-"):
            sign = 1 if self.advance() == "+" else -1
            exponent, coeff = self.term()
            terms.append((exponent, sign * coeff))
        self.end()
        return PuiseuxPoly(terms)

    # -- monoid literals -----------------------------------------------------

    def generator(self) -> Rat:
        start = self.pos
        if self.ch != "-":
            value = self.rational("a generator")
            if value:
                return Rat(value)
        raise ParseError("generator must be positive", start)

    def monoid(self) -> PuiseuxMonoid:
        self.expect("<", "'<'")
        gens = [self.generator()]
        while self.ch == ",":
            self.advance()
            gens.append(self.generator())
        self.expect(">", "'>'")
        self.end()
        return PuiseuxMonoid(gens)


def parse_poly(text: str) -> PuiseuxPoly:
    """Parse the wire format into a canonical element; merges like terms.

    >>> parse_poly("X^(1/2) - 1").terms
    ((Rat(0, 1), Fraction(-1, 1)), (Rat(1, 2), Fraction(1, 1)))
    """
    return _Parser(text).poly()


def parse_monoid(text: str) -> PuiseuxMonoid:
    """Parse a monoid literal like ``"<1/2, 2/3>"``."""
    return _Parser(text).monoid()


def parse_rat(text: str) -> Rat:
    """Parse a bare non-negative rational ``"a/b"`` or ``"a"``."""
    parser = _Parser(text)
    value = parser.rational("a rational number")
    parser.end()
    return Rat(value)


def _digit_limit_error() -> ResourceLimitError:
    limit = sys.get_int_max_str_digits()
    return ResourceLimitError(f"a number of more than {limit} digits exceeds the conversion cap")


def _str(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:
        # str of a rational fails only past the interpreter's digit limit
        raise _digit_limit_error() from None


def format_rat(value: Fraction) -> str:
    """Render ``a/b``, omitting ``/1``; round-trips through :func:`parse_rat`."""
    return _str(Fraction(value))


def _format_exponent(e: Rat) -> str:
    if e.denominator == 1:
        return f"X^{_str(e)}" if e != 1 else "X"
    return f"X^({_str(e)})"


def format_poly(f: PuiseuxPoly) -> str:
    """Canonical rendering in descending exponent order.

    ``parse_poly(format_poly(f)) == f`` for every element; the output is
    stable across runs.
    """
    if f.is_zero:
        return "0"
    parts = []
    for exponent, coeff in reversed(f.terms):
        magnitude = abs(coeff)
        if exponent == 0:
            body = format_rat(magnitude)
        elif magnitude == 1:
            body = _format_exponent(exponent)
        else:
            body = f"{format_rat(magnitude)}*{_format_exponent(exponent)}"
        if not parts:
            if coeff < 0:
                # A leading negative monomial needs an explicit coefficient:
                # the grammar has no unary minus in front of bare 'X'.
                if exponent != 0 and magnitude == 1:
                    body = f"-1*{_format_exponent(exponent)}"
                else:
                    body = f"-{body}"
            parts.append(body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def format_monoid(monoid: PuiseuxMonoid) -> str:
    """Render ``<g1, g2, ...>``; round-trips through :func:`parse_monoid`."""
    return "<" + ", ".join(format_rat(g) for g in monoid.generators) + ">"
