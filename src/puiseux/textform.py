"""Bidirectional text format for polynomials, rationals, and monoid literals.

Grammar (whitespace-insensitive between tokens)::

    poly   :=  term (('+' | '-') term)*
    term   :=  coeff | coeff '*'? mono | mono
    mono   :=  'X' ('^' expo)?
    expo   :=  uint | '(' uint '/' uint ')'
    coeff  :=  ['-'] uint ('/' uint)?
    monoid :=  '<' rat (',' rat)* '>'
    rat    :=  uint ('/' uint)?

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

class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()<>,X":
            # a one-character token's kind is the character itself
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    """Recursive descent with single-token lookahead; the grammar is LL(1)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            raise ParseError(f"expected {what}", self.current.offset)
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind == "END"

    # -- shared pieces ----------------------------------------------------

    def uint(self, what: str) -> int:
        tok = self.expect("INT", what)
        try:
            return int(tok.text)
        except ValueError:
            # an ASCII digit run fails only past the interpreter's digit limit
            raise _digit_limit_error() from None

    def unsigned_rational(self, what: str) -> Fraction:
        start = self.current.offset
        num = self.uint(what)
        if self.current.kind == "/":
            self.advance()
            if self.current.kind == "-":
                raise ParseError("denominator must be positive", self.current.offset)
            den = self.uint("denominator")
            if den == 0:
                raise ParseError("zero denominator", start)
            return Fraction(num, den)
        return Fraction(num)

    def coefficient(self) -> Fraction:
        sign = 1
        if self.current.kind == "-":
            self.advance()
            sign = -1
        return sign * self.unsigned_rational("a number")

    def exponent(self) -> Rat:
        tok = self.current
        if tok.kind == "-":
            raise ParseError("negative exponent is not allowed", tok.offset)
        if tok.kind == "INT":
            return Rat(self.uint("an exponent"))
        if tok.kind == "(":
            self.advance()
            if self.current.kind == "-":
                raise ParseError(
                    "negative exponent is not allowed", self.current.offset
                )
            start = self.current.offset
            num = self.uint("an exponent numerator")
            self.expect("/", "'/' in fractional exponent")
            if self.current.kind == "-":
                raise ParseError("denominator must be positive", self.current.offset)
            den = self.uint("an exponent denominator")
            if den == 0:
                raise ParseError("zero denominator", start)
            self.expect(")", "')'")
            return Rat(num, den)
        raise ParseError("expected an exponent", tok.offset)

    # -- polynomials --------------------------------------------------------

    def mono_exponent(self) -> Rat:
        self.expect("X", "'X'")
        if self.current.kind == "^":
            self.advance()
            return self.exponent()
        return Rat(1)

    def term(self) -> tuple[Rat, Fraction]:
        tok = self.current
        if tok.kind == "X":
            return self.mono_exponent(), Fraction(1)
        if tok.kind in ("INT", "-"):
            coeff = self.coefficient()
            if self.current.kind == "*":
                self.advance()
                return self.mono_exponent(), coeff
            if self.current.kind == "X":
                return self.mono_exponent(), coeff
            return Rat(0), coeff
        raise ParseError("expected a term", tok.offset)

    def poly(self) -> PuiseuxPoly:
        terms = [self.term()]
        while self.current.kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            exponent, coeff = self.term()
            terms.append((exponent, sign * coeff))
        if not self.at_end():
            raise ParseError("unexpected trailing input", self.current.offset)
        return PuiseuxPoly(terms)

    # -- monoid literals -----------------------------------------------------

    def generator(self) -> Rat:
        tok = self.current
        if tok.kind == "-":
            raise ParseError("generator must be positive", tok.offset)
        value = self.unsigned_rational("a generator")
        if value == 0:
            raise ParseError("generator must be positive", tok.offset)
        return Rat(value)

    def monoid(self) -> PuiseuxMonoid:
        self.expect("<", "'<'")
        gens = [self.generator()]
        while self.current.kind == ",":
            self.advance()
            gens.append(self.generator())
        self.expect(">", "'>'")
        if not self.at_end():
            raise ParseError("unexpected trailing input", self.current.offset)
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
    value = parser.unsigned_rational("a rational number")
    if not parser.at_end():
        raise ParseError("unexpected trailing input", parser.current.offset)
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
