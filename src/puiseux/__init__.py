"""Exact computational algebra for rational-exponent polynomial algebras.

The package provides arbitrary-precision rational arithmetic, complete
polynomial factorization over Q at desk scale, cyclotomic polynomial
generation and recognition, elements of Q[Q_+] with their symmetric-support
predicate, finitely generated submonoids of Q_+, canonical
monomial/cyclotomic/prime factorization, and exhaustive enumeration of
non-associate divisors inside Q[S].
"""

from .cyclotomic import (
    VanishingReport,
    cyclotomic_poly,
    elementary_symmetric,
    inverse_totient,
    reciprocal_vanishing_check,
    totient,
)
from .engine import (
    DEFAULT_DIVISOR_LIMIT,
    CanonicalFactorization,
    DivisorSet,
    canonical_factorization,
    divisors_in_algebra,
    ff_divisor_count,
    is_atom_in_algebra,
    recompose,
)
from .errors import DomainError, ParseError, PuiseuxError, ResourceLimitError
from .exact import Rat, is_prime
from .monoid import NumericalMonoid, PuiseuxMonoid
from .ppoly import PuiseuxPoly
from .qpoly import QPoly
from .textform import (
    format_monoid,
    format_poly,
    format_rat,
    parse_monoid,
    parse_poly,
    parse_rat,
)

__all__ = [
    "CanonicalFactorization",
    "DEFAULT_DIVISOR_LIMIT",
    "DivisorSet",
    "DomainError",
    "NumericalMonoid",
    "ParseError",
    "PuiseuxError",
    "PuiseuxMonoid",
    "PuiseuxPoly",
    "QPoly",
    "Rat",
    "ResourceLimitError",
    "VanishingReport",
    "canonical_factorization",
    "cyclotomic_poly",
    "divisors_in_algebra",
    "elementary_symmetric",
    "ff_divisor_count",
    "format_monoid",
    "format_poly",
    "format_rat",
    "inverse_totient",
    "is_atom_in_algebra",
    "is_prime",
    "parse_monoid",
    "parse_poly",
    "parse_rat",
    "recompose",
    "reciprocal_vanishing_check",
    "totient",
]
