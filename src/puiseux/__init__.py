"""Exact computational algebra for rational-exponent polynomial algebras.

The package provides arbitrary-precision rational arithmetic, complete
polynomial factorization over Q at desk scale, cyclotomic polynomial
generation and recognition, elements of Q[Q_+] with their symmetric-support
predicate, finitely generated submonoids of Q_+, canonical
monomial/cyclotomic/prime factorization, and exhaustive enumeration of
non-associate divisors inside Q[S].
"""

from .cyclotomic import (
    QFactorization,
    VanishingReport,
    classify_cyclotomic,
    cyclotomic_poly,
    elementary_symmetric,
    factor_over_rationals,
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
from .exact import (
    PrimeFieldElement,
    PrimeFieldPoly,
    Rat,
    is_prime,
    lcm_denominators,
    reduce_rat,
)
from .monoid import NumericalMonoid, PuiseuxMonoid
from .ppoly import PuiseuxPoly, generalized_poly
from .qpoly import (
    QPoly,
    poly_divrem,
    poly_gcd,
    squarefree_decompose,
)
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
    "PrimeFieldElement",
    "PrimeFieldPoly",
    "PuiseuxError",
    "PuiseuxMonoid",
    "PuiseuxPoly",
    "QFactorization",
    "QPoly",
    "Rat",
    "ResourceLimitError",
    "VanishingReport",
    "canonical_factorization",
    "classify_cyclotomic",
    "cyclotomic_poly",
    "divisors_in_algebra",
    "elementary_symmetric",
    "factor_over_rationals",
    "ff_divisor_count",
    "format_monoid",
    "format_poly",
    "format_rat",
    "generalized_poly",
    "inverse_totient",
    "is_atom_in_algebra",
    "is_prime",
    "lcm_denominators",
    "parse_monoid",
    "parse_poly",
    "parse_rat",
    "poly_divrem",
    "poly_gcd",
    "recompose",
    "reciprocal_vanishing_check",
    "reduce_rat",
    "squarefree_decompose",
    "totient",
]
