"""Exact-arithmetic verification of identities and two-sided enclosures.

Every checked fact is computed twice, by genuinely different routes
(closed form vs literal counting, chain solve vs series vs simulation,
polygon areas vs squeezed brackets), and the comparison is exact: rational
equality or certified interval containment, never floating point.
"""

# Finds numpy now, so that a missing install fails here; its code runs later,
# at the first numpy call (see _lazy.py).
from . import _lazy  # noqa: F401
from .exact_core import (Bracket, DomainError, NonConvergenceError, Rational,
                         bracket_point, rat_from_str, rat_to_decimal,
                         rat_to_str, rational_power_bracket, root_bracket)
from .report import IdentityReport

__all__ = [
    "Bracket",
    "DomainError",
    "NonConvergenceError",
    "Rational",
    "IdentityReport",
    "bracket_point",
    "rat_from_str",
    "rat_to_decimal",
    "rat_to_str",
    "rational_power_bracket",
    "root_bracket",
]

__version__ = "0.1.0"
