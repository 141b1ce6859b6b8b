"""Multivariate polynomials in normal form and the algebraic identity checkers.

A `Polynomial` is the unique sparse normal form over an ordered variable
tuple (exponent vector -> nonzero rational coefficient), and it is the only
representation of an identity's sides: `variables` makes one polynomial per
name, and +, - (with int and `Fraction` constants on either side of + and
*), * and non-negative integer powers expand as they go.  An identity is
certified by comparing the two normal forms term by term.  A failed identity
is reported together with the first integer counterexample point, searched
coordinate-wise in the order 0, 1, -1, 2, -2, 3, -3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exact_core import DomainError, rat_to_str
from .report import IdentityReport, report_check, report_equal

_WITNESS_COORDS = (0, 1, -1, 2, -2, 3, -3)


# --- normal form -------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Sparse normal form over an ordered variable tuple; no zero terms."""

    vars: tuple[str, ...]
    terms: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        cleaned = {m: Fraction(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    def _coerce(self, other) -> "Polynomial":
        """`other` over this polynomial's variables: an int or `Fraction`
        becomes a constant, a polynomial over other variables is refused."""
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise DomainError(f"cannot combine polynomials over "
                                  f"{self.vars} and {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.vars, {(0,) * len(self.vars): other})
        raise DomainError(f"cannot coerce {other!r} into a polynomial")

    def __add__(self, other) -> "Polynomial":
        terms = dict(self.terms)
        for m, c in self._coerce(other).terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.vars, terms)

    def __sub__(self, other) -> "Polynomial":
        return self + self._coerce(other) * -1

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.vars, terms)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("power exponents must be non-negative integers")
        result = self._coerce(1)
        for _ in range(exponent):
            result = result * self
        return result

    def at(self, point) -> Fraction:
        """The value at `point`, one coordinate per variable."""
        return sum((c * math.prod(x ** e for x, e in zip(point, m))
                    for m, c in self.terms.items()), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (-sum(m), tuple(-e for e in m))):
            coeff = self.terms[mono]
            factors = [f"{v}^{e}" if e > 1 else v
                       for v, e in zip(self.vars, mono) if e > 0]
            body = "*".join(factors)
            if not body:
                parts.append(rat_to_str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{rat_to_str(coeff)}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def variables(*names: str) -> tuple[Polynomial, ...]:
    """One polynomial per name, each the bare variable over all `names`."""
    if not all(names) or len(set(names)) != len(names):
        raise DomainError("variable names must be nonempty and distinct")
    zero = (0,) * len(names)
    return tuple(Polynomial(names, {zero[:i] + (1,) + zero[i + 1:]: 1})
                 for i in range(len(names)))


def identity_check(lhs: Polynomial, rhs: Polynomial) -> IdentityReport:
    """Pass iff the two sides have one normal form; the report's params are
    their variables.  A failure's witness is the first small integer point
    where the sides differ, or ("symbolic",) when they differ at none."""
    rhs = lhs._coerce(rhs)
    if lhs == rhs:
        return report_check(lhs.vars, lhs, rhs, True)
    grid = itertools.product(_WITNESS_COORDS, repeat=len(lhs.vars))
    witness = next((p for p in grid if lhs.at(p) != rhs.at(p)), ("symbolic",))
    return report_check(lhs.vars, lhs, rhs, False, witness=witness)


# --- built-in identity suite -------------------------------------------------

#: The distributive/notable-product identities verified by expansion, keyed
#: by short name: the variable names and a function of those variables that
#: builds the two sides.
BUILTIN_IDENTITIES = {
    "distr": ("abc", lambda a, b, c: ((b + c) * a, b * a + c * a)),
    "every_term": ("abcd", lambda a, b, c, d: (
        (a + b) * (c + d), a * c + a * d + b * c + b * d)),
    "sq_sum": ("ab", lambda a, b: (
        (a + b) ** 2, a ** 2 + 2 * a * b + b ** 2)),
    "distr_diff": ("abc", lambda a, b, c: (a * (b - c), a * b - a * c)),
    "diff_sum": ("abcd", lambda a, b, c, d: (
        (a - b) * (c + d), a * c + a * d - b * c - b * d)),
    "diff_diff": ("abcd", lambda a, b, c, d: (
        (a - b) * (c - d), a * c - a * d - b * c + b * d)),
    "sq_diff": ("ab", lambda a, b: (
        (a - b) ** 2, a ** 2 - 2 * a * b + b ** 2)),
    "cube_sum_expand": ("ab", lambda a, b: (
        (a + b) ** 3, a ** 3 + 3 * a ** 2 * b + 3 * a * b ** 2 + b ** 3)),
}


def builtin_identity(name: str) -> tuple[Polynomial, Polynomial]:
    """The two sides of the built-in identity `name`, built when asked."""
    names, sides = BUILTIN_IDENTITIES[name]
    return sides(*variables(*names))


# --- geometry-flavoured algebra checks ---------------------------------------

#: The right triangle (a, b, c) whose two trapezoid areas are also counted.
_PYTHAGORAS_SAMPLE = (Fraction(3), Fraction(4), Fraction(5))


def pythagoras_rearrangement_check() -> IdentityReport:
    """Right-trapezoid double area count: (a+b)^2/2 - (ab + c^2/2) = (a^2+b^2-c^2)/2.

    When the two area computations agree, the difference being zero is
    exactly the statement a^2 + b^2 = c^2 for the right triangle involved.
    """
    a, b, c = variables("a", "b", "c")
    half = Fraction(1, 2)
    lhs = half * (a + b) ** 2 - (a * b + half * c ** 2)
    rhs = half * (a ** 2 + b ** 2 - c ** 2)
    report = identity_check(lhs, rhs)
    sa, sb, sc = _PYTHAGORAS_SAMPLE
    whole = half * (sa + sb) ** 2
    pieces = sa * sb + half * sc ** 2
    detail = {"area_345_whole": whole, "area_345_pieces": pieces}
    return report_check(report.params, report.lhs, report.rhs,
                        report.passed and whole == pieces, detail,
                        witness=report.witness or _PYTHAGORAS_SAMPLE)


def pythagoras_printed_check() -> IdentityReport:
    """The commonly misprinted trapezoid equation (a+b)^2 = (2ab+c^2)/2.

    Dimensionally inconsistent (the left side omits the factor 1/2); this
    check is expected to fail and carries the witness point.
    """
    a, b, c = variables("a", "b", "c")
    return identity_check((a + b) ** 2, Fraction(1, 2) * (2 * a * b + c ** 2))


def cauchy_schwarz_check(a1, a2, b1, b2) -> IdentityReport:
    """Exact squared form (a1 b1 + a2 b2)^2 <= (a1^2+a2^2)(b1^2+b2^2)."""
    a1, a2, b1, b2 = (Fraction(v) for v in (a1, a2, b1, b2))
    lhs = (a1 * b1 + a2 * b2) ** 2
    rhs = (a1 ** 2 + a2 ** 2) * (b1 ** 2 + b2 ** 2)
    equality = a1 * b2 - a2 * b1 == 0
    passed = lhs <= rhs
    return report_check((a1, a2, b1, b2), lhs, rhs, passed,
                        {"equality": equality})


def mixture_concentration(m1, m2, c2, c_mix) -> Fraction:
    """Unknown concentration from the two-way count of dissolved mass.

    Solves m1*x/100 + m2*c2/100 = (m1+m2)*c_mix/100 exactly for x.
    """
    m1, m2, c2, c_mix = (Fraction(v) for v in (m1, m2, c2, c_mix))
    if m1 == 0:
        raise DomainError("degenerate equation: first component has no mass")
    if m1 < 0 or m2 < 0:
        raise DomainError("masses must be non-negative")
    return ((m1 + m2) * c_mix - m2 * c2) / m1


def incircle_tangent_check(a, b, c, ce) -> IdentityReport:
    """Tangent-length bookkeeping for the split-triangle incircles.

    For triangle sides a, b, c and the cevian of length ce through the
    incircle contact point on side c, the two tangent lengths
    DE = (AE + ce - b)/2 and FE = (EB + ce - a)/2 coincide exactly, which is
    the statement that the two small incircles touch.
    """
    a, b, c, ce = (Fraction(v) for v in (a, b, c, ce))
    if not (a + b > c and b + c > a and c + a > b):
        raise DomainError("sides violate the strict triangle inequality")
    if ce <= 0:
        raise DomainError("cevian length must be positive")
    s = (a + b + c) / 2
    ae = s - a
    eb = s - b
    de = (ae + ce - b) / 2
    fe = (eb + ce - a) / 2
    return report_equal((a, b, c, ce), de, fe)


def incircle_tangent_symbolic() -> IdentityReport:
    """Same identity with the semiperimeter eliminated symbolically."""
    a, b, c, ce = variables("a", "b", "c", "t")
    half = Fraction(1, 2)
    s = half * (a + b + c)
    de = half * ((s - a) + ce - b)
    fe = half * ((s - b) + ce - a)
    return identity_check(de, fe)
