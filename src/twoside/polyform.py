"""Multivariate polynomial normal forms and the algebraic identity checkers.

An identity between two expressions is certified by expanding both into the
unique sparse normal form (exponent vector -> nonzero rational coefficient)
and comparing term by term.  A failed identity is reported together with the
first integer counterexample point, searched coordinate-wise in the order
0, 1, -1, 2, -2, 3, -3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact_core import DomainError, rat_to_str
from .report import IdentityReport, report_check, report_equal

_WITNESS_COORDS = (0, 1, -1, 2, -2, 3, -3)


# --- expression trees -------------------------------------------------------

class Expr:
    """Base for the small expression language: +, -, *, integer powers."""

    def __add__(self, other):
        return Sum(self, _as_expr(other))

    def __radd__(self, other):
        return Sum(_as_expr(other), self)

    def __sub__(self, other):
        return Diff(self, _as_expr(other))

    def __rsub__(self, other):
        return Diff(_as_expr(other), self)

    def __mul__(self, other):
        return Prod(self, _as_expr(other))

    def __rmul__(self, other):
        return Prod(_as_expr(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if not self.name:
            raise DomainError("variable names must be nonempty")


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Diff(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Prod(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise DomainError("power exponents must be non-negative integers")


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Const(Fraction(v))
    raise DomainError(f"cannot coerce {v!r} into an expression")


def variables(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    if isinstance(e, Pow):
        return variables(e.base)
    return variables(e.left) | variables(e.right)


def evaluate(e: Expr, env: Mapping[str, Fraction]) -> Fraction:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return Fraction(env[e.name])
        except KeyError:
            raise DomainError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Sum):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, Diff):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, Prod):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, Pow):
        return evaluate(e.base, env) ** e.exponent
    raise DomainError(f"unknown expression node {e!r}")


# --- normal form -------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Sparse normal form over an ordered variable tuple; no zero terms."""

    vars: tuple[str, ...]
    terms: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        cleaned = {m: Fraction(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Polynomial(self.vars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) - c
        return Polynomial(self.vars, terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.vars, terms)

    def __pow__(self, exponent: int) -> "Polynomial":
        result = Polynomial(self.vars, {(0,) * len(self.vars): Fraction(1)})
        for _ in range(exponent):
            result = result * self
        return result

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


def poly_normalize(e: Expr, var_order: Sequence[str]) -> Polynomial:
    """Expand an expression into its unique normal form over var_order."""
    var_order = tuple(var_order)
    undeclared = variables(e) - set(var_order)
    if undeclared:
        raise DomainError(f"undeclared variables: {sorted(undeclared)}")
    index = {name: i for i, name in enumerate(var_order)}
    zero_mono = (0,) * len(var_order)

    def walk(node: Expr) -> Polynomial:
        if isinstance(node, Const):
            return Polynomial(var_order, {zero_mono: node.value})
        if isinstance(node, Var):
            mono = list(zero_mono)
            mono[index[node.name]] = 1
            return Polynomial(var_order, {tuple(mono): Fraction(1)})
        if isinstance(node, Sum):
            return walk(node.left) + walk(node.right)
        if isinstance(node, Diff):
            return walk(node.left) - walk(node.right)
        if isinstance(node, Prod):
            return walk(node.left) * walk(node.right)
        if isinstance(node, Pow):
            return walk(node.base) ** node.exponent
        raise DomainError(f"unknown expression node {node!r}")

    return walk(e)


def _search_witness(lhs: Expr, rhs: Expr, var_order: Sequence[str]):
    """The first small integer point where the sides differ, or
    ("symbolic",) when they differ at none of them."""
    for point in itertools.product(_WITNESS_COORDS, repeat=len(var_order)):
        env = {name: Fraction(v) for name, v in zip(var_order, point)}
        if evaluate(lhs, env) != evaluate(rhs, env):
            return point
    return ("symbolic",)


def identity_check(lhs: Expr, rhs: Expr,
                   var_order: Sequence[str]) -> IdentityReport:
    """Pass iff the two expressions have identical normal forms."""
    lp = poly_normalize(lhs, var_order)
    rp = poly_normalize(rhs, var_order)
    if lp == rp:
        return report_check(var_order, lp, rp, True)
    return report_check(var_order, lp, rp, False,
                        witness=_search_witness(lhs, rhs, var_order))


# --- built-in identity suite -------------------------------------------------

def _abcd():
    return Var("a"), Var("b"), Var("c"), Var("d")


def builtin_identities() -> dict[str, tuple[Expr, Expr, tuple[str, ...]]]:
    """The distributive/notable-product identities verified by expansion,
    keyed by short name."""
    a, b, c, d = _abcd()
    return {
        "distr": ((b + c) * a, b * a + c * a, ("a", "b", "c")),
        "every_term": ((a + b) * (c + d), a * c + a * d + b * c + b * d,
                       ("a", "b", "c", "d")),
        "sq_sum": ((a + b) ** 2, a ** 2 + 2 * a * b + b ** 2, ("a", "b")),
        "distr_diff": (a * (b - c), a * b - a * c, ("a", "b", "c")),
        "diff_sum": ((a - b) * (c + d), a * c + a * d - b * c - b * d,
                     ("a", "b", "c", "d")),
        "diff_diff": ((a - b) * (c - d), a * c - a * d - b * c + b * d,
                      ("a", "b", "c", "d")),
        "sq_diff": ((a - b) ** 2, a ** 2 - 2 * a * b + b ** 2, ("a", "b")),
        "cube_sum_expand": ((a + b) ** 3,
                            a ** 3 + 3 * a ** 2 * b + 3 * a * b ** 2 + b ** 3,
                            ("a", "b")),
    }


# --- geometry-flavoured algebra checks ---------------------------------------

#: The right triangle (a, b, c) whose two trapezoid areas are also counted.
_PYTHAGORAS_SAMPLE = (Fraction(3), Fraction(4), Fraction(5))


def pythagoras_rearrangement_check() -> IdentityReport:
    """Right-trapezoid double area count: (a+b)^2/2 - (ab + c^2/2) = (a^2+b^2-c^2)/2.

    When the two area computations agree, the difference being zero is
    exactly the statement a^2 + b^2 = c^2 for the right triangle involved.
    """
    a, b, c = Var("a"), Var("b"), Var("c")
    half = Fraction(1, 2)
    lhs = Const(half) * (a + b) ** 2 - (a * b + Const(half) * c ** 2)
    rhs = Const(half) * (a ** 2 + b ** 2 - c ** 2)
    report = identity_check(lhs, rhs, ("a", "b", "c"))
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
    a, b, c = Var("a"), Var("b"), Var("c")
    lhs = (a + b) ** 2
    rhs = Const(Fraction(1, 2)) * (2 * a * b + c ** 2)
    return identity_check(lhs, rhs, ("a", "b", "c"))


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
    a, b, c = Var("a"), Var("b"), Var("c")
    ce = Var("t")
    half = Const(Fraction(1, 2))
    s = half * (a + b + c)
    de = half * ((s - a) + ce - b)
    fe = half * ((s - b) + ce - a)
    return identity_check(de, fe, ("a", "b", "c", "t"))
