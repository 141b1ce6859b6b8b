"""Two-sided approximations: limits, series tails, Riemann sums, and pi.

Everything here produces brackets whose endpoints are exact rationals and
whose containment claims are consequences of monotonicity plus the root
enclosures from :mod:`twoside.exact_core`.  Rounding is always outward, so
refining a computation can only shrink a bracket, never lose its target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, repeat
from typing import Callable, Iterable, Iterator

from .exact_core import (Bracket, DomainError, NonConvergenceError,
                         RationalLike, root_bracket, rational_power_bracket)
from .report import IdentityReport, report_check, report_equal

BracketGenerator = Iterator[Bracket]


def refine(brackets: Iterable[Bracket], tol: RationalLike,
           max_steps: int) -> BracketGenerator:
    """Brackets up to and including the first of width <= tol.

    A bad `tol` or `max_steps` is refused at the call.  When `max_steps`
    brackets pass without one, or the brackets run out first, the iterator
    raises NonConvergenceError after the last bracket it yields, so a
    caller keeps every bracket it received.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if max_steps < 1:
        raise DomainError("max_steps must be at least 1")
    return _refine(brackets, tol, max_steps)


def _refine(brackets: Iterable[Bracket], tol: Fraction,
            max_steps: int) -> BracketGenerator:
    last, steps = None, 0
    for steps, last in enumerate(islice(brackets, max_steps), 1):
        yield last
        if last.width <= tol:
            return
    raise NonConvergenceError(
        f"no bracket of width <= {tol} within {steps} steps",
        last_bracket=last, steps=steps)


def _sqrt_bracket(b: Bracket, eps: Fraction) -> Bracket:
    """Outward square root of a nonnegative bracket via endpoint roots."""
    if b.lo < 0:
        raise DomainError("square root of a bracket reaching below zero")
    return Bracket(root_bracket(b.lo, 2, eps).lo,
                   root_bracket(b.hi, 2, eps).hi)


# --- the nth-root squeeze example ---------------------------------------------

def nth_root_sequence_bracket(n: int) -> Bracket:
    """Bracket [5, hi] enclosing (3^n + 5^n)^(1/n), hi covering 5*2^(1/n)."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    hi = root_bracket(2, n, Fraction(1, 40 * n)).hi * 5
    return Bracket(Fraction(5), hi)


# --- real-exponent powers -------------------------------------------------------

def sqrt2_truncation(digits: int) -> tuple[int, int]:
    """(d, scale) with d/scale <= sqrt(2) <= (d+1)/scale, scale = 10^digits.

    d is the integer square root of 2 * scale^2, so d^2 <= 2 * scale^2 <
    (d+1)^2 holds exactly.
    """
    if digits < 0:
        raise DomainError("digits must be non-negative")
    scale = 10 ** digits
    return math.isqrt(2 * scale * scale), scale


def real_power_bracket(a: RationalLike, digits: int) -> Bracket:
    """Enclose a**sqrt(2) between powers with truncated-decimal exponents.

    For a > 1 the power is increasing in the exponent, so the exponent
    bracket [d, d+1]/10^digits maps directly onto a value bracket; for
    0 < a < 1 it is decreasing and the endpoints swap.
    """
    a = Fraction(a)
    if a <= 0 or a == 1:
        raise DomainError("base must be positive and different from 1")
    d, scale = sqrt2_truncation(digits)
    eps = Fraction(1, 10 ** (digits + 2))
    low_exp = rational_power_bracket(a, d, scale, eps)
    high_exp = rational_power_bracket(a, d + 1, scale, eps)
    if a > 1:
        return Bracket(low_exp.lo, high_exp.hi)
    return Bracket(high_exp.lo, low_exp.hi)


# --- series with exact tails ---------------------------------------------------

def geometric_series_sum(a: RationalLike, r: RationalLike,
                         n_terms: int) -> Bracket:
    """[partial sum through term N, partial sum + tail] of a + ar + ar^2 ...

    The tail |a r^(N+1) / (1-r)| bounds what the terms after N add, so the
    bracket contains the sum a/(1-r).
    """
    a, r = Fraction(a), Fraction(r)
    if abs(r) >= 1:
        raise DomainError("series diverges for |r| >= 1")
    if n_terms < 0:
        raise DomainError("N must be non-negative")
    # With r = p/q every term r^k is added as the integer p^k·q^(N-k) over
    # the common denominator q^N, so one gcd is taken, at the end; a sum of
    # Fractions would take a gcd of a growing integer at every term.
    p, q = r.numerator, r.denominator
    num, power = 0, 1
    for _ in range(n_terms + 1):
        num = num * q + power
        power *= p
    den = q ** n_terms
    partial = a * Fraction(num, den)
    tail = abs(a * Fraction(power, den * q) / (1 - r))
    return Bracket(partial, partial + tail)


def swineshead_bracket(n_terms: int) -> Bracket:
    """[partial sum of k/2^k through N, partial + (N+2)/2^N], around 2."""
    if n_terms < 0:
        raise DomainError("N must be non-negative")
    # Each term k/2^k is added as the integer k·2^(N-k) over 2^N, so the
    # sum is normalised once, at the end.
    num = 0
    for k in range(n_terms + 1):
        num += k << (n_terms - k)
    partial = Fraction(num, 2 ** n_terms)
    return Bracket(partial, partial + Fraction(n_terms + 2, 2 ** n_terms))


def swineshead_check(n_terms: int) -> IdentityReport:
    """Partial sums of k/2^k equal 2 - (N+2)/2^N exactly and bracket 2."""
    bracket = swineshead_bracket(n_terms)
    closed_partial = 2 - Fraction(n_terms + 2, 2 ** n_terms)
    return report_check((n_terms,), bracket.lo, closed_partial,
                        bracket.lo == closed_partial and bracket.contains(2))


def rows_rearrangement_check(n_rows: int) -> IdentityReport:
    """Row-of-tails double count: sum_j sum_{i>=j} 2^-i = sum_i i*2^-i."""
    if n_rows < 1:
        raise DomainError("N must be a positive integer")
    # Both sides add every term 2^-i (or i·2^-i) as an integer numerator
    # over the one denominator 2^N and normalise once, at the end.
    by_rows = 0
    for j in range(1, n_rows + 1):
        row = 0
        for i in range(j, n_rows + 1):
            row += 1 << (n_rows - i)
        by_rows += row
    by_columns = 0
    for i in range(1, n_rows + 1):
        by_columns += i << (n_rows - i)
    den = 2 ** n_rows
    return report_equal((n_rows,), Fraction(by_rows, den),
                        Fraction(by_columns, den))


# --- Darboux brackets for monomials ---------------------------------------------

_FAULHABER = {
    1: lambda m: Fraction(m * (m + 1), 2),
    2: lambda m: Fraction(m * (m + 1) * (2 * m + 1), 6),
    3: lambda m: Fraction((m * (m + 1)) ** 2, 4),
}


@dataclass(frozen=True)
class MonomialIntegrand:
    """c * x^k on [0, b] with c > 0, b > 0, k in {1, 2, 3}.

    Non-negative and non-decreasing on its domain, so the endpoint sums are
    honest lower and upper Darboux sums.
    """

    coefficient: Fraction
    exponent: int
    upper: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if self.coefficient <= 0:
            raise DomainError("coefficient must be positive")
        if self.upper <= 0:
            raise DomainError("interval endpoint must be positive")
        if self.exponent not in _FAULHABER:
            raise DomainError("unsupported exponent (need k in {1, 2, 3})")

    def value(self, x: RationalLike) -> Fraction:
        return self.coefficient * Fraction(x) ** self.exponent

    def exact_integral(self) -> Fraction:
        return (self.coefficient * self.upper ** (self.exponent + 1)
                / (self.exponent + 1))


def riemann_bracket(f: MonomialIntegrand, n: int) -> Bracket:
    """Lower/upper endpoint sums on n equal cells, via exact power sums."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    power_sum = _FAULHABER[f.exponent]
    cell = f.upper / n
    factor = f.coefficient * cell ** (f.exponent + 1)
    return Bracket(factor * power_sum(n - 1), factor * power_sum(n))


# --- pi by polygon doubling -------------------------------------------------------

def _polygon_area_pair(n_sides: int, cos_bracket: Bracket,
                       eps: Fraction) -> Bracket:
    """[inscribed area, circumscribed area] for the regular n-gon pair.

    With t the half central angle, the inscribed area is n sin(t) cos(t) and
    the circumscribed one n tan(t); tan comes from sec^2 - 1 so only exact
    reciprocals of the rational cos endpoints are needed.
    """
    c = cos_bracket
    if c.lo <= 0 or c.hi > 1:
        raise DomainError("cosine bracket escaped (0, 1]")
    zero = Fraction(0)
    sin_sq = Bracket(max(zero, 1 - c.hi * c.hi), 1 - c.lo * c.lo)
    s = _sqrt_bracket(sin_sq, eps)
    inscribed = (s * c).scale(n_sides)
    tan_sq = Bracket(max(zero, 1 / (c.hi * c.hi) - 1), 1 / (c.lo * c.lo) - 1)
    t = _sqrt_bracket(tan_sq, eps)
    circumscribed = t.scale(n_sides)
    return Bracket(inscribed.lo, circumscribed.hi)


def pi_bracket_sequence(doublings: int, eps: RationalLike) -> list[Bracket]:
    """The first `doublings` + 1 brackets of :func:`pi_generator`."""
    if doublings < 0:
        raise DomainError("doublings must be non-negative")
    if Fraction(eps) <= 0:
        raise DomainError("eps must be positive")
    return list(islice(pi_generator(eps), doublings + 1))


def pi_bracket(doublings: int, eps: RationalLike) -> Bracket:
    """Enclose pi between inscribed/circumscribed 6*2^doublings-gon areas."""
    return pi_bracket_sequence(doublings, eps)[-1]


def pi_generator(eps: RationalLike = Fraction(1, 10 ** 12)) -> BracketGenerator:
    """Nested pi brackets from the hexagon pair, halving the angle each step.

    The per-level root precision shrinks by 4 per doubling, which cancels
    the growth of the relative error of sin(t) as t halves; successive
    brackets are intersected so nesting holds by construction while every
    bracket remains a sound enclosure.
    """
    eps = Fraction(eps)
    step_eps = min(eps / 16, Fraction(1, 64))
    cos_bracket = root_bracket(3, 2, step_eps).scale(Fraction(1, 2))
    n_sides = 6
    current = None
    while True:
        pair = _polygon_area_pair(n_sides, cos_bracket, step_eps)
        current = pair if current is None else current.intersect(pair)
        yield current
        step_eps = step_eps / 4
        half_angle_sq = cos_bracket.shift(1).scale(Fraction(1, 2))
        cos_bracket = _sqrt_bracket(half_angle_sq, step_eps)
        n_sides *= 2


def circle_area_bracket(r: RationalLike, doublings: int,
                        eps: RationalLike) -> Bracket:
    """r^2 times the pi bracket; exact scaling keeps enclosure soundness."""
    r = Fraction(r)
    if r <= 0:
        raise DomainError("radius must be positive")
    return pi_bracket(doublings, eps).scale(r * r)


def cylinder_volume_bracket(r: RationalLike, m: RationalLike, doublings: int,
                            eps: RationalLike) -> Bracket:
    """Base-circle bracket times the height, the prism volume rule."""
    m = Fraction(m)
    if m <= 0:
        raise DomainError("height must be positive")
    return circle_area_bracket(r, doublings, eps).scale(m)


# --- generator registry for the CLI ----------------------------------------------

#: Brackets in each ladder that ends; the other ladders never do.  The
#: power ladder truncates sqrt(2) to 0..8 decimal digits.
LADDER_RUNGS = {"power": 9}

#: Most brackets `converge` emits from any ladder; the cost grows faster than
#: the count (pi: 3.5 s at this cap, 76 s at 8000, on a 2-core x86-64 VM).
CONVERGE_MAX_STEPS = 2000


def _generator_factories() -> dict[str, Callable[[], BracketGenerator]]:
    """Each name's ladder of brackets, coarsest first.

    Bracket functions are looked up when a ladder is made, so a wrapper
    installed on a module attribute sees every call.
    """
    x2, x3 = (MonomialIntegrand(Fraction(1), k, Fraction(1)) for k in (2, 3))
    return {
        "pi": pi_generator,
        "sqrt2": lambda: (root_bracket(2, 2, Fraction(1, 2 ** step))
                          for step in count()),
        "nthroot": lambda: map(nth_root_sequence_bracket, count(1)),
        "power": lambda: map(real_power_bracket, repeat(2),
                             range(LADDER_RUNGS["power"])),
        "riemann2": lambda: (riemann_bracket(x2, 1 << i) for i in count()),
        "riemann3": lambda: (riemann_bracket(x3, 1 << i) for i in count()),
        "swineshead": lambda: map(swineshead_bracket, count()),
        "chocolate": lambda: map(geometric_series_sum, repeat(1),
                                 repeat(Fraction(1, 10)), count()),
    }


def named_generator(name: str) -> BracketGenerator:
    factories = _generator_factories()
    try:
        return factories[name]()
    except KeyError:
        raise DomainError(f"unknown generator {name!r}; "
                          f"choose from {sorted(factories)}") from None


GENERATOR_NAMES = tuple(_generator_factories())
