"""Reference values the benchmark computes without calling twoside."""

from __future__ import annotations

import math
from fractions import Fraction


def _atan_bracket(x: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """atan(x) for 0 < x < 1 between two successive alternating partial sums."""
    partial = Fraction(0)
    k = 0
    while True:
        term = x ** (2 * k + 1) / (2 * k + 1)
        nxt = partial + term if k % 2 == 0 else partial - term
        if k > 0 and term <= width:
            return min(partial, nxt), max(partial, nxt)
        partial = nxt
        k += 1


def machin_pi(width: Fraction = Fraction(1, 10 ** 60)) -> tuple[Fraction, Fraction]:
    """pi = 16 atan(1/5) - 4 atan(1/239), as an exact rational enclosure."""
    lo5, hi5 = _atan_bracket(Fraction(1, 5), width / 32)
    lo239, hi239 = _atan_bracket(Fraction(1, 239), width / 8)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def divisor_summatory(n: int) -> int:
    """d(1) + ... + d(n) by the Dirichlet hyperbola method, O(sqrt n)."""
    r = math.isqrt(n)
    return 2 * sum(n // k for k in range(1, r + 1)) - r * r


def shoelace(vertices) -> Fraction:
    """Positive area of a simple polygon with rational vertices."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2
