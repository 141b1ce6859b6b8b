"""Closed-form sum identities checked against literal summation loops.

The left side of every identity is produced by actually adding the terms
one by one (the counting side); the right side is the closed form.  The two
are compared for exact equality, never after simplification.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .exact_core import DomainError
from .report import IdentityReport, report_check, report_equal


class SumKind(enum.Enum):
    TRIANGULAR = "triangular"            # 1+2+...+n = n(n+1)/2
    ODD_SQUARE = "odd_square"            # 1+3+...+(2n-1) = n^2
    EVEN = "even"                        # 2+4+...+2n = n(n+1)
    UPDOWN = "updown"                    # 1+...+n+...+1 = n^2
    SQUARES = "squares"                  # 1^2+...+n^2 = n(n+1)(2n+1)/6
    CUBES = "cubes"                      # 1^3+...+n^3 = (n(n+1)/2)^2
    FIB_SQUARES = "fib_squares"          # f_1^2+...+f_n^2 = f_n f_{n+1}
    ADJ_TRIANGULAR = "adj_triangular"    # T_n + T_{n+1} = (n+1)^2
    PALINDROME_ODD = "palindrome_odd"    # 1+3+...+(2n+1)+...+3+1 = n^2+(n+1)^2
    CUBE_LAYERS = "cube_layers"          # n+2n+...+n*n+...+2n+n = n^3
    TRIANGULAR_BINOM = "triangular_binom"  # 1+2+...+n = C(n+1, 2)


def fibonacci(n: int) -> int:
    """Exact n-th Fibonacci number, 1-indexed with f_1 = f_2 = 1."""
    if n < 1:
        raise DomainError("Fibonacci index starts at 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _sum_lhs(kind: SumKind, n: int) -> int:
    """Literal summation loop for the counting side."""
    if kind is SumKind.TRIANGULAR or kind is SumKind.TRIANGULAR_BINOM:
        total = 0
        for i in range(1, n + 1):
            total += i
        return total
    if kind is SumKind.ODD_SQUARE:
        total = 0
        for i in range(1, n + 1):
            total += 2 * i - 1
        return total
    if kind is SumKind.EVEN:
        total = 0
        for i in range(1, n + 1):
            total += 2 * i
        return total
    if kind is SumKind.UPDOWN:
        total = 0
        for i in range(1, n + 1):
            total += i
        for i in range(n - 1, 0, -1):
            total += i
        return total
    if kind is SumKind.SQUARES:
        total = 0
        for i in range(1, n + 1):
            total += i * i
        return total
    if kind is SumKind.CUBES:
        total = 0
        for i in range(1, n + 1):
            total += i ** 3
        return total
    if kind is SumKind.FIB_SQUARES:
        total = 0
        a, b = 1, 1
        for _ in range(n):
            total += a * a
            a, b = b, a + b
        return total
    if kind is SumKind.ADJ_TRIANGULAR:
        first = 0
        for i in range(1, n + 1):
            first += i
        second = 0
        for i in range(1, n + 2):
            second += i
        return first + second
    if kind is SumKind.PALINDROME_ODD:
        total = 0
        for i in range(0, n + 1):
            total += 2 * i + 1
        for i in range(n - 1, -1, -1):
            total += 2 * i + 1
        return total
    if kind is SumKind.CUBE_LAYERS:
        total = 0
        for i in range(1, n + 1):
            total += n * i
        for i in range(n - 1, 0, -1):
            total += n * i
        return total
    raise DomainError(f"unknown sum kind {kind!r}")


def _sum_rhs(kind: SumKind, n: int) -> int:
    if kind is SumKind.TRIANGULAR:
        return n * (n + 1) // 2
    if kind is SumKind.ODD_SQUARE or kind is SumKind.UPDOWN:
        return n * n
    if kind is SumKind.EVEN:
        return n * (n + 1)
    if kind is SumKind.SQUARES:
        return n * (n + 1) * (2 * n + 1) // 6
    if kind is SumKind.CUBES:
        return (n * (n + 1) // 2) ** 2
    if kind is SumKind.FIB_SQUARES:
        return fibonacci(n) * fibonacci(n + 1)
    if kind is SumKind.ADJ_TRIANGULAR:
        return (n + 1) ** 2
    if kind is SumKind.PALINDROME_ODD:
        return n * n + (n + 1) ** 2
    if kind is SumKind.CUBE_LAYERS:
        return n ** 3
    if kind is SumKind.TRIANGULAR_BINOM:
        return math.comb(n + 1, 2)
    raise DomainError(f"unknown sum kind {kind!r}")


def sum_identity_check(kind: SumKind, n: int) -> IdentityReport:
    """Compare the literal sum with the closed form at one n."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    return report_equal(f"sum.{kind.value}", (n,), _sum_lhs(kind, n),
                        _sum_rhs(kind, n))


def sum_identity_sweep(kind: SumKind, max_n: int) -> list[IdentityReport]:
    """Check every n in 1..max_n.

    Prefix-extensible kinds accumulate their literal sum incrementally so a
    1000-point sweep stays linear; shape-changing sums (palindromes, layer
    stacks) rebuild the loop at every n.
    """
    if max_n < 1:
        raise DomainError("max_n must be a positive integer")
    reports = []
    prefix_step = {
        SumKind.TRIANGULAR: lambda n: n,
        SumKind.TRIANGULAR_BINOM: lambda n: n,
        SumKind.ODD_SQUARE: lambda n: 2 * n - 1,
        SumKind.EVEN: lambda n: 2 * n,
        SumKind.SQUARES: lambda n: n * n,
        SumKind.CUBES: lambda n: n ** 3,
    }
    if kind in prefix_step:
        step = prefix_step[kind]
        total = 0
        for n in range(1, max_n + 1):
            total += step(n)
            reports.append(report_equal(f"sum.{kind.value}", (n,), total,
                                        _sum_rhs(kind, n)))
        return reports
    if kind is SumKind.FIB_SQUARES:
        total = 0
        a, b = 1, 1
        for n in range(1, max_n + 1):
            total += a * a
            reports.append(report_equal(f"sum.{kind.value}", (n,), total,
                                        a * b))
            a, b = b, a + b
        return reports
    for n in range(1, max_n + 1):
        reports.append(sum_identity_check(kind, n))
    return reports


@dataclass(frozen=True)
class BetweennessReport:
    """Strict Fibonacci sandwiches for the two alternating tail sums."""

    m: int
    n: int
    x: int
    y: int
    x_neighbors: tuple[int, int]
    y_neighbors: tuple[int, int]
    telescoped_ok: bool
    passed: bool


def fib_betweenness(m: int, n: int) -> BetweennessReport:
    """Sums of alternating Fibonacci runs fall strictly between neighbors.

    X = f_{2m+1} + f_{2m+3} + ... + f_{2n+1} telescopes to f_{2n+2} - f_{2m}
    and satisfies f_{2n+1} < X < f_{2n+2}; Y = f_{2m} + ... + f_{2n} likewise
    equals f_{2n+1} - f_{2m-1} with f_{2n} < Y < f_{2n+1}.  Neither value can
    therefore be a Fibonacci number.
    """
    if m <= 0 or m >= n:
        raise DomainError("need 0 < m < n")
    fib = [0] * (2 * n + 3)
    fib[1] = fib[2] = 1
    for i in range(3, 2 * n + 3):
        fib[i] = fib[i - 1] + fib[i - 2]
    x = 0
    for i in range(2 * m + 1, 2 * n + 2, 2):
        x += fib[i]
    y = 0
    for i in range(2 * m, 2 * n + 1, 2):
        y += fib[i]
    telescoped_ok = (x == fib[2 * n + 2] - fib[2 * m]
                     and y == fib[2 * n + 1] - fib[2 * m - 1])
    x_lo, x_hi = fib[2 * n + 1], fib[2 * n + 2]
    y_lo, y_hi = fib[2 * n], fib[2 * n + 1]
    passed = telescoped_ok and x_lo < x < x_hi and y_lo < y < y_hi
    return BetweennessReport(m, n, x, y, (x_lo, x_hi), (y_lo, y_hi),
                             telescoped_ok, passed)


def fib_betweenness_report(m: int, n: int) -> IdentityReport:
    r = fib_betweenness(m, n)
    lhs = (r.x, r.y)
    rhs = (r.x_neighbors, r.y_neighbors)
    return report_check("fib.betweenness", (m, n), lhs, rhs, r.passed,
                        {"telescoped": r.telescoped_ok})
