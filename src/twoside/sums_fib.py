"""Closed-form sum identities checked against literal summation loops.

The left side of every identity is produced by actually adding the terms
one by one (the counting side); the right side is the closed form.  The two
are compared for exact equality, never after simplification.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import Iterator

from ._lazy import np
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


#: Largest n a sum sweep reaches: at this cap `check sum.fib_squares` writes
#: 43 MB of decimal digits and `check sum.cube_layers` makes 5·10^7 literal
#: additions.  The cap also keeps every cube-layer partial sum at most
#: SUM_MAX_N^3 = 10^12 < 2^63, so `_cube_layers` adds them exactly in int64.
SUM_MAX_N = 10 ** 4


def fibonacci(n: int) -> int:
    """Exact n-th Fibonacci number, 1-indexed with f_1 = f_2 = 1."""
    return _fibonacci_pair(n)[0]


def _fibonacci_pair(n: int) -> tuple[int, int]:
    """(f_n, f_{n+1}) for n >= 1.

    Fast doubling over the bits of n: (f_k, f_{k+1}) becomes (f_2k, f_2k+1)
    as f_2k = f_k (2 f_{k+1} - f_k) and f_2k+1 = f_k^2 + f_{k+1}^2, then
    steps once more on a set bit.  O(log n) multiplications.
    """
    if n < 1:
        raise DomainError("Fibonacci index starts at 1")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


# The counting side of each kind: the literal sum at n = 1, 2, ..., where
# each n adds only the terms it brings.

def _running(step) -> Iterator[int]:
    """step(1) + ... + step(n), one term added per n."""
    n = total = 0
    while True:
        n += 1
        total += step(n)
        yield total


def _fib_squares() -> Iterator[int]:
    a, b, total = 1, 1, 0
    while True:
        total += a * a
        yield total
        a, b = b, a + b


def _updown() -> Iterator[int]:
    n = up = 0
    while True:
        n += 1
        previous, up = up, up + n
        yield up + previous  # 1+...+n + (n-1)+...+1


def _adj_triangular() -> Iterator[int]:
    n = up = 0
    while True:
        n += 1
        up += n
        yield up + (up + n + 1)  # T_n + T_{n+1}


def _palindrome_odd() -> Iterator[int]:
    """Its ascending run plus the previous n's ascending run read down."""
    n, up = 0, 1
    while True:
        n += 1
        previous, up = up, up + 2 * n + 1
        yield up + previous  # 1+3+...+(2n+1) + (2n-1)+...+3+1


def _cube_layers() -> Iterator[int]:
    """Every term of n+2n+...+n*n+...+2n+n changes with n, so this kind
    alone is re-summed at each n, and a sweep over it costs O(max_n^2)
    additions.  Those additions still take every term n*i literally; two
    int64 array sums make them in C.  They are exact because `SUM_MAX_N`
    keeps every partial sum at most n^3 <= 10^12 < 2^63.

    The terms are written into one buffer that is regrown to twice the
    length n needs only when n outgrows it, so a sweep allocates O(log n)
    arrays rather than one of a new size for every n."""
    ramp = terms = np.empty(0, dtype=np.int64)
    n = 0
    while True:
        n += 1
        if n > len(ramp):
            ramp = np.arange(1, 2 * n + 1, dtype=np.int64)
            terms = np.empty_like(ramp)
        up = np.multiply(ramp[:n], n, out=terms[:n])  # n, 2n, ..., n*n
        # n + 2n + ... + n*n, then n*(n-1) + ... + 2n + n
        yield int(up.sum()) + int(up[:-1][::-1].sum())


#: Each kind's (counting generator, closed form of n).
_SUMS = {
    SumKind.TRIANGULAR: (partial(_running, lambda n: n),
                         lambda n: n * (n + 1) // 2),
    SumKind.ODD_SQUARE: (partial(_running, lambda n: 2 * n - 1),
                         lambda n: n * n),
    SumKind.EVEN: (partial(_running, lambda n: 2 * n), lambda n: n * (n + 1)),
    SumKind.UPDOWN: (_updown, lambda n: n * n),
    SumKind.SQUARES: (partial(_running, lambda n: n * n),
                      lambda n: n * (n + 1) * (2 * n + 1) // 6),
    SumKind.CUBES: (partial(_running, lambda n: n ** 3),
                    lambda n: (n * (n + 1) // 2) ** 2),
    SumKind.FIB_SQUARES: (_fib_squares,
                          lambda n: math.prod(_fibonacci_pair(n))),
    SumKind.ADJ_TRIANGULAR: (_adj_triangular, lambda n: (n + 1) ** 2),
    SumKind.PALINDROME_ODD: (_palindrome_odd, lambda n: n * n + (n + 1) ** 2),
    SumKind.CUBE_LAYERS: (_cube_layers, lambda n: n ** 3),
    SumKind.TRIANGULAR_BINOM: (partial(_running, lambda n: n),
                               lambda n: math.comb(n + 1, 2)),
}


def require_sum_n(max_n: int) -> None:
    """Refuse a sweep past `SUM_MAX_N` before any term is added."""
    if max_n > SUM_MAX_N:
        raise DomainError(f"sum sweeps capped at n <= SUM_MAX_N = "
                          f"{SUM_MAX_N}, not {max_n}")


def sum_identity_sweep(kind: SumKind, max_n: int) -> list[IdentityReport]:
    """Check every n in 1..max_n (none when max_n < 1).

    The literal sum is extended term by term, so the sweep makes O(max_n)
    additions, except for cube_layers, which re-sums at every n and makes
    O(max_n^2), done in C by int64 array sums.  An unknown kind is refused
    before any term is added.
    """
    sides = _SUMS.get(kind)
    if sides is None:
        raise DomainError(f"unknown sum kind {kind!r}")
    counting, closed = sides
    return [report_equal((n,), lhs, closed(n))
            for n, lhs in zip(range(1, max_n + 1), counting())]


def fib_betweenness_report(m: int, n: int) -> IdentityReport:
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
    return report_check((m, n), (x, y), ((x_lo, x_hi), (y_lo, y_hi)), passed,
                        {"telescoped": telescoped_ok})
