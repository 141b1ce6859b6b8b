"""Divisor-count identity and exact harmonic average bounds.

The divisor table is built by a sieve over divisor pairs: each i <= sqrt(n)
counts itself and its cofactor m/i for every multiple m >= i*i, so each
divisor of m is counted once; the identity side sums floor(n/k) by an
independent code path.  Harmonic
numbers are kept as exact rationals so the strict lower bound stays strict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._lazy import np
from .exact_core import Cap, DomainError
from .report import IdentityReport, report_equal


#: Largest n `divisor_counts` sieves: its int64 array and cumulative sum
#: are allocated whole.
SIEVE_MAX_N = 10 ** 6
SIEVE_CAP = Cap("SIEVE_MAX_N", SIEVE_MAX_N)

#: Largest n whose harmonic numbers are built: each H_k is an exact
#: `Fraction`, and the denominator of H_n grows with n.
HARMONIC_MAX_N = 10 ** 4
HARMONIC_CAP = Cap("HARMONIC_MAX_N", HARMONIC_MAX_N)


@dataclass(frozen=True)
class DivisorTable:
    """d[k] = number of divisors of k for 1 <= k <= n (d[0] unused), and
    totals[k] = d(1)+...+d(k) (totals[0] = 0), both int64 arrays."""

    n: int
    d: np.ndarray = field(compare=False, repr=False)
    totals: np.ndarray = field(compare=False, repr=False)


def divisor_counts(n: int) -> DivisorTable:
    """Sieve of divisor counts in isqrt(n) slice operations.

    A multiple m >= i*i of i has the divisor pair (i, m/i) with i <= m/i;
    the pair adds 2 to d[m], or 1 when m = i*i and both are the same.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    SIEVE_CAP.require(n, "n")
    d = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, math.isqrt(n) + 1):
        d[i * i::i] += 2
        d[i * i] -= 1
    return DivisorTable(n, d, np.cumsum(d))


def floor_sum(n: int) -> int:
    """n + [n/2] + [n/3] + ... + [n/n] by vectorised int64 division.

    Exact: the total is at most n(1 + ln n), far inside int64 for any n
    whose n-element array fits in memory.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    return int(np.sum(n // np.arange(1, n + 1, dtype=np.int64)))


def divisor_identity_check(n: int, table: DivisorTable | None = None) -> IdentityReport:
    """Sum of divisor counts equals the floor sum, exactly."""
    if table is None or table.n < n:
        table = divisor_counts(n)
    return report_equal((n,), int(table.totals[n]), floor_sum(n))


def harmonic_numbers(max_n: int) -> list[Fraction]:
    """H[n] = 1 + 1/2 + ... + 1/n exactly; H[0] = 0."""
    HARMONIC_CAP.require(max_n, "max_n")
    out = [Fraction(0)] * (max_n + 1)
    running = Fraction(0)
    for n in range(1, max_n + 1):
        running += Fraction(1, n)
        out[n] = running
    return out


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly, by binary splitting; H_0 = 0.

    1..n is halved down to runs of at most `_SPLIT_LEAF` terms, each summed
    as p/q over the product of its terms, and two halves p1/q1, p2/q2 merge
    as p1*(q2/g) + p2*(q1/g) over (q1/g)*q2 with g = gcd(q1, q2).  Only the
    final `Fraction` is normalised, where `harmonic_numbers` normalises one
    per term.
    """
    HARMONIC_CAP.require(n, "n")
    if n < 1:
        return Fraction(0)
    return Fraction(*_harmonic_split(1, n + 1))


#: Longest run of terms `_harmonic_split` sums directly: a product of 32
#: factors of at most `HARMONIC_MAX_N` stays under 450 bits, and the
#: shallower recursion took H_8192 from 12 to 7 ms (x86-64, Python 3.11).
_SPLIT_LEAF = 32


def _harmonic_split(a: int, b: int) -> tuple[int, int]:
    """(p, q) with p/q = 1/a + ... + 1/(b-1), for a < b; not reduced."""
    if b - a <= _SPLIT_LEAF:
        p, q = 0, 1
        for k in range(a, b):
            p, q = p * k + q, q * k
        return p, q
    mid = (a + b) // 2
    p1, q1 = _harmonic_split(a, mid)
    p2, q2 = _harmonic_split(mid, b)
    g = math.gcd(q1, q2)
    return p1 * (q2 // g) + p2 * (q1 // g), (q1 // g) * q2


@dataclass(frozen=True)
class AverageBoundsReport:
    n: int
    lower: Fraction   # H_n - 1
    avg: Fraction     # (d(1)+...+d(n)) / n
    upper: Fraction   # H_n
    passed: bool      # lower < avg <= upper


def divisor_average_bounds(n: int, table: DivisorTable | None = None,
                           harmonic: Fraction | None = None) -> AverageBoundsReport:
    """Exact harmonic sandwich H_n - 1 < average divisor count <= H_n."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    HARMONIC_CAP.require(n, "n")
    if table is None or table.n < n:
        table = divisor_counts(n)
    if harmonic is None:
        harmonic = harmonic_number(n)
    avg = Fraction(int(table.totals[n]), n)
    lower = harmonic - 1
    return AverageBoundsReport(n, lower, avg, harmonic,
                               lower < avg <= harmonic)

