"""Binomial identities with enumeration oracles, colorings, and partitions.

Each identity is evaluated exactly on both sides; the enumeration-backed
checks (subset counting, lattice path walking, constrained strings, Young
diagrams) recount the same finite set in independent ways so agreement is
meaningful rather than definitional.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .exact_core import DomainError
from .report import IdentityReport, report_check, report_equal
from .sums_fib import fibonacci


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside the triangle 0 <= k <= n."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    # Multiplicative form n/1 * (n-1)/2 * ...; every partial product is an
    # integer so the division is exact.
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result


def _count_subsets(n: int, k: int) -> int:
    return sum(1 for _ in itertools.combinations(range(n), k))


def _count_paths(n: int, k: int) -> int:
    # Monotone words with k "up" markers among n steps, counted by walking a
    # prefix table: ways[j] = number of prefixes seen with j ups so far.
    ways = [1] + [0] * k
    for _ in range(n):
        for j in range(k, 0, -1):
            ways[j] += ways[j - 1]
    return ways[k]


def binomial_enumeration_crosscheck(n: int, k: int) -> IdentityReport:
    """Subset listing, path walking, and the multiplicative formula agree."""
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    if n > 22:
        raise DomainError("enumeration crosscheck capped at n <= 22")
    subsets = _count_subsets(n, k)
    paths = _count_paths(n, k)
    formula = binomial(n, k)
    passed = subsets == paths == formula
    return report_check("binom.crosscheck", (n, k), (subsets, paths),
                        formula, passed)


class BinomKind(enum.Enum):
    PASCAL = "pascal"
    SQUARE_PASCAL = "square_pascal"
    SPLIT_J = "split_j"
    ROW_SUM = "row_sum"
    WEIGHTED_3N = "weighted_3n"
    DOUBLE_3N = "double_3n"
    FIB_DIAGONAL = "fib_diagonal"
    HOCKEY_STICK = "hockey_stick"
    ABSORPTION_PRINTED = "absorption_printed"
    ABSORPTION_STANDARD = "absorption_standard"
    COMMITTEE_PRODUCT = "committee_product"


def binom_identity_check(kind: BinomKind, **params: int) -> IdentityReport:
    """Evaluate both sides of one binomial identity exactly."""
    suite = f"binom.{kind.value}"
    n = params.get("n")
    if n is None or n < 0:
        raise DomainError("parameter n >= 0 is required")
    if kind is BinomKind.PASCAL:
        k = _require_k(params, 0, n + 1)
        return report_equal(suite, (n, k), binomial(n + 1, k),
                            binomial(n, k) + binomial(n, k - 1))
    if kind is BinomKind.SQUARE_PASCAL:
        k = _require_k(params, 2, n)
        rhs = (binomial(n - 1, k - 2) + 2 * binomial(n - 1, k - 1)
               + binomial(n - 1, k))
        return report_equal(suite, (n, k), binomial(n + 1, k), rhs)
    if kind is BinomKind.SPLIT_J:
        k = _require_k(params, 0, n)
        j = params.get("j")
        if j is None or not 0 <= j <= k:
            raise DomainError("need 0 <= j <= k")
        rhs = sum(binomial(j, i) * binomial(n + 1 - j, k - i)
                  for i in range(j + 1))
        return report_equal(suite, (n, k, j), binomial(n + 1, k), rhs)
    if kind is BinomKind.ROW_SUM:
        lhs = sum(binomial(n, k) for k in range(n + 1))
        return report_equal(suite, (n,), lhs, 2 ** n)
    if kind is BinomKind.WEIGHTED_3N:
        lhs = sum(2 ** (n - k) * binomial(n, k) for k in range(n + 1))
        return report_equal(suite, (n,), lhs, 3 ** n)
    if kind is BinomKind.DOUBLE_3N:
        lhs = sum(binomial(n, k) * binomial(k, m)
                  for k in range(n + 1) for m in range(k + 1))
        return report_equal(suite, (n,), lhs, 3 ** n)
    if kind is BinomKind.FIB_DIAGONAL:
        if n < 1:
            raise DomainError("need n >= 1")
        lhs = sum(binomial(n - k - 1, k) for k in range((n - 1) // 2 + 1))
        return report_equal(suite, (n,), lhs, fibonacci(n))
    if kind is BinomKind.HOCKEY_STICK:
        k = _require_k(params, 0, n)
        lhs = sum(binomial(i, k) for i in range(k, n + 1))
        return report_equal(suite, (n, k), lhs, binomial(n + 1, k + 1))
    if kind is BinomKind.ABSORPTION_PRINTED:
        k = _require_k(params, 1, n - 1)
        return report_equal(suite, (n, k), n * binomial(n - 1, k),
                            k * binomial(n, k))
    if kind is BinomKind.ABSORPTION_STANDARD:
        k = _require_k(params, 1, n - 1)
        return report_equal(suite, (n, k), k * binomial(n, k),
                            n * binomial(n - 1, k - 1))
    if kind is BinomKind.COMMITTEE_PRODUCT:
        k = _require_k(params, 0, n)
        l = params.get("l")
        if l is None or not 0 <= l <= k:
            raise DomainError("need 0 <= l <= k")
        return report_equal(suite, (n, k, l),
                            binomial(n, l) * binomial(n - l, k - l),
                            binomial(k, l) * binomial(n, k))
    raise DomainError(f"unknown binomial kind {kind!r}")


def _require_k(params: dict, lo: int, hi: int) -> int:
    k = params.get("k")
    if k is None or not lo <= k <= hi:
        raise DomainError(f"need {lo} <= k <= {hi}")
    return k


def absorption_printed_minimal_witness() -> tuple[int, int]:
    """Smallest (n, k) with 1 <= k <= n-1 where the printed identity breaks."""
    for n in itertools.count(2):
        for k in range(1, n):
            if n * binomial(n - 1, k) != k * binomial(n, k):
                return n, k
    raise AssertionError("unreachable")


# --- constrained colorings ----------------------------------------------------

#: Candidate strings tested per numpy block; bounds the memory of one count.
_COLORING_BLOCK = 1 << 14


def _no_adjacent_masks(bits: int) -> np.ndarray:
    """Every bits-long mask with no two adjacent 1s, filtered from all."""
    x = np.arange(1 << bits, dtype=np.uint32)
    return x[(x & (x >> 1)) == 0]


def _count_no_adjacent_ones(n: int) -> int:
    """Count n-bit strings with no two adjacent 1s by testing candidates.

    A valid string has valid high and low halves, so every valid string is
    among the (high, low) pairs of valid halves, exactly once.  Each pair is
    joined and the whole string is tested again, which catches a 1 on both
    sides of the seam.  Pairs go through numpy in blocks of about
    ``_COLORING_BLOCK`` strings.  uint32 words hold n <= 30 bits, the cap
    that `constrained_colorings` enforces.
    """
    low_bits = n // 2
    high = _no_adjacent_masks(n - low_bits)
    low = _no_adjacent_masks(low_bits)
    rows = max(1, _COLORING_BLOCK // len(low))
    count = 0
    for start in range(0, len(high), rows):
        words = (high[start:start + rows, None] << low_bits) | low
        count += np.count_nonzero((words & (words >> 1)) == 0)
    return int(count)


@dataclass(frozen=True)
class ColoringReport:
    n: int
    count: int
    fib_check: bool    # count == f_{n+2}
    binom_check: bool  # count == sum_k C(n-k+1, k)


def constrained_colorings(n: int) -> ColoringReport:
    """Count length-n strings with no two adjacent 1s by testing candidates."""
    if not 1 <= n <= 30:
        raise DomainError("enumeration capped at 1 <= n <= 30")
    count = _count_no_adjacent_ones(n)
    binom_side = sum(binomial(n - k + 1, k) for k in range((n + 1) // 2 + 1))
    return ColoringReport(n, count, count == fibonacci(n + 2),
                          count == binom_side)


def colorings_report(n: int) -> IdentityReport:
    r = constrained_colorings(n)
    passed = r.fib_check and r.binom_check
    return report_check("binom.colorings", (n,), r.count, fibonacci(n + 2),
                        passed)


# --- partitions ----------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise DomainError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise DomainError("parts must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def max_part(self) -> int:
        return self.parts[0] if self.parts else 0

    def num_parts(self) -> int:
        return len(self.parts)


def partitions_enumerate(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, no duplicates."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    if n > 45:
        raise DomainError("partition enumeration capped at n <= 45")
    out: list[Partition] = []
    parts: list[int] = []

    def descend(remaining: int, cap: int):
        if remaining == 0:
            out.append(Partition(tuple(parts)))
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            descend(remaining - part, part)
            parts.pop()

    descend(n, n)
    return out


def partition_conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: column heights become parts."""
    if not p.parts:
        return p
    width = p.parts[0]
    cols = [0] * width
    for part in p.parts:
        for i in range(part):
            cols[i] += 1
    return Partition(tuple(cols))


def _conjugate_pairs(n: int) -> list[tuple[Partition, Partition]]:
    """Every partition of n next to its conjugate, each listed once."""
    return [(p, partition_conjugate(p)) for p in partitions_enumerate(n)]


def _duality_report(n: int, k: int,
                    pairs: list[tuple[Partition, Partition]]
                    ) -> IdentityReport:
    small_parts = [q for p, q in pairs if p.max_part() <= k]
    few_parts = {p.parts for p, _ in pairs if p.num_parts() <= k}
    mapped = {q.parts for q in small_parts}
    bijection = mapped == few_parts and len(mapped) == len(small_parts)
    passed = len(small_parts) == len(few_parts) and bijection
    return report_check("partition.duality", (n, k), len(small_parts),
                        len(few_parts), passed, {"bijection": bijection})


def partition_duality_check(n: int, k: int) -> IdentityReport:
    """Partitions with max part <= k vs partitions with <= k parts.

    Counts both families and additionally verifies that conjugation is an
    exact bijection between them.
    """
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n")
    return _duality_report(n, k, _conjugate_pairs(n))


def partition_duality_reports(n: int) -> list[IdentityReport]:
    """`partition_duality_check(n, k)` for k = 1..n from one enumeration."""
    pairs = _conjugate_pairs(n)
    return [_duality_report(n, k, pairs) for k in range(1, n + 1)]
