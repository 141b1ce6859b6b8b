"""Binomial identities with enumeration oracles, colorings, and partitions.

Each binomial identity is evaluated exactly, one side from a Pascal table
built by additions and the other from `math.comb` or a closed form; the
enumeration-backed checks (subset counting, lattice path walking,
constrained strings, Young diagrams) recount the same finite set in
independent ways so agreement is meaningful rather than definitional.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator

from ._lazy import np
from .exact_core import DomainError
from .report import IdentityReport, report_check, report_equal
from .sums_fib import fibonacci


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; 0 outside the triangle 0 <= k <= n."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


#: Largest n `binom_identity_check` accepts; its sides read table rows up to
#: n + 1.
BINOM_MAX_N = 300

#: Pascal's triangle, row n at index n, grown by `_pascal_rows` on demand.
_PASCAL: list[list[int]] = [[1]]


def _pascal_rows(n: int) -> list[list[int]]:
    """Pascal's triangle through row n, each row the pairwise sums of the
    row above with a 1 at each end: additions only, no multiplication."""
    rows = _PASCAL
    while len(rows) <= n:
        prev = rows[-1]
        rows.append([1, *map(operator.add, prev, prev[1:]), 1])
    return rows


def _at(row: list[int], k: int) -> int:
    """Entry k of a table row; 0 outside the row, as for `binomial`."""
    return row[k] if 0 <= k < len(row) else 0


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
    """Subset listing, path walking, and `binomial` agree."""
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    if n > 22:
        raise DomainError("enumeration crosscheck capped at n <= 22")
    subsets = _count_subsets(n, k)
    paths = _count_paths(n, k)
    formula = binomial(n, k)
    passed = subsets == paths == formula
    return report_check((n, k), (subsets, paths), formula, passed)


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
    """Evaluate both sides of one binomial identity exactly.

    One side reads the Pascal table of additions; the other is `binomial`
    (`math.comb`) or a closed form, so an error in either route shows.
    Each kind's two sides are one function, found in `_SIDES`.
    """
    sides = _SIDES.get(kind)
    if sides is None:
        raise DomainError(f"unknown binomial kind {kind!r}")
    n = params.get("n")
    if n is None or n < 0:
        raise DomainError("parameter n >= 0 is required")
    if n > BINOM_MAX_N:
        raise DomainError(f"binomial identities capped at n <= {BINOM_MAX_N}")
    point, lhs, rhs = sides(_pascal_rows(n + 1), n, params)
    return report_equal(point, lhs, rhs)


def _require_k(params: dict, lo: int, hi: int) -> int:
    k = params.get("k")
    if k is None or not lo <= k <= hi:
        raise DomainError(f"need {lo} <= k <= {hi}")
    return k


# The two sides of each kind, from the Pascal table T (rows 0..n + 1) and
# the parameters: (parameter point, lhs, rhs).

def _pascal_sides(T, n, params):
    k = _require_k(params, 0, n + 1)
    return (n, k), binomial(n + 1, k), _at(T[n], k) + _at(T[n], k - 1)


def _square_pascal_sides(T, n, params):
    k = _require_k(params, 2, n)
    row = T[n - 1]
    return ((n, k), binomial(n + 1, k),
            row[k - 2] + 2 * row[k - 1] + _at(row, k))


def _split_j_sides(T, n, params):
    k = _require_k(params, 0, n)
    j = params.get("j")
    if j is None or not 0 <= j <= k:
        raise DomainError("need 0 <= j <= k")
    a, b = T[j], T[n + 1 - j]
    # Terms with k - i past the end of row n + 1 - j are 0.
    rhs = sum(a[i] * b[k - i] for i in range(max(0, k + j - n - 1), j + 1))
    return (n, k, j), binomial(n + 1, k), rhs


def _row_sum_sides(T, n, params):
    return (n,), sum(T[n]), 2 ** n


def _weighted_3n_sides(T, n, params):
    return (n,), sum(2 ** (n - k) * c for k, c in enumerate(T[n])), 3 ** n


def _double_3n_sides(T, n, params):
    # sum over k <= n and m <= k of T[n][k] * T[k][m], inner sum first.
    return (n,), sum(c * sum(T[k]) for k, c in enumerate(T[n])), 3 ** n


def _fib_diagonal_sides(T, n, params):
    if n < 1:
        raise DomainError("need n >= 1")
    lhs = sum(T[n - k - 1][k] for k in range((n - 1) // 2 + 1))
    return (n,), lhs, fibonacci(n)


def _hockey_stick_sides(T, n, params):
    k = _require_k(params, 0, n)
    lhs = sum(T[i][k] for i in range(k, n + 1))
    return (n, k), lhs, binomial(n + 1, k + 1)


def _absorption_printed_sides(T, n, params):
    k = _require_k(params, 1, n - 1)
    return (n, k), n * T[n - 1][k], k * binomial(n, k)


def _absorption_standard_sides(T, n, params):
    k = _require_k(params, 1, n - 1)
    return (n, k), k * T[n][k], n * binomial(n - 1, k - 1)


def _committee_product_sides(T, n, params):
    k = _require_k(params, 0, n)
    l = params.get("l")
    if l is None or not 0 <= l <= k:
        raise DomainError("need 0 <= l <= k")
    return ((n, k, l), T[n][l] * T[n - l][k - l],
            binomial(k, l) * binomial(n, k))


#: Each kind's sides.
_SIDES = {
    BinomKind.PASCAL: _pascal_sides,
    BinomKind.SQUARE_PASCAL: _square_pascal_sides,
    BinomKind.SPLIT_J: _split_j_sides,
    BinomKind.ROW_SUM: _row_sum_sides,
    BinomKind.WEIGHTED_3N: _weighted_3n_sides,
    BinomKind.DOUBLE_3N: _double_3n_sides,
    BinomKind.FIB_DIAGONAL: _fib_diagonal_sides,
    BinomKind.HOCKEY_STICK: _hockey_stick_sides,
    BinomKind.ABSORPTION_PRINTED: _absorption_printed_sides,
    BinomKind.ABSORPTION_STANDARD: _absorption_standard_sides,
    BinomKind.COMMITTEE_PRODUCT: _committee_product_sides,
}


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
    that `colorings_report` enforces.
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


def colorings_report(n: int) -> IdentityReport:
    """Length-n strings with no two adjacent 1s, counted by testing
    candidates, against f_{n+2}; the report passes when the count also
    equals sum_k C(n-k+1, k)."""
    if not 1 <= n <= 30:
        raise DomainError("enumeration capped at 1 <= n <= 30")
    count = _count_no_adjacent_ones(n)
    fib_side = fibonacci(n + 2)
    binom_side = sum(binomial(n - k + 1, k) for k in range((n + 1) // 2 + 1))
    return report_check((n,), count, fib_side,
                        count == fib_side and count == binom_side)


# --- partitions ----------------------------------------------------------------

def partitions_enumerate(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as weakly decreasing tuples, in reverse
    lexicographic order, no duplicates.

    Listed without recursion by ZS1 (Zoghbi and Stojmenovic, 1998): the
    parts live in one list of n entries past whose last part every entry
    is 1, and ``h`` indexes the last part above 1.  Each step lowers that
    part by one and spreads it with the 1s after it into copies of the
    lowered part and a remainder, which gives the next partition.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if n > 45:
        raise DomainError("partition enumeration capped at n <= 45")
    x = [1] * n
    x[0] = n
    m = 1   # number of parts
    h = 0   # index of the last part above 1
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            t = m - h       # the lowered part's share plus the 1s after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[:m]))
    return out


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of the Young diagram of weakly decreasing positive
    parts: entry i counts parts > i."""
    cols = []
    height = len(parts)
    for i in range(parts[0] if parts else 0):
        while parts[height - 1] <= i:
            height -= 1
        cols.append(height)
    return tuple(cols)


def partition_conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of the Young diagram: entry i counts parts > i."""
    if list(parts) != sorted(parts, reverse=True):
        raise DomainError("parts must be weakly decreasing")
    if parts and parts[-1] < 1:
        raise DomainError("parts must be positive")
    return _conjugate(parts)


def partition_duality_reports(n: int) -> list[IdentityReport]:
    """Partitions with max part <= k vs partitions with <= k parts, k = 1..n.

    Counts both families and additionally verifies that conjugation is an
    exact bijection between them.  The partitions of n are listed once: each
    one's conjugate is filed under its largest part, and the partition
    itself under its number of parts, so both families grow with k.  The
    listed partitions are already valid, so they are conjugated without
    the checks of `partition_conjugate`.  Set equality of the conjugates
    and the family with few parts is read off a running count of the
    members in only one of the two sets, kept as each k's members are
    added, so the whole sweep costs O(p(n)) set operations.
    """
    by_largest: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    by_count: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for parts in partitions_enumerate(n):
        by_largest[parts[0]].append(_conjugate(parts))
        by_count[len(parts)].append(parts)
    small_parts = 0  # conjugates of partitions with max part <= k
    mapped: set[tuple[int, ...]] = set()
    few_parts: set[tuple[int, ...]] = set()
    unmatched = 0    # size of the symmetric difference of the two sets
    reports = []
    for k in range(1, n + 1):
        small_parts += len(by_largest[k])
        for q in by_largest[k]:
            if q not in mapped:
                mapped.add(q)
                unmatched += -1 if q in few_parts else 1
        for p in by_count[k]:
            if p not in few_parts:
                few_parts.add(p)
                unmatched += -1 if p in mapped else 1
        bijection = unmatched == 0 and len(mapped) == small_parts
        passed = small_parts == len(few_parts) and bijection
        reports.append(report_check((n, k), small_parts, len(few_parts),
                                    passed, {"bijection": bijection}))
    return reports
