"""Independent oracles used only by the tests.

Everything here recomputes a target value by a route disjoint from the
package code: Machin's formula for pi, step-by-step bisection for roots,
trial division and a one-slice-per-divisor sieve for divisor counts, one
Python division per term for floor sums, sums written out term by term, the
pentagonal and bounded-part recurrences for partitions, partitions listed
by recursive descent and conjugated cell by cell, the multiplicative
formula for binomial coefficients, binomial identity sides picked by an
if-chain over the kinds, a geometric partial sum added one
Fraction at a time, matrix powers for Fibonacci, Jordan rows classified in Fractions, triangles scanned point by
point, points sorted by angle with a Fraction comparator, pure-Python
restatements of the numpy simulations, the Ceva and two-squares checks
solved in Fractions, and report fields rendered through an isinstance chain
and a rebuilt Fraction.  Tests compare package output against these, never
against the package's own formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from twoside import combinatorics as comb
from twoside.lattice_pick import boundary_points
from twoside.exact_core import (Bracket, DomainError, _int_to_str,
                                _PowComparator, bracket_point)
from twoside.polyform import builtin_identities, identity_check
from twoside.report import IdentityReport, report_check, report_equal
from twoside.rng import MASK64, SplitMix64
from twoside.sums_fib import fibonacci


def arctan_bracket(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Alternating-series bracket for arctan(x), 0 < x < 1."""
    partial = Fraction(0)
    power = Fraction(x)
    previous = None
    for i in range(terms):
        term = power / (2 * i + 1)
        partial = partial + term if i % 2 == 0 else partial - term
        power *= x * x
        if previous is not None and i == terms - 1:
            lo, hi = sorted((previous, partial))
            return lo, hi
        previous = partial
    raise ValueError("need at least two terms")


def machin_pi_bracket(terms: int = 30) -> tuple[Fraction, Fraction]:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) with rigorous endpoints."""
    a_lo, a_hi = arctan_bracket(Fraction(1, 5), terms)
    b_lo, b_hi = arctan_bracket(Fraction(1, 239), terms)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def bisect_root(value: Fraction, k: int, steps: int,
                hi: Fraction | None = None) -> tuple[Fraction, Fraction]:
    """Plain bisection for the k-th root of value >= 0, `steps` halvings."""
    value = Fraction(value)
    if hi is None:
        hi = Fraction(max(1, value.numerator // value.denominator + 1))
    hi = Fraction(hi)
    assert hi ** k >= value
    lo = Fraction(0)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if mid ** k <= value:
            lo = mid
        else:
            hi = mid
    return lo, hi


def root_bracket_bisection(q: Fraction, k: int, eps: Fraction) -> Bracket:
    """The k-th root bracket of q >= 0 by bisection, one Fraction step per bit.

    Starts from [floor(q**(1/k)), floor(q**(1/k)) + 1], or [0, 1] for q < 1,
    and halves until the width is <= eps, stopping early at an exact root.
    Signs of mid**k - q come from exact_core's comparator, which its own
    property test checks against the full integer product.
    """
    q, eps = Fraction(q), Fraction(eps)
    if q == 0:
        return bracket_point(0)
    comparator = _PowComparator(k, q.numerator, q.denominator)

    def cmp(mid: Fraction) -> int:
        return comparator.cmp(mid.numerator, mid.denominator)

    if q >= 1:
        r = _int_kth_root(q.numerator // q.denominator, k)
        if cmp(Fraction(r)) == 0:
            return bracket_point(r)
        lo, hi = Fraction(r), Fraction(r + 1)
    else:
        lo, hi = Fraction(0), Fraction(1)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        c = cmp(mid)
        if c == 0:
            return bracket_point(mid)
        if c < 0:
            lo = mid
        else:
            hi = mid
    return Bracket(lo, hi)


def _int_kth_root(n: int, k: int) -> int:
    """Largest r with r**k <= n, for n >= 0, k >= 1, by bisection."""
    if n < 2 or k == 1:
        return n
    comparator = _PowComparator(k, n, 1)
    bits = n.bit_length()
    lo = 1 << max(0, (bits - 1) // k)   # lo**k <= 2**(bits-1) <= n
    hi = 1 << ((bits + k - 1) // k)     # hi**k >= 2**bits > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c = comparator.cmp(mid, 1)
        if c == 0:
            return mid
        if c < 0:
            lo = mid
        else:
            hi = mid
    return lo


def trial_division_divisor_count(k: int) -> int:
    count = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            count += 1 if d * d == k else 2
        d += 1
    return count


def floor_sum_loop(n: int) -> int:
    """n + [n/2] + ... + [n/n], one Python division per term."""
    total = 0
    for k in range(1, n + 1):
        total += n // k
    return total


def literal_sum(kind: str, n: int) -> int:
    """The counting side of the `sum.<kind>` identity at n, written out
    term by term from scratch."""
    if kind in ("triangular", "triangular_binom"):
        return sum(range(1, n + 1))
    if kind == "odd_square":
        return sum(2 * i - 1 for i in range(1, n + 1))
    if kind == "even":
        return sum(2 * i for i in range(1, n + 1))
    if kind == "updown":
        return sum(range(1, n + 1)) + sum(range(n - 1, 0, -1))
    if kind == "squares":
        return sum(i * i for i in range(1, n + 1))
    if kind == "cubes":
        return sum(i ** 3 for i in range(1, n + 1))
    if kind == "fib_squares":
        total = 0
        a, b = 1, 1
        for _ in range(n):
            total += a * a
            a, b = b, a + b
        return total
    if kind == "adj_triangular":
        return sum(range(1, n + 1)) + sum(range(1, n + 2))
    if kind == "palindrome_odd":
        return (sum(2 * i + 1 for i in range(0, n + 1))
                + sum(2 * i + 1 for i in range(n - 1, -1, -1)))
    if kind == "cube_layers":
        return (sum(n * i for i in range(1, n + 1))
                + sum(n * i for i in range(n - 1, 0, -1)))
    raise ValueError(f"unknown sum kind {kind!r}")


def geometric_series_sum_fraction(a, r, n_terms: int) -> Bracket:
    """a + ar + ... + ar^N, each term added as a Fraction, and the tail."""
    a, r = Fraction(a), Fraction(r)
    partial = Fraction(0)
    power = Fraction(1)
    for _ in range(n_terms + 1):
        partial += a * power
        power *= r
    tail = abs(a * power / (1 - r))
    return Bracket(partial, partial + tail)


def swineshead_check_fraction(n_terms: int) -> IdentityReport:
    """Swineshead's partial sum of k/2^k, each term added as a Fraction."""
    partial = Fraction(0)
    for k in range(n_terms + 1):
        partial += Fraction(k, 2 ** k)
    remainder = Fraction(n_terms + 2, 2 ** n_terms)
    closed_partial = 2 - remainder
    bracket = Bracket(partial, partial + remainder)
    return report_check((n_terms,), partial, closed_partial,
                        partial == closed_partial and bracket.contains(2))


def rows_rearrangement_check_fraction(n_rows: int) -> IdentityReport:
    """Rows of tails against columns, each term added as a Fraction."""
    by_rows = Fraction(0)
    for j in range(1, n_rows + 1):
        row = Fraction(0)
        for i in range(j, n_rows + 1):
            row += Fraction(1, 2 ** i)
        by_rows += row
    by_columns = Fraction(0)
    for i in range(1, n_rows + 1):
        by_columns += Fraction(i, 2 ** i)
    return report_equal((n_rows,), by_rows, by_columns)


def coin_game_series_partial_fraction(n: int, l_start: int,
                                      l_max: int) -> Fraction:
    """Sum of C(2L, n-1) / 2^(2L+1), each term added as a Fraction."""
    total = Fraction(0)
    for level in range(l_start, l_max + 1):
        total += Fraction(math.comb(2 * level, n - 1), 2 ** (2 * level + 1))
    return total

def fibonacci_matrix(n: int) -> int:
    """f_n via fast 2x2 matrix powers, f_1 = f_2 = 1."""

    def mul(m1, m2):
        (a, b), (c, d) = m1
        (e, f), (g, h) = m2
        return ((a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h))

    result = ((1, 0), (0, 1))
    base = ((1, 1), (1, 0))
    e = n
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result[0][1]


def partition_count_pentagonal(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if j % 2 == 1 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p[n]


def segment_lattice_points(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Lattice points on the closed segment, endpoints excluded, by scan."""
    (x1, y1), (x2, y2) = a, b
    count = 0
    for x in range(min(x1, x2), max(x1, x2) + 1):
        for y in range(min(y1, y2), max(y1, y2) + 1):
            if (x, y) in (a, b):
                continue
            if (x - x1) * (y2 - y1) == (y - y1) * (x2 - x1):
                if min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
                    count += 1
    return count


def shoelace_rational(vertices) -> Fraction:
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return abs(total) / 2


# --- Jordan grid brackets in rational arithmetic -------------------------------
#
# The row classifier jordan_measure used before it moved to scaled integers:
# every row is cut out in Fraction arithmetic, by clipping the polygon to the
# row's slab or by exact square-root bounds for the disk.

def _int_above(x: Fraction) -> int:
    """Smallest integer strictly greater than x."""
    return x.numerator // x.denominator + 1


def _int_below(x: Fraction) -> int:
    """Largest integer strictly less than x."""
    return -((-x).numerator // (-x).denominator) - 1


def _floor_add_sqrt(u: Fraction, b: Fraction) -> int:
    """floor(u + sqrt(b)) for rational u and rational b >= 0, exact.

    An integer-sqrt guess is corrected by the exact predicate
    i <= u + sqrt(b)  <=>  i <= u or (i - u)^2 <= b.
    """
    assert b >= 0
    s = math.isqrt(b.numerator * b.denominator)
    cand = (u.numerator * b.denominator
            + u.denominator * s) // (u.denominator * b.denominator)

    def ok(i: int) -> bool:
        diff = i - u
        return diff <= 0 or diff * diff <= b

    while ok(cand + 1):
        cand += 1
    while not ok(cand):
        cand -= 1
    return cand


def _ceil_sub_sqrt(u: Fraction, b: Fraction) -> int:
    """Smallest integer >= u - sqrt(b)."""
    return -_floor_add_sqrt(-u, b)


def _disk_row_counts(disk, n: int, x0: Fraction, cols: int,
                     y_lo: Fraction, y_hi: Fraction) -> tuple[int, int]:
    (cx, cy), r = disk.center, disk.radius
    r_sq = r * r
    if cy < y_lo:
        near = y_lo - cy
    elif cy > y_hi:
        near = cy - y_hi
    else:
        near = Fraction(0)
    far = max(abs(y_lo - cy), abs(y_hi - cy))
    # Column indices in grid units: cell i spans [i, i+1] of scaled x.
    u = (cx - x0) * n
    outer = 0
    reach_sq = (r_sq - near * near) * n * n
    if reach_sq >= 0:
        i_hi = min(cols - 1, _floor_add_sqrt(u, reach_sq))
        i_lo = max(0, _ceil_sub_sqrt(u, reach_sq) - 1)
        if i_hi >= i_lo:
            outer = i_hi - i_lo + 1
    inner = 0
    core_sq = (r_sq - far * far) * n * n
    if core_sq > 0:
        lo_guess = _floor_add_sqrt(-u, core_sq)   # floor(sqrt - u) bounds -i
        i_min = max(0, -lo_guess)
        i_max = min(cols - 1, _floor_add_sqrt(u, core_sq))

        def strictly_inside(i: int) -> bool:
            return ((i - u) * (i - u) < core_sq
                    and (i + 1 - u) * (i + 1 - u) < core_sq)

        while i_min <= i_max and not strictly_inside(i_min):
            i_min += 1
        while i_max >= i_min and not strictly_inside(i_max):
            i_max -= 1
        if i_max >= i_min:
            inner = i_max - i_min + 1
    return inner, outer


def _slab_x_extent(vertices, y_lo: Fraction,
                   y_hi: Fraction) -> tuple[Fraction, Fraction] | None:
    """x-range of the polygon clipped to the closed slab y in [y_lo, y_hi]."""
    pts = list(vertices)
    for keep_low in (True, False):
        bound = y_lo if keep_low else y_hi
        clipped = []
        m = len(pts)
        for i in range(m):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % m]
            a_in = ay >= bound if keep_low else ay <= bound
            b_in = by >= bound if keep_low else by <= bound
            if a_in:
                clipped.append((ax, ay))
            if a_in != b_in:
                t = (bound - ay) / (by - ay)
                clipped.append((ax + t * (bx - ax), bound))
        pts = clipped
        if not pts:
            return None
    xs = [p[0] for p in pts]
    return min(xs), max(xs)


def _open_cross_section(vertices,
                        y: Fraction) -> tuple[Fraction, Fraction] | None:
    """Open interval (l, r) with (x, y) strictly inside iff l < x < r."""
    lower = upper = None
    m = len(vertices)
    for i in range(m):
        px, py = vertices[i]
        qx, qy = vertices[(i + 1) % m]
        dy = qy - py
        # strict interior requires (qx-px)(y-py) - dy(x-px) > 0
        if dy == 0:
            if (qx - px) * (y - py) <= 0:
                return None
            continue
        x_cross = px + (qx - px) * (y - py) / dy
        if dy > 0:
            upper = x_cross if upper is None else min(upper, x_cross)
        else:
            lower = x_cross if lower is None else max(lower, x_cross)
    if lower is None or upper is None or lower >= upper:
        return None
    return lower, upper


def _poly_row_counts(poly, n: int, x0: Fraction, cols: int,
                     y_lo: Fraction, y_hi: Fraction) -> tuple[int, int]:
    outer = 0
    extent = _slab_x_extent(poly.vertices, y_lo, y_hi)
    if extent is not None:
        a = (extent[0] - x0) * n
        b = (extent[1] - x0) * n
        # cell [i, i+1] meets [a, b] iff i <= b and i + 1 >= a
        i_lo = max(0, math.ceil(a) - 1)
        i_hi = min(cols - 1, math.floor(b))
        if i_hi >= i_lo:
            outer = i_hi - i_lo + 1
    inner = 0
    top = _open_cross_section(poly.vertices, y_hi)
    bottom = _open_cross_section(poly.vertices, y_lo)
    if top is not None and bottom is not None:
        left = max(top[0], bottom[0])
        right = min(top[1], bottom[1])
        if left < right:
            a = (left - x0) * n
            b = (right - x0) * n
            i_min = max(0, _int_above(a))          # need i > a
            i_max = min(cols - 1, _int_below(b) - 1)  # need i + 1 < b
            if i_max >= i_min:
                inner = i_max - i_min + 1
    return inner, outer


def jordan_bracket_fraction(region, n: int) -> tuple[Fraction, Fraction]:
    """(inner, outer) grid area on the 1/n grid, each row in Fractions.

    `region` is a jordan_measure Disk (it has a `radius`) or ConvexPolygon.
    """
    x0, y0, x1, y1 = region.bounding_box()
    cols = math.ceil((x1 - x0) * n)
    rows = math.ceil((y1 - y0) * n)
    row_counts = (_disk_row_counts if hasattr(region, "radius")
                  else _poly_row_counts)
    inner_cells = outer_cells = 0
    for j in range(rows):
        inner, outer = row_counts(region, n, x0, cols, y0 + Fraction(j, n),
                                  y0 + Fraction(j + 1, n))
        inner_cells += inner
        outer_cells += outer
    return Fraction(inner_cells, n * n), Fraction(outer_cells, n * n)


def divisor_counts_per_i(n: int) -> list[int]:
    """d[k] for 0 <= k <= n by one slice per i: each i bumps its multiples."""
    d = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        d[i::i] += 1
    return d.tolist()


def partition_count(n: int) -> int:
    """p(n) by the bounded-part recurrence, independent of enumeration."""
    # ways[m] = partitions of m with parts <= current bound
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def binomial_multiplicative(n: int, k: int) -> int:
    """C(n, k) as n/1 * (n-1)/2 * ...; 0 outside 0 <= k <= n.

    Every partial product is an integer, so each division is exact.
    """
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result


def binom_identity_check_chain(kind, **params: int) -> IdentityReport:
    """`binom_identity_check` with each kind's sides picked by an if-chain,
    reading the same table and `binomial` through the module."""
    n = params.get("n")
    if n is None or n < 0:
        raise DomainError("parameter n >= 0 is required")
    if n > comb.BINOM_MAX_N:
        raise DomainError("binomial identities capped")
    T = comb._pascal_rows(n + 1)
    K = comb.BinomKind
    at, binomial, require_k = comb._at, comb.binomial, comb._require_k
    if kind is K.PASCAL:
        k = require_k(params, 0, n + 1)
        return report_equal((n, k), binomial(n + 1, k),
                            at(T[n], k) + at(T[n], k - 1))
    if kind is K.SQUARE_PASCAL:
        k = require_k(params, 2, n)
        row = T[n - 1]
        rhs = row[k - 2] + 2 * row[k - 1] + at(row, k)
        return report_equal((n, k), binomial(n + 1, k), rhs)
    if kind is K.SPLIT_J:
        k = require_k(params, 0, n)
        j = params.get("j")
        if j is None or not 0 <= j <= k:
            raise DomainError("need 0 <= j <= k")
        a, b = T[j], T[n + 1 - j]
        rhs = sum(a[i] * b[k - i] for i in range(max(0, k + j - n - 1), j + 1))
        return report_equal((n, k, j), binomial(n + 1, k), rhs)
    if kind is K.ROW_SUM:
        return report_equal((n,), sum(T[n]), 2 ** n)
    if kind is K.WEIGHTED_3N:
        lhs = sum(2 ** (n - k) * c for k, c in enumerate(T[n]))
        return report_equal((n,), lhs, 3 ** n)
    if kind is K.DOUBLE_3N:
        lhs = sum(c * sum(T[k]) for k, c in enumerate(T[n]))
        return report_equal((n,), lhs, 3 ** n)
    if kind is K.FIB_DIAGONAL:
        if n < 1:
            raise DomainError("need n >= 1")
        lhs = sum(T[n - k - 1][k] for k in range((n - 1) // 2 + 1))
        return report_equal((n,), lhs, fibonacci(n))
    if kind is K.HOCKEY_STICK:
        k = require_k(params, 0, n)
        lhs = sum(T[i][k] for i in range(k, n + 1))
        return report_equal((n, k), lhs, binomial(n + 1, k + 1))
    if kind is K.ABSORPTION_PRINTED:
        k = require_k(params, 1, n - 1)
        return report_equal((n, k), n * T[n - 1][k],
                            k * binomial(n, k))
    if kind is K.ABSORPTION_STANDARD:
        k = require_k(params, 1, n - 1)
        return report_equal((n, k), k * T[n][k],
                            n * binomial(n - 1, k - 1))
    if kind is K.COMMITTEE_PRODUCT:
        k = require_k(params, 0, n)
        l = params.get("l")
        if l is None or not 0 <= l <= k:
            raise DomainError("need 0 <= l <= k")
        return report_equal((n, k, l), T[n][l] * T[n - l][k - l],
                            binomial(k, l) * binomial(n, k))
    raise DomainError(f"unknown binomial kind {kind!r}")


def partitions_descend(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order by recursive descent
    over one shared list of parts."""
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def descend(remaining: int, cap: int):
        if remaining == 0:
            out.append(tuple(parts))
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            descend(remaining - part, part)
            parts.pop()

    descend(n, n)
    return out


def partition_conjugate_cells(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate by counting the Young diagram's cells column by column."""
    cols = [0] * (p[0] if p else 0)
    for part in p:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


def partition_duality_oracle(n: int) -> list[IdentityReport]:
    """The partition.duality reports for k = 1..n, each recounted from the
    whole list of (partition, conjugate) pairs filtered by largest part and
    by number of parts."""
    pairs = [(p, partition_conjugate_cells(p)) for p in partitions_descend(n)]
    reports = []
    for k in range(1, n + 1):
        small_parts = [q for p, q in pairs if p[0] <= k]
        few_parts = {p for p, _ in pairs if len(p) <= k}
        mapped = set(small_parts)
        bijection = mapped == few_parts and len(mapped) == len(small_parts)
        passed = len(small_parts) == len(few_parts) and bijection
        reports.append(report_check((n, k), len(small_parts),
                                    len(few_parts), passed,
                                    {"bijection": bijection}))
    return reports


def run_builtin_suite():
    """`identity_check` of every built-in polyform identity, by name."""
    return {name: identity_check(lhs, rhs, vs)
            for name, (lhs, rhs, vs) in builtin_identities().items()}


def reference_monte_carlo_dice(trials: int, seed: int,
                               limit: int = (1 << 64) - ((1 << 64) % 6)
                               ) -> int:
    """Pure-Python restatement of monte_carlo_dice: one splitmix64 stream
    per trial, rolled until a six.  A roll redraws raw words at or above
    limit, a multiple of six (the top one by default)."""
    hits = 0
    for t in range(trials):
        rng = SplitMix64((seed & MASK64) ^ t)
        starter_turn = True
        while True:
            u = rng.next_u64()
            while u >= limit:
                u = rng.next_u64()
            if u % 6 == 5:
                hits += starter_turn
                break
            starter_turn = not starter_turn
    return hits


def reference_monte_carlo_coin(n: int, trials: int, seed: int) -> int:
    """Pure-Python restatement of monte_carlo_coin: flips until the n-th
    head, one splitmix64 stream per trial."""
    hits = 0
    for t in range(trials):
        rng = SplitMix64((seed & MASK64) ^ t)
        heads = 0
        starter_turn = True
        while True:
            heads += rng.coin_bit()
            if heads == n:
                hits += starter_turn
                break
            starter_turn = not starter_turn
    return hits


def triangle_points_scan(t) -> int:
    """Lattice points in the closed triangle t, vertices excluded, by
    testing every point of its bounding box against the three edges."""
    a, b, c = t
    if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
        b, c = c, b
    count = 0
    for x in range(min(a[0], b[0], c[0]), max(a[0], b[0], c[0]) + 1):
        for y in range(min(a[1], b[1], c[1]), max(a[1], b[1], c[1]) + 1):
            if (x, y) in (a, b, c):
                continue
            if all((q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0]) >= 0
                   for p, q in ((a, b), (b, c), (c, a))):
                count += 1
    return count


def triangle_points_by_edge(t) -> list[list]:
    """The lattice points on each edge a-b, b-c, c-a of the counterclockwise
    triangle t alone, then those strictly inside, each list sorted, by
    testing every point of its bounding box."""
    out: list[list] = [[], [], [], []]
    for x in range(min(p[0] for p in t), max(p[0] for p in t) + 1):
        for y in range(min(p[1] for p in t), max(p[1] for p in t) + 1):
            d = [(q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0])
                 for p, q in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))]
            if min(d) < 0 or d.count(0) == 2:     # outside, or a vertex
                continue
            out[d.index(0) if 0 in d else 3].append((x, y))
    return out


def interior_count_fraction(p) -> int:
    """Lattice points strictly inside a `LatticePolygon`: each row's edge
    crossings as `Fraction`s, sorted, and every x between a pair tested
    against the set of border points."""
    x0, y0, x1, y1 = p.bounding_box()
    on_border = boundary_points(p)
    count = 0
    for y in range(y0, y1 + 1):
        crossings = sorted(
            Fraction(ex1 * (ey2 - ey1) + (y - ey1) * (ex2 - ex1), ey2 - ey1)
            for (ex1, ey1), (ex2, ey2) in p.edges()
            if (ey1 > y) != (ey2 > y))
        for left, right in zip(crossings[::2], crossings[1::2]):
            for x in range(math.ceil(left), math.floor(right) + 1):
                if (x, y) not in on_border:
                    count += 1
    return count


def angular_sort_comparator(points) -> list:
    """Points ordered around their centroid by a pairwise comparator over
    Fraction offsets: half-plane first (dy > 0, or dy = 0 and dx > 0, is
    the first half), then the cross product, then the squared radius."""
    k = len(points)
    cx = Fraction(sum(p[0] for p in points), k)
    cy = Fraction(sum(p[1] for p in points), k)

    def compare(p, q) -> int:
        pdx, pdy = p[0] - cx, p[1] - cy
        qdx, qdy = q[0] - cx, q[1] - cy
        ph = 0 if (pdy > 0 or (pdy == 0 and pdx > 0)) else 1
        qh = 0 if (qdy > 0 or (qdy == 0 and qdx > 0)) else 1
        if ph != qh:
            return -1 if ph < qh else 1
        cross = pdx * qdy - pdy * qdx
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        pr = pdx * pdx + pdy * pdy
        qr = qdx * qdx + qdy * qdy
        return -1 if pr < qr else (1 if pr > qr else 0)

    return sorted(points, key=cmp_to_key(compare))


# --- Euclid checks in Fractions ----------------------------------------------

def _cross_fraction(o, a, b) -> Fraction:
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def _fraction_point(p) -> tuple[Fraction, Fraction]:
    x, y = p
    return (Fraction(x), Fraction(y))


def line_intersection_fraction(p1, p2, p3, p4) -> tuple[Fraction, Fraction]:
    """Lines p1p2 and p3p4 met by solving p1 + t*(p2 - p1) in Fractions."""
    p1, p2, p3, p4 = map(_fraction_point, (p1, p2, p3, p4))
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        raise DomainError("parallel lines do not intersect")
    t = ((p3[0] - p1[0]) * d2y - (p3[1] - p1[1]) * d2x) / denom
    return (p1[0] + t * d1x, p1[1] + t * d1y)


def _ratio_along_fraction(p, q, x) -> Fraction:
    dx, dy = q[0] - p[0], q[1] - p[1]
    if abs(dx) >= abs(dy):
        t = (x[0] - p[0]) / dx
    else:
        t = (x[1] - p[1]) / dy
    if not 0 < t < 1:
        raise DomainError("cevian foot is not interior to the side")
    return t / (1 - t)


def ceva_product_fraction(a, b, c, p) -> Fraction:
    """BX/XC * CY/YA * AZ/ZB with every coordinate a Fraction."""
    a, b, c, p = map(_fraction_point, (a, b, c, p))
    orient = _cross_fraction(a, b, c)
    if orient == 0:
        raise DomainError("degenerate triangle")
    sign = 1 if orient > 0 else -1
    if not all(sign * _cross_fraction(u, v, p) > 0
               for u, v in ((a, b), (b, c), (c, a))):
        raise DomainError("point must be strictly inside the triangle")
    x = line_intersection_fraction(a, p, b, c)
    y = line_intersection_fraction(b, p, c, a)
    z = line_intersection_fraction(c, p, a, b)
    return (_ratio_along_fraction(b, c, x) * _ratio_along_fraction(c, a, y)
            * _ratio_along_fraction(a, b, z))


def _divide_fraction(p, q, ratio: Fraction):
    t = ratio / (1 + ratio)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def ceva_converse_check_fraction(cfg) -> IdentityReport:
    """Z' = CP /\\ AB against Z for a CevaConfig, in Fractions."""
    r1, r2, r3 = cfg.ratios
    if r1 * r2 * r3 != 1:
        raise DomainError("ratio product must be exactly 1")
    x = _divide_fraction(cfg.b, cfg.c, r1)
    y = _divide_fraction(cfg.c, cfg.a, r2)
    z = _divide_fraction(cfg.a, cfg.b, r3)
    p = line_intersection_fraction(cfg.a, x, cfg.b, y)
    z_prime = line_intersection_fraction(cfg.c, p, cfg.a, cfg.b)
    return report_check(cfg.ratios, z_prime, z, z_prime == z)


def squares_intersection_check_fraction(a, b) -> IdentityReport:
    """AF and DE met with BG in Fractions, against ab/(a+b) by similarity:
    the report `squares_fit_report` makes."""
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("square sides must be positive")
    origin = (Fraction(0), Fraction(0))
    h = line_intersection_fraction((-a, 0), (b, b), (0, b), origin)
    i = line_intersection_fraction((-a, a), (b, 0), (0, b), origin)
    x_sim = a * b / (a + b)
    y_sim = b * a / (a + b)
    on_bg = h[0] == 0 and 0 < h[1] < b
    passed = (h == i and on_bg and h[1] == x_sim and i[1] == y_sim
              and x_sim == y_sim)
    return report_check((a, b), x_sim, y_sim, passed, {"intersection": h})


# --- report rendering by isinstance ------------------------------------------

def rat_to_str_fraction(q) -> str:
    """"p/q" or "p", read from a Fraction rebuilt from any rational."""
    q = Fraction(q)
    if q.denominator == 1:
        return _int_to_str(q.numerator)
    return f"{_int_to_str(q.numerator)}/{_int_to_str(q.denominator)}"


def render_value_isinstance(v) -> str:
    """A report field's string, dispatched by isinstance alone."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _int_to_str(v)
    if isinstance(v, Fraction):
        return rat_to_str_fraction(v)
    if isinstance(v, Bracket):
        return str(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(render_value_isinstance(x) for x in v) + ")"
    return str(v)
