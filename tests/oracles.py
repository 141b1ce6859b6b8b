"""Independent oracles used only by the tests.

Everything here recomputes a target value by a route disjoint from the
package code: Machin's formula for pi, plain bisection for roots, trial
division for divisor counts, one Python division per term for floor sums,
sums written out term by term, the pentagonal recurrence for partitions,
matrix powers for Fibonacci.  Tests compare package output against these,
never against the package's own formulas.
"""

from __future__ import annotations

from fractions import Fraction


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
