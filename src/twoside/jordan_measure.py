"""Inner/outer grid-area brackets for bounded convex plane regions.

A region's bounding box is cut into an n-per-unit grid anchored at the
box's lower-left corner.  Cells lying entirely in the open interior feed
the inner sum; cells meeting the closed region feed the outer sum.  All
classification happens in exact rational arithmetic, row by row: within one
row of cells the admissible column indices form an interval whose ends are
found with integer square roots (disk) or exact line intersections
(polygon), so no cell is ever tested with approximate geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .exact_core import (Bracket, DomainError, NonConvergenceError,
                         RationalLike, rat_from_str)

Point = tuple[Fraction, Fraction]


def _as_point(p) -> Point:
    x, y = p
    return (Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Disk:
    center: Point
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise DomainError("disk radius must be positive")

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        (cx, cy), r = self.center, self.radius
        return cx - r, cy - r, cx + r, cy + r


@dataclass(frozen=True)
class ConvexPolygon:
    vertices: tuple[Point, ...]

    def __post_init__(self):
        pts = tuple(_as_point(p) for p in self.vertices)
        object.__setattr__(self, "vertices", pts)
        if len(pts) < 3:
            raise DomainError("need at least three vertices")
        crosses = []
        n = len(pts)
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            cx, cy = pts[(i + 2) % n]
            crosses.append((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if any(c < 0 for c in crosses):
            raise DomainError("vertices must wind counterclockwise and convex")
        if all(c == 0 for c in crosses):
            raise DomainError("vertices are collinear")

    def bounding_box(self):
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def shoelace_area(self) -> Fraction:
        total = Fraction(0)
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            total += x1 * y2 - x2 * y1
        return total / 2


Region = Disk | ConvexPolygon


# --- exact index-range helpers -------------------------------------------------

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
    if b < 0:
        raise DomainError("negative radicand")
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


# --- row classification ---------------------------------------------------------

def _disk_row_counts(disk: Disk, n: int, x0: Fraction, cols: int,
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


def _slab_x_extent(poly: ConvexPolygon, y_lo: Fraction,
                   y_hi: Fraction) -> tuple[Fraction, Fraction] | None:
    """x-range of the polygon clipped to the closed slab y in [y_lo, y_hi]."""
    pts = list(poly.vertices)
    for keep_low in (True, False):
        bound = y_lo if keep_low else y_hi
        clipped: list[Point] = []
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


def _open_cross_section(poly: ConvexPolygon,
                        y: Fraction) -> tuple[Fraction, Fraction] | None:
    """Open interval (l, r) with (x, y) strictly inside iff l < x < r."""
    lower: Fraction | None = None
    upper: Fraction | None = None
    pts = poly.vertices
    m = len(pts)
    for i in range(m):
        px, py = pts[i]
        qx, qy = pts[(i + 1) % m]
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


def _poly_row_counts(poly: ConvexPolygon, n: int, x0: Fraction, cols: int,
                     y_lo: Fraction, y_hi: Fraction) -> tuple[int, int]:
    outer = 0
    extent = _slab_x_extent(poly, y_lo, y_hi)
    if extent is not None:
        a = (extent[0] - x0) * n
        b = (extent[1] - x0) * n
        # cell [i, i+1] meets [a, b] iff i <= b and i + 1 >= a
        i_lo = max(0, math.ceil(a) - 1)
        i_hi = min(cols - 1, math.floor(b))
        if i_hi >= i_lo:
            outer = i_hi - i_lo + 1
    inner = 0
    top = _open_cross_section(poly, y_hi)
    bottom = _open_cross_section(poly, y_lo)
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


# --- public operations -----------------------------------------------------------

def jordan_bracket(region: Region, n: int) -> Bracket:
    """[inner grid area, outer grid area] on the 1/n grid."""
    if n < 1:
        raise DomainError("grid refinement n must be a positive integer")
    x0, y0, x1, y1 = region.bounding_box()
    cols = math.ceil((x1 - x0) * n)
    rows = math.ceil((y1 - y0) * n)
    inner_cells = 0
    outer_cells = 0
    for j in range(rows):
        y_lo = y0 + Fraction(j, n)
        y_hi = y0 + Fraction(j + 1, n)
        if isinstance(region, Disk):
            inner, outer = _disk_row_counts(region, n, x0, cols, y_lo, y_hi)
        else:
            inner, outer = _poly_row_counts(region, n, x0, cols, y_lo, y_hi)
        inner_cells += inner
        outer_cells += outer
    cell_area = Fraction(1, n * n)
    return Bracket(inner_cells * cell_area, outer_cells * cell_area)


@dataclass(frozen=True)
class RefineResult:
    bracket: Bracket
    n: int
    steps: tuple[tuple[int, Bracket], ...]


def jordan_refine(region: Region, tol: RationalLike,
                  max_n: int = 1 << 12) -> RefineResult:
    """Double the grid density from n=1 until the bracket width is <= tol."""
    tol = Fraction(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    n = 1
    steps: list[tuple[int, Bracket]] = []
    last = None
    while n <= max_n:
        bracket = jordan_bracket(region, n)
        steps.append((n, bracket))
        last = bracket
        if bracket.width <= tol:
            return RefineResult(bracket, n, tuple(steps))
        n *= 2
    raise NonConvergenceError(
        f"grid width did not reach {tol} by n={max_n}",
        last_bracket=last, steps=len(steps))


def parse_region(spec: str) -> Region:
    """Region specs for the CLI: "disk:R", "disk:CX,CY,R", "poly:X,Y;X,Y;..."."""
    kind, _, rest = spec.partition(":")
    if kind == "disk" and rest:
        parts = [rat_from_str(p) for p in rest.split(",")]
        if len(parts) == 1:
            return Disk((Fraction(0), Fraction(0)), parts[0])
        if len(parts) == 3:
            return Disk((parts[0], parts[1]), parts[2])
        raise DomainError("disk spec needs R or CX,CY,R")
    if kind == "poly" and rest:
        vertices = []
        for chunk in rest.split(";"):
            coords = chunk.split(",")
            if len(coords) != 2:
                raise DomainError(f"polygon vertex needs X,Y, not {chunk!r}")
            vertices.append(tuple(rat_from_str(c) for c in coords))
        return ConvexPolygon(tuple(vertices))
    raise DomainError(f"unrecognized region spec {spec!r}")
