"""Inner/outer grid-area brackets for bounded convex plane regions.

A region's bounding box is cut into an n-per-unit grid anchored at the
box's lower-left corner.  Cells lying entirely in the open interior feed
the inner sum; cells meeting the closed region feed the outer sum.  Rows
are classified in scaled integers: each call multiplies the region's
coordinates, taken relative to the box corner, by n times the lcm of their
denominators, so every vertex, centre and radius is an integer.  Within one
row the admissible column indices form an interval whose ends come from
integer floor/ceil division and `math.isqrt` (disk) or exact line
crossings (polygon), so no cell is ever tested with approximate geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .analysis_brackets import refine
from .exact_core import Bracket, DomainError, RationalLike, rat_from_str

Point = tuple[Fraction, Fraction]

#: Rows one bracket may classify.  A bracket on the 1/n grid has
#: ceil(bounding-box height * n) rows, each classified in constant time, so
#: this bounds its work before any row is looked at.
JORDAN_MAX_ROWS = 10 ** 6


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
        # A vertex equal to the next one (cyclically) starts a zero-length
        # edge: it is dropped, so every edge has a direction.
        pts = [_as_point(p) for p in self.vertices]
        pts = tuple(p for p, q in zip(pts, pts[1:] + pts[:1]) if p != q)
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


Region = Disk | ConvexPolygon


# --- row classification in scaled integers --------------------------------------
#
# Scaled by n*L from the bounding-box corner, cell (i, j) is the square
# [L*i, L*(i+1)] x [L*j, L*(j+1)] and row j the slab L*j <= Y <= L*(j+1).

def _scale(values, n: int) -> tuple[list[int], int]:
    """The rationals times n*L as integers, and L."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) * n for v in values], scale


def _disk_counts(disk: Disk, n: int) -> tuple[int, int]:
    (r,), scale = _scale([disk.radius], n)
    c = r                        # the centre sits at (r, r) from the corner
    r_sq = r * r
    cols = rows = -(-2 * r // scale)
    inner_cells = outer_cells = 0
    for j in range(rows):
        y_lo = scale * j - c
        y_hi = y_lo + scale
        near = y_lo if y_lo > 0 else (-y_hi if y_hi < 0 else 0)
        far = max(-y_lo, y_hi)
        reach_sq = r_sq - near * near
        if reach_sq >= 0:
            # cell i meets the disk iff L*i <= c + s and L*(i+1) >= c - s,
            # s = sqrt(reach_sq); floor(c + s) = c + isqrt(reach_sq)
            s = math.isqrt(reach_sq)
            i_hi = min(cols - 1, (c + s) // scale)
            i_lo = max(0, -((s - c) // scale) - 1)
            if i_hi >= i_lo:
                outer_cells += i_hi - i_lo + 1
        core_sq = r_sq - far * far
        if core_sq > 0:
            # integer w has w^2 < core_sq iff |w| <= isqrt(core_sq - 1)
            t = math.isqrt(core_sq - 1)
            i_min = max(0, -((t - c) // scale))
            i_max = min(cols - 1, (c + t) // scale - 1)
            if i_max >= i_min:
                inner_cells += i_max - i_min + 1
    return inner_cells, outer_cells


def _poly_counts(poly: ConvexPolygon, n: int) -> tuple[int, int]:
    x0, y0, _, _ = poly.bounding_box()
    coords, scale = _scale([v - o for p in poly.vertices
                            for v, o in zip(p, (x0, y0))], n)
    xs, ys = coords[0::2], coords[1::2]
    width, height = max(xs), max(ys)
    cols = -(-width // scale)
    rows = -(-height // scale)
    m = len(xs)
    # A non-horizontal edge, taken upwards from (px, py) to (qx, qy), meets
    # the line Y = y at X = (a + b*y) / (qy - py); its entry keeps
    # d = (qy - py) * L, so that (a + b*y) / d is X in cell widths.
    edges = []
    for k in range(m):
        px, py, qx, qy = xs[k], ys[k], xs[(k + 1) % m], ys[(k + 1) % m]
        if py > qy:
            px, py, qx, qy = qx, qy, px, py
        if py < qy:
            edges.append((py, qy, px * (qy - py) - (qx - px) * py, qx - px,
                          (qy - py) * scale))

    def cross_section(y: int) -> tuple[int, int, int, int]:
        """floor(l/L), ceil(l/L), floor(r/L), ceil(r/L) for the closed
        cross-section [l, r] on the line Y = y."""
        floors, ceils = [], []
        for lo, hi, a, b, d in edges:
            if lo <= y <= hi:
                num = a + b * y
                floors.append(num // d)
                ceils.append(-(-num // d))
        return min(floors), min(ceils), max(floors), max(ceils)

    # Vertices strictly between two grid lines, by row: they may reach
    # further out than either line.
    between: dict[int, list[int]] = {}
    for x, y in zip(xs, ys):
        if y % scale:
            between.setdefault(y // scale, []).append(x)
    inner_cells = outer_cells = 0
    below = cross_section(0)
    for j in range(rows):
        # row j's closed slab runs from the line Y = L*j to Y = L*(j+1),
        # the top one clipped to the polygon
        above = cross_section(min(scale * (j + 1), height))
        ceil_left = min(below[1], above[1])
        floor_right = max(below[2], above[2])
        for x in between.get(j, ()):
            ceil_left = min(ceil_left, -(-x // scale))
            floor_right = max(floor_right, x // scale)
        # outer: cell i meets the slab's [l, r] iff L*(i+1) >= l, L*i <= r
        i_lo = max(0, ceil_left - 1)
        i_hi = min(cols - 1, floor_right)
        if i_hi >= i_lo:
            outer_cells += i_hi - i_lo + 1
        # inner: both lines cut the open interior, and the cell lies
        # strictly inside both cross-sections: L*i > l, L*(i+1) < r
        if 0 < scale * j and scale * (j + 1) < height:
            i_min = max(0, max(below[0], above[0]) + 1)
            i_max = min(cols - 1, min(below[3], above[3]) - 2)
            if i_max >= i_min:
                inner_cells += i_max - i_min + 1
        below = above
    return inner_cells, outer_cells


# --- public operations -----------------------------------------------------------

def _require_rows(region: Region, n: int) -> None:
    """Refuse a bracket of more than `JORDAN_MAX_ROWS` rows."""
    _, y0, _, y1 = region.bounding_box()
    rows = math.ceil((y1 - y0) * n)
    if rows > JORDAN_MAX_ROWS:
        raise DomainError(f"Jordan brackets capped at JORDAN_MAX_ROWS = "
                          f"{JORDAN_MAX_ROWS} rows; the grid at n={n} on "
                          f"this region has {rows}")


def jordan_bracket(region: Region, n: int) -> Bracket:
    """[inner grid area, outer grid area] on the 1/n grid."""
    if n < 1:
        raise DomainError("grid refinement n must be a positive integer")
    _require_rows(region, n)
    if isinstance(region, Disk):
        inner_cells, outer_cells = _disk_counts(region, n)
    else:
        inner_cells, outer_cells = _poly_counts(region, n)
    cell_area = Fraction(1, n * n)
    return Bracket(inner_cells * cell_area, outer_cells * cell_area)


def jordan_refine(region: Region, tol: RationalLike,
                  max_n: int = 1 << 12) -> Iterator[tuple[int, Bracket]]:
    """(n, bracket) on grids n = 1, 2, 4, ... <= max_n, up to and including
    the first bracket of width <= tol.

    `max_n` and the largest rung's rows are refused here, before any row is
    classified; a ladder that ends without reaching the tolerance raises
    NonConvergenceError after its last pair.
    """
    if max_n < 1:
        raise DomainError("max_n must be a positive integer")
    rungs = max_n.bit_length()
    _require_rows(region, 1 << (rungs - 1))
    ladder = (jordan_bracket(region, 1 << i) for i in range(rungs))
    return ((1 << i, bracket)
            for i, bracket in enumerate(refine(ladder, tol, rungs)))


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
