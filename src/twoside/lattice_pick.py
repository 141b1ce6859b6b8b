"""Lattice polygon geometry: point counts, Pick's formula, empty triangles.

Every predicate is exact integer arithmetic (orientation by cross products,
point-on-segment by collinearity plus box tests); there are no epsilons and
no floats anywhere.  Areas are rationals with denominator at most 2.

The empty triangulation keeps each triangle's lattice points sorted onto
its three edges and its interior, so the next split point is read off those
lists and a split re-tests only the points it can move.  Two kinds of
triangle are finished without splitting, as their pieces are already fixed:
one with points on a single edge and none inside fans out from the opposite
vertex, and one with a single interior point and none on its edges fans
into three.  Each yields the triangles, in the order, that splitting one
point at a time would.  Whether the finished triangles are empty is then
counted, column by column in int64 floor/ceil division over all of them at
once, never inferred from their areas.  Every polygon stays below 2^62 in
each coordinate and, before any scan or triangulation, below
`LATTICE_MAX_POINTS` lattice points in its bounding box, which is what
keeps that int64 count exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain

from ._lazy import np
from .exact_core import Cap, DomainError
from .report import IdentityReport, report_check
from .rng import SplitMix64

IntPoint = tuple[int, int]

#: Most lattice points a polygon's bounding box may hold: `pick_check` and
#: `empty_triangulation` refuse a larger polygon, and
#: `random_lattice_polygon` a larger box, before any scan, sampling or
#: allocation.  Their cost grows with this count.  The cap is also what
#: makes the int64 count of `_count_points` exact: taken from the box
#: corner, every coordinate is below 10^6, so no product it forms reaches
#: 2 * 10^12, far below 2^63.
LATTICE_MAX_POINTS = 10 ** 6
LATTICE_POINTS_CAP = Cap("LATTICE_MAX_POINTS", LATTICE_MAX_POINTS)

#: Coordinates have magnitude below this, so subtracting the box corner in
#: int64 cannot wrap around.
COORD_LIMIT = 1 << 62


def _cross(o: IntPoint, a: IntPoint, b: IntPoint) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_intersect(p1: IntPoint, p2: IntPoint,
                        p3: IntPoint, p4: IntPoint) -> bool:
    """Closed-segment intersection test, collinear overlaps included."""
    d1 = _cross(p3, p4, p1)
    d2 = _cross(p3, p4, p2)
    d3 = _cross(p1, p2, p3)
    d4 = _cross(p1, p2, p4)
    if (((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0))
            and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0))):
        return True
    if d1 == 0 and _on_segment(p1, p3, p4):
        return True
    if d2 == 0 and _on_segment(p2, p3, p4):
        return True
    if d3 == 0 and _on_segment(p3, p1, p2):
        return True
    if d4 == 0 and _on_segment(p4, p1, p2):
        return True
    return False


class LatticePolygon:
    """Simple polygon with integer vertices, stored counterclockwise.

    Construction canonicalizes the input: redundant straight vertices are
    dropped, orientation is normalized to positive (counterclockwise) area,
    and simplicity is verified with exact segment tests.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vertices = list(vertices)      # an iterator is read once, here
        pts = [(int(x), int(y)) for x, y in vertices]
        if any((x, y) != (vx, vy) for (x, y), (vx, vy) in zip(pts, vertices)):
            raise DomainError("vertices must have integer coordinates")
        if any(abs(c) >= COORD_LIMIT for pt in pts for c in pt):
            raise DomainError("vertex coordinates must be below 2^62 in "
                              "magnitude")
        if len(pts) < 3:
            raise DomainError("a polygon needs at least three vertices")
        if len(set(pts)) != len(pts):
            raise DomainError("repeated vertex")
        pts = self._drop_straight(pts)
        if len(pts) < 3:
            raise DomainError("polygon degenerates to a segment")
        doubled = self._doubled_signed_area(pts)
        if doubled == 0:
            raise DomainError("polygon has zero area")
        if doubled < 0:
            pts.reverse()
        self._check_simple(pts)
        self.vertices = tuple(pts)

    @staticmethod
    def _drop_straight(pts: list[IntPoint]) -> list[IntPoint]:
        changed = True
        while changed and len(pts) > 3:
            changed = False
            for i in range(len(pts)):
                prev = pts[i - 1]
                cur = pts[i]
                nxt = pts[(i + 1) % len(pts)]
                if _cross(prev, cur, nxt) == 0:
                    dot = ((cur[0] - prev[0]) * (nxt[0] - cur[0])
                           + (cur[1] - prev[1]) * (nxt[1] - cur[1]))
                    if dot <= 0:
                        raise DomainError("polygon has a degenerate spike")
                    del pts[i]
                    changed = True
                    break
        return pts

    @staticmethod
    def _doubled_signed_area(pts: list[IntPoint]) -> int:
        total = 0
        n = len(pts)
        for i in range(n):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % n]
            total += x1 * y2 - x2 * y1
        return total

    @staticmethod
    def _check_simple(pts: list[IntPoint]) -> None:
        n = len(pts)
        edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j - i) % n == 1 or (i - j) % n == 1:
                    continue
                if _segments_intersect(*edges[i], *edges[j]):
                    raise DomainError("polygon edges intersect")
        # adjacent edges may only meet at the shared vertex
        for i in range(n):
            a, b = edges[i]
            c, d = edges[(i + 1) % n]
            if _cross(a, b, d) == 0 and _on_segment(d, a, b) and d != a:
                raise DomainError("adjacent edges overlap")

    def edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n])
                for i in range(n)]

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def shoelace_area(p: LatticePolygon) -> Fraction:
    """Exact positive area from the vertex cross products."""
    return Fraction(LatticePolygon._doubled_signed_area(list(p.vertices)), 2)


def boundary_count(p: LatticePolygon) -> int:
    """Lattice points on the border: sum of gcd(|dx|, |dy|) over edges."""
    total = 0
    for (x1, y1), (x2, y2) in p.edges():
        total += math.gcd(abs(x2 - x1), abs(y2 - y1))
    return total


def boundary_points(p: LatticePolygon) -> set[IntPoint]:
    """Every lattice point on the border, vertices included."""
    points: set[IntPoint] = set()
    for (x1, y1), (x2, y2) in p.edges():
        g = math.gcd(abs(x2 - x1), abs(y2 - y1))
        step_x, step_y = (x2 - x1) // g, (y2 - y1) // g
        for t in range(g):
            points.add((x1 + t * step_x, y1 + t * step_y))
    return points


def _require_box(p: LatticePolygon) -> None:
    x0, y0, x1, y1 = p.bounding_box()
    LATTICE_POINTS_CAP.require((x1 - x0 + 1) * (y1 - y0 + 1),
                               "the polygon's box")


def _by_position(c: tuple[int, int], d: tuple[int, int]) -> int:
    """Order of two crossings num/den with den > 0, by cross-multiplying."""
    return c[0] * d[1] - d[0] * c[1]


def interior_count(p: LatticePolygon) -> int:
    """Lattice points strictly inside, by row scan with exact crossings.

    Each crossing of row y with an edge is kept as num/den with den > 0.
    Between a pair of crossings the row holds floor(right) - ceil(left) + 1
    lattice points, less the border points among them, which are found by
    bisecting the row's sorted border x's.
    """
    x0, y0, x1, y1 = p.bounding_box()
    border: dict[int, list[int]] = {}
    for x, y in boundary_points(p):
        border.setdefault(y, []).append(x)
    for xs in border.values():
        xs.sort()
    edges = p.edges()
    count = 0
    for y in range(y0, y1 + 1):
        crossings = []
        for (ex1, ey1), (ex2, ey2) in edges:
            if (ey1 > y) != (ey2 > y):
                num = ex1 * (ey2 - ey1) + (y - ey1) * (ex2 - ex1)
                den = ey2 - ey1
                crossings.append((num, den) if den > 0 else (-num, -den))
        crossings.sort(key=cmp_to_key(_by_position))
        on_row = border.get(y, ())
        for (ln, ld), (rn, rd) in zip(crossings[::2], crossings[1::2]):
            lo = -(-ln // ld)    # ceil
            hi = rn // rd        # floor
            count += (hi - lo + 1 - bisect_right(on_row, hi)
                      + bisect_left(on_row, lo))
    return count


def pick_check(p: LatticePolygon) -> IdentityReport:
    """Area equals h/2 + b - 1 with h, b from the counting operations."""
    _require_box(p)
    area = shoelace_area(p)
    h = boundary_count(p)
    b = interior_count(p)
    rhs = Fraction(h, 2) + b - 1
    passed = area == rhs
    return report_check(p.vertices, area, rhs, passed,
                        {"boundary": h, "interior": b})


# --- empty triangulation -----------------------------------------------------

Triangle = tuple[IntPoint, IntPoint, IntPoint]


def _points_in_triangle(t: Triangle, candidates) -> list[IntPoint]:
    """Lattice points in the closed triangle, excluding its vertices."""
    (ax, ay), (bx, by), (cx, cy) = t
    abx, aby = bx - ax, by - ay
    bcx, bcy = cx - bx, cy - by
    cax, cay = ax - cx, ay - cy
    out = []
    for pt in candidates:
        px, py = pt
        if (abx * (py - ay) - aby * (px - ax) >= 0
                and bcx * (py - by) - bcy * (px - bx) >= 0
                and cax * (py - cy) - cay * (px - cx) >= 0
                and pt not in t):
            out.append(pt)
    return out


#: A triangle's lattice points other than its vertices: those on its edges
#: a-b, b-c and c-a, then those strictly inside it.
Contained = tuple[list[IntPoint], list[IntPoint], list[IntPoint],
                  list[IntPoint]]


#: A sort key packs a vertex as x * 2^20 + y: taken from the box corner,
#: coordinates are below LATTICE_MAX_POINTS < 2^20.
_KEY_BITS = 20


def _columns(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray]:
    """Every lattice column of each triangle in v, an int64 array of shape
    (n, 3, 2) with coordinates in [0, LATTICE_MAX_POINTS).

    With its vertices sorted a <= b <= c, triangle i covers the columns
    [ax, bx) beside the chain edge a-b (piece i) and [bx, cx] beside b-c
    (piece n + i); when b-c is vertical, piece n + i is the single column
    bx, where the chain is the point b.  Returns each piece's width, then
    for every column, piece by piece, its x and the ceiling of the lower
    and the floor of the upper of the line a-c and the chain, by int64
    floor division: the lowest and highest y of the triangle's lattice
    points there, or lo - 1 for hi when it holds none.  No product reaches
    2 * 10^12.
    """
    k0, k1, k2 = ((v[..., 0] << _KEY_BITS) | v[..., 1]).T
    low, high = np.minimum(k0, k1), np.maximum(k0, k1)
    a, rest = np.minimum(low, k2), np.maximum(low, k2)
    b, c = np.minimum(high, rest), np.maximum(high, rest)
    mask = (1 << _KEY_BITS) - 1
    ax, bx, cx = a >> _KEY_BITS, b >> _KEY_BITS, c >> _KEY_BITS
    ay, by, cy = a & mask, b & mask, c & mask
    long_dx, long_dy = cx - ax, cy - ay
    chain_above = np.tile(long_dx * (by - ay) - long_dy * (bx - ax) > 0, 2)
    # per piece, y = (chain + dy * (x - x0)) / dx on its chain edge and
    # y = (line + long_dy * (x - x0)) / long_dx on a-c; dx = 1 makes the
    # chain of a vertical b-c the point b
    x0 = np.concatenate((ax, bx))
    dx = np.concatenate((bx - ax, np.where(bx == cx, 1, cx - bx)))
    dy = np.concatenate((by - ay, cy - by))
    chain = np.concatenate((ay, by)) * dx
    line = np.concatenate((ay * long_dx, ay * long_dx + long_dy * (bx - ax)))
    long_dx, long_dy = np.tile(long_dx, 2), np.tile(long_dy, 2)
    pairs = (chain, line), (dy, long_dy), (dx, long_dx)
    up, up_dy, up_dx = (np.where(chain_above, of_chain, of_line)
                        for of_chain, of_line in pairs)
    down, down_dy, down_dx = (np.where(chain_above, of_line, of_chain)
                              for of_chain, of_line in pairs)
    widths = np.concatenate((bx - ax, cx - bx + 1))
    j = np.arange(int(widths.sum())) - np.repeat(np.cumsum(widths) - widths,
                                                 widths)
    x = np.repeat(x0, widths) + j
    hi = ((np.repeat(up, widths) + j * np.repeat(up_dy, widths))
          // np.repeat(up_dx, widths))
    lo = -((j * np.repeat(-down_dy, widths) - np.repeat(down, widths))
           // np.repeat(down_dx, widths))
    return widths, x, lo, hi


def _relative(triangles: list[Triangle]) -> tuple[np.ndarray, np.ndarray]:
    """The triangles as an int64 array of shape (n, 3, 2), taken from the
    corner of their common bounding box, and that corner."""
    v = np.fromiter(chain.from_iterable(chain.from_iterable(triangles)),
                    dtype=np.int64, count=6 * len(triangles)).reshape(-1, 3, 2)
    corner = v.min(axis=(0, 1))
    return v - corner, corner


def _classify(triangles: list[Triangle]) -> list[Contained]:
    """Each triangle's points, column by column between the bounds of
    `_columns`, sorted onto its edges and inside by cross products."""
    v, corner = _relative(triangles)
    widths, x, lo, hi = _columns(v)
    owner = np.repeat(np.tile(np.arange(len(v)), 2), widths)
    x0, y0 = corner.tolist()
    out: list[Contained] = [([], [], [], []) for _ in triangles]
    for i, px, y_lo, y_hi in zip(owner.tolist(), (x + x0).tolist(),
                                 (lo + y0).tolist(), (hi + y0).tolist()):
        (ax, ay), (bx, by), (cx, cy) = triangles[i]
        contained = out[i]
        for py in range(y_lo, y_hi + 1):
            d0 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            d1 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
            d2 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
            if d0 and d1 and d2:
                contained[3].append((px, py))
            elif (d0 == 0) + (d1 == 0) + (d2 == 0) == 1:   # a vertex has two
                contained[0 if d0 == 0 else 1 if d1 == 0 else 2].append(
                    (px, py))
    return out


def _split(t: Triangle, contained: Contained, p: IntPoint,
           edge: int | None) -> list[tuple[Triangle, Contained]]:
    """The pieces of t split at its point p, each with its own points.

    A point on edge `edge` splits that edge into two pieces; an interior
    point (edge None) fans t into three.  The parent's edge points pass to
    the piece sharing that edge, so only its interior points, and the edge
    points beside p, are tested again.
    """
    px, py = p
    e0, e1, e2, inside = contained
    if edge is None:
        # piece k = (v_k, v_k+1, p) holds q iff u_k >= 0 >= u_k+1, where
        # u_k = cross(p, v_k, q); u_k+1 = 0 puts q on the piece's edge
        # v_k+1-p, u_k = 0 on its edge p-v_k
        a, b, c = t
        f0, f1, f2 = (e0, [], [], []), (e1, [], [], []), (e2, [], [], [])
        w0x, w0y = a[0] - px, a[1] - py
        w1x, w1y = b[0] - px, b[1] - py
        w2x, w2y = c[0] - px, c[1] - py
        in0, in1, in2 = f0[3].append, f1[3].append, f2[3].append
        for q in inside:
            qx = q[0] - px
            qy = q[1] - py
            # strictly inside one piece: filed as soon as that is decided
            u0 = w0x * qy - w0y * qx
            u1 = w1x * qy - w1y * qx
            if u0 > 0 > u1:
                in0(q)
                continue
            u2 = w2x * qy - w2y * qx
            if u1 > 0 > u2:
                in1(q)
            elif u2 > 0 > u0:
                in2(q)
            elif qx or qy:                     # on a ray from p, not p
                if u0 >= 0 >= u1:
                    f0[1 if u1 == 0 else 2 if u0 == 0 else 3].append(q)
                if u1 >= 0 >= u2:
                    f1[1 if u2 == 0 else 2 if u1 == 0 else 3].append(q)
                if u2 >= 0 >= u0:
                    f2[1 if u0 == 0 else 2 if u2 == 0 else 3].append(q)
        return [((a, b, p), f0), ((b, c, p), f1), ((c, a, p), f2)]
    # p on edge u-v of (u, v, w): pieces (u, p, w) and (p, v, w)
    if edge == 0:
        (u, v, w), on_uv, on_vw, on_wu = t, e0, e1, e2
    elif edge == 1:
        (w, u, v), on_uv, on_vw, on_wu = t, e1, e2, e0
    else:
        (v, w, u), on_uv, on_vw, on_wu = t, e2, e0, e1
    first: Contained = ([], [], on_wu, [])
    second: Contained = ([], on_vw, [], [])
    ux, uy = u[0] - px, u[1] - py
    for q in on_uv:
        if q != p:
            toward_u = (q[0] - px) * ux + (q[1] - py) * uy > 0
            (first if toward_u else second)[0].append(q)
    wx, wy = w[0] - px, w[1] - py
    for q in inside:
        side = wx * (q[1] - py) - wy * (q[0] - px)
        if side > 0:
            first[3].append(q)
        elif side < 0:
            second[3].append(q)
        else:                              # on the new edge p-w
            first[1].append(q)
            second[2].append(q)
    return [((u, p, w), first), ((p, v, w), second)]


#: Columns one block of `_count_points` holds at most, unless a single
#: triangle has more.  Each int64 column array then takes 32 KB.  Blocks
#: of 2^16 columns left the peak RSS of a 28 s benchmark run about 4 MB
#: higher, as freed large arrays grew the heap.
_COLUMN_BLOCK = 1 << 12


def _count_points(triangles: list[Triangle]) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """Lattice points in each closed triangle beyond its three vertices, and
    each triangle's doubled signed area, as int64 arrays.

    Coordinates are first taken from the corner of the triangles' common
    bounding box (`_relative`).  Exact when every coordinate is below 2^62
    in magnitude and that box holds at most `LATTICE_MAX_POINTS` lattice
    points, as `empty_triangulation` checks on its polygon.
    """
    v, _ = _relative(triangles)
    (ax, ay), (bx, by), (cx, cy) = v[:, 0].T, v[:, 1].T, v[:, 2].T
    doubled = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    ends = np.cumsum(v[..., 0].max(axis=1) - v[..., 0].min(axis=1) + 1)
    counts = np.empty(len(v), dtype=np.int64)
    start = 0
    while start < len(v):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _COLUMN_BLOCK,
                                                  side="right")))
        widths, _, lo, hi = _columns(v[start:stop])
        totals = np.concatenate(([0], np.cumsum(hi - lo + 1)))
        piece_ends = np.cumsum(widths)
        pieces = totals[piece_ends] - totals[piece_ends - widths]
        counts[start:stop] = pieces[:stop - start] + pieces[stop - start:] - 3
        start = stop
    return counts, doubled


def _ear_clip(poly: LatticePolygon) -> list[Triangle]:
    pts = list(poly.vertices)
    triangles: list[Triangle] = []
    guard = 0
    while len(pts) > 3:
        guard += 1
        if guard > 10 * len(poly.vertices) ** 2:
            raise RuntimeError("ear clipping failed to make progress")
        n = len(pts)
        clipped = False
        for i in range(n):
            prev, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
            if _cross(prev, cur, nxt) <= 0:
                continue
            ear = (prev, cur, nxt)
            others = [q for q in pts if q not in ear]
            if _points_in_triangle(ear, others):
                continue
            triangles.append(ear)
            del pts[i]
            clipped = True
            break
        if not clipped:
            raise RuntimeError("no ear found in a simple polygon")
    triangles.append((pts[0], pts[1], pts[2]))
    return triangles


@dataclass(frozen=True)
class TriangulationReport:
    triangles: tuple[Triangle, ...]
    count: int
    expected_count: int
    count_check: bool
    all_empty: bool
    all_half_area: bool
    area_total: Fraction
    area_check: bool
    boundary: int
    interior: int

    @property
    def passed(self) -> bool:
        return (self.count_check and self.area_check and self.all_empty
                and self.all_half_area)


def empty_triangulation(p: LatticePolygon,
                        order: str = "boundary_first") -> TriangulationReport:
    """Split into empty lattice triangles and check the h + 2b - 2 count.

    Triangles still containing lattice points are refined: a point on an
    edge splits that edge, an interior point fans the triangle.  The split
    point is chosen by `order` ("boundary_first": boundary points before
    interior, lexicographically smallest first; "interior_first": the
    reverse) and the final count must not depend on that choice.

    Some triangles are finished at once, with the triangles and the order
    that splitting them would give.  Along a segment lexicographic order is
    monotone, so the least or greatest of the points on one edge u-v,
    opposite w, is an end of their run: splitting there leaves an empty
    piece and one of the same kind, and as (p, v, w) is popped before
    (u, p, w) both orders finish (q1, v, w), (q2, q1, w), ..., (u, qk, w),
    with q1..qk the edge's points from v back to u.  A single interior
    point p with no edge points fans (a, b, c) into the empty pieces
    (c, a, p), (b, c, p), (a, b, p), in the order they are popped.
    `all_empty` counts the lattice points of every finished triangle, and
    `all_half_area` and `area_total` read their areas, from one int64
    `_count_points` pass.  A polygon whose bounding box holds more than
    `LATTICE_MAX_POINTS` points is refused before any work.
    """
    if order not in ("boundary_first", "interior_first"):
        raise DomainError(f"unknown refinement order {order!r}")
    _require_box(p)
    boundary_first = order == "boundary_first"
    pick = min if boundary_first else max
    ears = _ear_clip(p)
    work = list(zip(ears, _classify(ears)))
    finished: list[Triangle] = []
    pop, extend, append = work.pop, work.extend, finished.append
    while work:
        triangle, contained = pop()
        e0, e1, e2, inside = contained
        on_edges = e0 or e1 or e2
        if inside and not (boundary_first and on_edges):
            if on_edges or len(inside) > 1:
                extend(_split(triangle, contained, pick(inside), None))
            else:
                # one-point fan: _split's three empty pieces, as popped
                a, b, c = triangle
                q = inside[0]
                append((c, a, q))
                append((b, c, q))
                append((a, b, q))
        elif inside or (not e0) + (not e1) + (not e2) < 2:
            # no point lies on two edges, as the vertices are left out, so
            # the edge index never breaks a tie
            split_at, edge = pick([(pick(points), i) for i, points
                                   in enumerate((e0, e1, e2)) if points])
            extend(_split(triangle, contained, split_at, edge))
        else:
            # one-edge fan: points only on edge u-v, none inside, so every
            # split leaves an empty piece and one of the same kind; both
            # orders finish (q1, v, w), (q2, q1, w), ..., (u, qk, w) with
            # q1..qk the edge's points from v back to u
            if e0:
                (u, v, w), points = triangle, e0
            elif e1:
                (w, u, v), points = triangle, e1
            elif e2:
                (v, w, u), points = triangle, e2
            else:                              # empty: the fan of k = 0
                append(triangle)
                continue
            for q in sorted(points, reverse=u < v):
                append((q, v, w))
                v = q
            append((u, v, w))
    h = boundary_count(p)
    b = interior_count(p)
    expected = h + 2 * b - 2
    contained_counts, doubled = _count_points(finished)
    all_half = bool((doubled == 1).all())
    all_empty = not contained_counts.any()
    area_total = Fraction(int(doubled.sum()), 2)
    area_check = area_total == shoelace_area(p)
    return TriangulationReport(tuple(finished), len(finished), expected,
                               len(finished) == expected, all_empty,
                               all_half, area_total, area_check, h, b)


# --- seeded polygon generation --------------------------------------------------

def require_extent(half_extent: int, name: str = "half_extent") -> None:
    """Refuse a box [-he, he]^2 too small for the vertices drawn, or over
    `LATTICE_MAX_POINTS` points, before any sampling; the refusal names
    `name`, the argument or flag that set he."""
    if half_extent < 1:
        raise DomainError(f"{name} must be at least 1")
    span = 2 * half_extent + 1
    box = (f"the box [-{half_extent}, {half_extent}]^2 of {name} = "
           f"{half_extent}")
    LATTICE_POINTS_CAP.require(span * span, box)
    if span * span < 12:  # vertex counts are drawn from 6..12
        raise DomainError(f"cannot place 12 distinct vertices among the "
                          f"{span * span} lattice points of {box}")


def random_lattice_polygon(seed: int, half_extent: int) -> LatticePolygon:
    """Deterministic simple lattice polygon inside [-he, he]^2.

    Distinct points are sampled, ordered by exact angle around their
    centroid (ties broken by radius), and rejected wholesale if the result
    violates any polygon invariant.
    """
    require_extent(half_extent)
    span = 2 * half_extent + 1
    rng = SplitMix64(seed)
    for _ in range(10_000):
        k = 6 + rng.below(7)
        points: set[IntPoint] = set()
        while len(points) < k:
            x = rng.below(span) - half_extent
            y = rng.below(span) - half_extent
            points.add((x, y))
        ordered = _angular_sort(sorted(points))
        try:
            return LatticePolygon(ordered)
        except DomainError:
            continue
    raise RuntimeError(f"polygon generation stalled for seed {seed}")


def _angular_sort(points: list[IntPoint]) -> list[IntPoint]:
    """Counter-clockwise from the +x direction around the centroid, nearer
    first on a ray.

    Offsets are taken k times over, k*p - sum(p), to stay in integers.  The
    key is the half-plane (the upper one holds the +x ray, the lower one
    the -x ray and the centroid itself), then a pseudo-angle that rises
    with the angle within each half, then the squared radius.
    """
    k = len(points)
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)

    def key(p: IntPoint) -> tuple[bool, Fraction, int]:
        dx, dy = k * p[0] - sx, k * p[1] - sy
        upper = dy > 0 or (dy == 0 and dx > 0)
        taxicab = abs(dx) + abs(dy)
        pseudo = Fraction(-dx if upper else dx, taxicab) if taxicab \
            else Fraction(-1)
        return not upper, pseudo, dx * dx + dy * dy

    return sorted(points, key=key)
