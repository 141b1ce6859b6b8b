"""Lattice polygon geometry: point counts, Pick's formula, empty triangles.

Every predicate is exact integer arithmetic (orientation by cross products,
point-on-segment by collinearity plus box tests); there are no epsilons and
no floats anywhere.  Areas are rationals with denominator at most 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .exact_core import DomainError
from .report import IdentityReport, report_check
from .rng import SplitMix64

IntPoint = tuple[int, int]


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
        pts = [(int(x), int(y)) for x, y in vertices]
        if any((x, y) != (vx, vy) for (x, y), (vx, vy) in zip(pts, vertices)):
            raise DomainError("vertices must have integer coordinates")
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


def interior_count(p: LatticePolygon) -> int:
    """Lattice points strictly inside, by row scan with exact crossings."""
    x0, y0, x1, y1 = p.bounding_box()
    on_border = boundary_points(p)
    edges = p.edges()
    count = 0
    for y in range(y0, y1 + 1):
        crossings = []
        for (ex1, ey1), (ex2, ey2) in edges:
            if (ey1 > y) != (ey2 > y):
                crossings.append(Fraction(ex1 * (ey2 - ey1)
                                          + (y - ey1) * (ex2 - ex1),
                                          ey2 - ey1))
        crossings.sort()
        for left, right in zip(crossings[::2], crossings[1::2]):
            lo = -((-left.numerator) // left.denominator)    # ceil
            hi = right.numerator // right.denominator        # floor
            for x in range(lo, hi + 1):
                if (x, y) not in on_border:
                    count += 1
    return count


def pick_check(p: LatticePolygon) -> IdentityReport:
    """Area equals h/2 + b - 1 with h, b from the counting operations."""
    area = shoelace_area(p)
    h = boundary_count(p)
    b = interior_count(p)
    rhs = Fraction(h, 2) + b - 1
    passed = area == rhs
    return report_check("pick.formula", p.vertices, area, rhs, passed,
                        {"boundary": h, "interior": b})


# --- empty triangulation -----------------------------------------------------

Triangle = tuple[IntPoint, IntPoint, IntPoint]


def _doubled_area(t: Triangle) -> int:
    return _cross(t[0], t[1], t[2])


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


def _distribute(pieces: list[Triangle], points) -> list[list[IntPoint]]:
    """Assign each point to every closed piece containing it.

    A point strictly inside one piece cannot touch any other, so the scan
    short-circuits there; points on shared edges land in both neighbors.
    """
    sides = []
    for (ax, ay), (bx, by), (cx, cy) in pieces:
        sides.append((ax, ay, bx - ax, by - ay, bx, by, cx - bx, cy - by,
                      cx, cy, ax - cx, ay - cy))
    buckets: list[list[IntPoint]] = [[] for _ in pieces]
    for pt in points:
        px, py = pt
        for idx, (ax, ay, abx, aby, bx, by, bcx, bcy,
                  cx, cy, cax, cay) in enumerate(sides):
            d1 = abx * (py - ay) - aby * (px - ax)
            if d1 < 0:
                continue
            d2 = bcx * (py - by) - bcy * (px - bx)
            if d2 < 0:
                continue
            d3 = cax * (py - cy) - cay * (px - cx)
            if d3 < 0:
                continue
            if pt not in pieces[idx]:
                buckets[idx].append(pt)
            if d1 > 0 and d2 > 0 and d3 > 0:
                break
    return buckets


def _triangle_lattice_points(t: Triangle) -> list[IntPoint]:
    xs = [v[0] for v in t]
    ys = [v[1] for v in t]
    candidates = [(x, y)
                  for x in range(min(xs), max(xs) + 1)
                  for y in range(min(ys), max(ys) + 1)]
    return _points_in_triangle(t, candidates)


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


def _split_triangle(t: Triangle, p: IntPoint) -> list[Triangle]:
    a, b, c = t
    if _cross(a, b, p) == 0:
        return [(a, p, c), (p, b, c)]
    if _cross(b, c, p) == 0:
        return [(b, p, a), (p, c, a)]
    if _cross(c, a, p) == 0:
        return [(c, p, b), (p, a, b)]
    return [(a, b, p), (b, c, p), (c, a, p)]


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


def empty_triangulation(p: LatticePolygon,
                        order: str = "boundary_first") -> TriangulationReport:
    """Split into empty lattice triangles and check the h + 2b - 2 count.

    Triangles still containing lattice points are refined: a point on an
    edge splits that edge, an interior point fans the triangle.  The split
    point is chosen by `order` ("boundary_first": boundary points before
    interior, lexicographically smallest first; "interior_first": the
    reverse) and the final count must not depend on that choice.
    """
    if order not in ("boundary_first", "interior_first"):
        raise DomainError(f"unknown refinement order {order!r}")
    work = [(t, _triangle_lattice_points(t)) for t in _ear_clip(p)]
    finished: list[Triangle] = []
    while work:
        triangle, contained = work.pop()
        if not contained:
            finished.append(triangle)
            continue
        def keyed(pt):
            on_edge = (_cross(triangle[0], triangle[1], pt) == 0
                       or _cross(triangle[1], triangle[2], pt) == 0
                       or _cross(triangle[2], triangle[0], pt) == 0)
            return (not on_edge, pt)
        if order == "boundary_first":
            split_at = min(contained, key=keyed)
        else:
            split_at = max(contained, key=keyed)
        rest = [q for q in contained if q != split_at]
        pieces = _split_triangle(triangle, split_at)
        work.extend(zip(pieces, _distribute(pieces, rest)))
    h = boundary_count(p)
    b = interior_count(p)
    expected = h + 2 * b - 2
    doubled = [_doubled_area(t) for t in finished]
    all_half = all(d == 1 for d in doubled)
    all_empty = all(not _triangle_lattice_points(t) for t in finished)
    area_total = Fraction(sum(doubled), 2)
    area_check = area_total == shoelace_area(p)
    return TriangulationReport(tuple(finished), len(finished), expected,
                               len(finished) == expected, all_empty,
                               all_half, area_total, area_check, h, b)


# --- seeded polygon generation --------------------------------------------------

def random_lattice_polygon(seed: int, half_extent: int,
                           n_vertices: int | None = None) -> LatticePolygon:
    """Deterministic simple lattice polygon inside [-he, he]^2.

    Distinct points are sampled, ordered by exact angle around their
    centroid (ties broken by radius), and rejected wholesale if the result
    violates any polygon invariant.
    """
    if half_extent < 1:
        raise DomainError("half_extent must be at least 1")
    rng = SplitMix64(seed)
    span = 2 * half_extent + 1
    for _ in range(10_000):
        k = n_vertices if n_vertices is not None else 6 + rng.below(7)
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
    k = len(points)
    cx = Fraction(sum(p[0] for p in points), k)
    cy = Fraction(sum(p[1] for p in points), k)

    def compare(p: IntPoint, q: IntPoint) -> int:
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
