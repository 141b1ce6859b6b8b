"""Lattice polygon geometry: point counts, Pick's formula, empty triangles.

Every predicate is exact integer arithmetic (orientation by cross products,
point-on-segment by collinearity plus box tests); there are no epsilons and
no floats anywhere.  Areas are rationals with denominator at most 2.

The empty triangulation keeps each triangle's lattice points sorted onto
its three edges and its interior, so the next split point is read off those
lists and a split re-tests only the points it can move.  Whether the
finished triangles are empty is then counted, column by column in integer
floor/ceil division, never inferred from their areas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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


#: A triangle's lattice points other than its vertices: those on its edges
#: a-b, b-c and c-a, then those strictly inside it.
Contained = tuple[list[IntPoint], list[IntPoint], list[IntPoint],
                  list[IntPoint]]


def _classify(t: Triangle) -> Contained:
    """The triangle's points, found by testing every point of its box."""
    (ax, ay), (bx, by), (cx, cy) = t
    contained: Contained = ([], [], [], [])
    box = product(range(min(ax, bx, cx), max(ax, bx, cx) + 1),
                  range(min(ay, by, cy), max(ay, by, cy) + 1))
    for pt in box:
        px, py = pt
        d0 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        d1 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
        d2 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
        if d0 < 0 or d1 < 0 or d2 < 0:
            continue
        if d0 and d1 and d2:
            contained[3].append(pt)
        elif (d0 == 0) + (d1 == 0) + (d2 == 0) == 1:   # a vertex has two
            contained[0 if d0 == 0 else 1 if d1 == 0 else 2].append(pt)
    return contained


def _split(t: Triangle, contained: Contained, p: IntPoint,
           edge: int | None) -> list[tuple[Triangle, Contained]]:
    """The pieces of t split at its point p, each with its own points.

    A point on edge `edge` splits that edge into two pieces; an interior
    point (edge None) fans t into three.  The parent's edge points pass to
    the piece sharing that edge, so only its interior points, and the edge
    points beside p, are tested again.
    """
    px, py = p
    if edge is None:
        # piece k = (v_k, v_k+1, p) holds q iff u_k >= 0 >= u_k+1, where
        # u_k = cross(p, v_k, q); u_k+1 = 0 puts q on the piece's edge
        # v_k+1-p, u_k = 0 on its edge p-v_k
        fans: list[Contained] = [(contained[k], [], [], []) for k in range(3)]
        (w0x, w0y), (w1x, w1y), (w2x, w2y) = [(vx - px, vy - py)
                                              for vx, vy in t]
        for q in contained[3]:
            if q == p:
                continue
            qx, qy = q[0] - px, q[1] - py
            u0 = w0x * qy - w0y * qx
            u1 = w1x * qy - w1y * qx
            u2 = w2x * qy - w2y * qx
            if u0 >= 0 >= u1:
                fans[0][1 if u1 == 0 else 2 if u0 == 0 else 3].append(q)
            if u1 >= 0 >= u2:
                fans[1][1 if u2 == 0 else 2 if u1 == 0 else 3].append(q)
            if u2 >= 0 >= u0:
                fans[2][1 if u0 == 0 else 2 if u2 == 0 else 3].append(q)
        return [((t[k], t[(k + 1) % 3], p), fans[k]) for k in range(3)]
    # p on edge u-v of (u, v, w): pieces (u, p, w) and (p, v, w)
    u, v, w = t[edge], t[(edge + 1) % 3], t[(edge + 2) % 3]
    first: Contained = ([], [], contained[(edge + 2) % 3], [])
    second: Contained = ([], contained[(edge + 1) % 3], [], [])
    ux, uy = u[0] - px, u[1] - py
    for q in contained[edge]:
        if q != p:
            toward_u = (q[0] - px) * ux + (q[1] - py) * uy > 0
            (first if toward_u else second)[0].append(q)
    wx, wy = w[0] - px, w[1] - py
    for q in contained[3]:
        side = wx * (q[1] - py) - wy * (q[0] - px)
        if side > 0:
            first[3].append(q)
        elif side < 0:
            second[3].append(q)
        else:                              # on the new edge p-w
            first[1].append(q)
            second[2].append(q)
    return [((u, p, w), first), ((p, v, w), second)]


def _contained_count(t: Triangle) -> int:
    """Lattice points in the closed triangle, its three vertices excluded.

    Counted column by column: with the vertices sorted a <= b <= c, column
    x holds the integers y between the line a-c and the chain a-b-c, from
    the ceiling of the lower line to the floor of the upper one.  Each
    crossing is a numerator over a positive x-step, kept in Python ints.
    """
    (ax, ay), (bx, by), (cx, cy) = sorted(t)
    long_dx, long_dy = cx - ax, cy - ay
    chain_above = long_dx * (by - ay) - long_dy * (bx - ax) > 0
    # a-b covers columns [ax, bx); b-c covers [bx, cx], or a-b does when
    # b-c is vertical
    second = (bx, by, cx, cy) if bx < cx else (ax, ay, bx, by)
    total = 0
    for (px, py, qx, qy), x_from, x_to in (((ax, ay, bx, by), ax, bx),
                                           (second, bx, cx + 1)):
        # y on the line a-c is long_num / long_dx, on p-q it is num / dx
        long_num = ay * long_dx + long_dy * (x_from - ax)
        dx, dy = qx - px, qy - py
        num = py * dx + dy * (x_from - px)
        if chain_above:
            lo, lo_dx, lo_dy, hi, hi_dx, hi_dy = (long_num, long_dx, long_dy,
                                                  num, dx, dy)
        else:
            lo, lo_dx, lo_dy, hi, hi_dx, hi_dy = (num, dx, dy,
                                                  long_num, long_dx, long_dy)
        for _ in range(x_from, x_to):
            # floor(upper) - ceil(lower) + 1 >= 0 as upper >= lower
            total += hi // hi_dx + (-lo // lo_dx) + 1
            lo += lo_dy
            hi += hi_dy
    return total - 3


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
    `all_empty` counts the lattice points of every finished triangle.
    """
    if order not in ("boundary_first", "interior_first"):
        raise DomainError(f"unknown refinement order {order!r}")
    work = [(t, _classify(t)) for t in _ear_clip(p)]
    finished: list[Triangle] = []
    while work:
        triangle, contained = work.pop()
        on_edges = [(points, k) for k, points in enumerate(contained[:3])
                    if points]
        inside = contained[3]
        if not on_edges and not inside:
            finished.append(triangle)
            continue
        if order == "boundary_first":
            split_at, edge = (min((min(points), k) for points, k in on_edges)
                              if on_edges else (min(inside), None))
        else:
            split_at, edge = (max(inside), None) if inside else max(
                (max(points), k) for points, k in on_edges)
        work.extend(_split(triangle, contained, split_at, edge))
    h = boundary_count(p)
    b = interior_count(p)
    expected = h + 2 * b - 2
    doubled = [_doubled_area(t) for t in finished]
    all_half = all(d == 1 for d in doubled)
    all_empty = not any(map(_contained_count, finished))
    area_total = Fraction(sum(doubled), 2)
    area_check = area_total == shoelace_area(p)
    return TriangulationReport(tuple(finished), len(finished), expected,
                               len(finished) == expected, all_empty,
                               all_half, area_total, area_check, h, b)


# --- seeded polygon generation --------------------------------------------------

def random_lattice_polygon(seed: int, half_extent: int) -> LatticePolygon:
    """Deterministic simple lattice polygon inside [-he, he]^2.

    Distinct points are sampled, ordered by exact angle around their
    centroid (ties broken by radius), and rejected wholesale if the result
    violates any polygon invariant.
    """
    if half_extent < 1:
        raise DomainError("half_extent must be at least 1")
    span = 2 * half_extent + 1
    if span * span < 12:  # vertex counts are drawn from 6..12
        raise DomainError(f"cannot place 12 distinct vertices among the "
                          f"{span * span} lattice points of "
                          f"[-{half_extent}, {half_extent}]^2")
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
