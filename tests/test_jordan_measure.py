import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from twoside import jordan_measure as jm
from twoside.exact_core import DomainError, NonConvergenceError
from twoside.jordan_measure import (ConvexPolygon, Disk, jordan_bracket,
                                    jordan_refine, parse_region)
from oracles import (jordan_bracket_fraction, machin_pi_bracket,
                     shoelace_rational)


def brute_force_counts(region, n):
    """Per-cell classification with plain rational arithmetic."""
    x0, y0, x1, y1 = region.bounding_box()
    cols = math.ceil((x1 - x0) * n)
    rows = math.ceil((y1 - y0) * n)
    inner = outer = 0
    for i in range(cols):
        for j in range(rows):
            corners = [(x0 + Fraction(i + di, n), y0 + Fraction(j + dj, n))
                       for di in (0, 1) for dj in (0, 1)]
            if isinstance(region, Disk):
                (cx, cy), r = region.center, region.radius
                if all((px - cx) ** 2 + (py - cy) ** 2 < r * r
                       for px, py in corners):
                    inner += 1
                nx = min(max(cx, corners[0][0]), corners[3][0])
                ny = min(max(cy, corners[0][1]), corners[3][1])
                if (nx - cx) ** 2 + (ny - cy) ** 2 <= r * r:
                    outer += 1
            else:
                def strictly_inside(pt):
                    px, py = pt
                    verts = region.vertices
                    m = len(verts)
                    for idx in range(m):
                        ax, ay = verts[idx]
                        bx, by = verts[(idx + 1) % m]
                        if (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0:
                            return False
                    return True
                if all(strictly_inside(c) for c in corners):
                    inner += 1
                # cell meets polygon iff SAT on the axis directions and edges
                if _cell_meets_polygon(corners, region.vertices):
                    outer += 1
    return inner, outer


def _project(points, axis):
    dots = [px * axis[0] + py * axis[1] for px, py in points]
    return min(dots), max(dots)


def _cell_meets_polygon(corners, verts):
    cell = [corners[0], corners[1], corners[3], corners[2]]
    axes = [(1, 0), (0, 1)]
    m = len(verts)
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        axes.append((ay - by, bx - ax))
    for axis in axes:
        lo1, hi1 = _project(cell, axis)
        lo2, hi2 = _project(verts, axis)
        if hi1 < lo2 or hi2 < lo1:
            return False
    return True


UNIT_SQUARE = ConvexPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


class TestJordanBracket:
    def test_unit_square_formula(self):
        for n in (2, 3, 4, 8, 16):
            b = jordan_bracket(UNIT_SQUARE, n)
            assert b.hi == 1
            assert b.lo == (1 - Fraction(2, n)) ** 2

    def test_unit_square_n1(self):
        b = jordan_bracket(UNIT_SQUARE, 1)
        assert b.lo == 0 and b.hi == 1

    def test_disk_matches_brute_force(self):
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        for n in (1, 2, 3, 4, 7):
            inner, outer = brute_force_counts(disk, n)
            b = jordan_bracket(disk, n)
            assert b.lo == Fraction(inner, n * n)
            assert b.hi == Fraction(outer, n * n)

    def test_offcenter_disk_matches_brute_force(self):
        disk = Disk((Fraction(1, 3), Fraction(-2, 7)), Fraction(5, 4))
        for n in (1, 2, 5):
            inner, outer = brute_force_counts(disk, n)
            b = jordan_bracket(disk, n)
            assert (b.lo, b.hi) == (Fraction(inner, n * n),
                                    Fraction(outer, n * n))

    def test_polygon_matches_brute_force(self):
        tri = ConvexPolygon(((0, 0), (2, 0), (Fraction(1, 2), Fraction(3, 2))))
        for n in (1, 2, 3, 6):
            inner, outer = brute_force_counts(tri, n)
            b = jordan_bracket(tri, n)
            assert (b.lo, b.hi) == (Fraction(inner, n * n),
                                    Fraction(outer, n * n))

    def test_refinement_nesting(self):
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        previous = None
        n = 1
        while n <= 64:
            b = jordan_bracket(disk, n)
            if previous is not None:
                assert b.lo >= previous.lo
                assert b.hi <= previous.hi
            previous = b
            n *= 2

    def test_disk_bracket_contains_pi(self):
        machin_lo, machin_hi = machin_pi_bracket()
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        for n in (4, 16, 64):
            b = jordan_bracket(disk, n)
            assert b.lo <= machin_lo and machin_hi <= b.hi

    def test_disk_width_shrinks_like_perimeter(self):
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        n = 1
        while n <= 512:
            assert jordan_bracket(disk, n).width <= Fraction(16, n)
            n *= 4


def small_rationals(lo, hi):
    """Rationals in [lo, hi] with denominators up to 6."""
    return st.integers(1, 6).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda k: Fraction(k, d)))


def convex_hull(points):
    """Counterclockwise hull without collinear vertices (monotone chain)."""
    pts = sorted(set(points))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (
                    (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                    - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
                    <= 0):
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


points = st.tuples(small_rationals(-3, 3), small_rationals(-3, 3))
disks = st.builds(Disk, points, small_rationals(0, 3).filter(lambda r: r > 0))


class TestScaledIntegerRows:
    """The integer row classifier against the Fraction one it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(disks, st.integers(1, 16))
    def test_disk_matches_fraction_rows(self, disk, n):
        b = jordan_bracket(disk, n)
        assert (b.lo, b.hi) == jordan_bracket_fraction(disk, n)

    @pytest.mark.parametrize("vertices", [
        # widest along a horizontal top edge
        ((1, 0), (2, 0), (3, 1), (0, 1)),
        ((0, 0), (1, 0), (Fraction(5, 2), Fraction(5, 2)),
         (Fraction(-1, 3), Fraction(5, 2))),
        # widest at a vertex strictly inside a row
        ((0, 0), (Fraction(7, 3), Fraction(5, 4)), (1, 3),
         (Fraction(-1, 2), Fraction(4, 3))),
        # collinear vertices along the bottom edge
        ((0, 0), (1, 0), (2, 0), (1, 1)),
    ])
    def test_polygon_cases_match_fraction_rows(self, vertices):
        poly = ConvexPolygon(vertices)
        for n in range(1, 13):
            b = jordan_bracket(poly, n)
            assert (b.lo, b.hi) == jordan_bracket_fraction(poly, n)
        for n in (1, 2, 3):
            inner, outer = brute_force_counts(poly, n)
            b = jordan_bracket(poly, n)
            assert (b.lo, b.hi) == (Fraction(inner, n * n),
                                    Fraction(outer, n * n))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(points, min_size=3, max_size=8), st.integers(1, 16),
           st.none() | st.integers(0, 7))
    def test_polygon_matches_fraction_rows(self, corners, n, doubled):
        hull = convex_hull(corners)
        assume(len(hull) >= 3)
        vertices = list(hull)
        if doubled is not None:  # one vertex given twice in a row
            doubled %= len(hull)
            vertices.insert(doubled, hull[doubled])
        poly = ConvexPolygon(tuple(vertices))
        assert poly.vertices == tuple(hull)
        b = jordan_bracket(poly, n)
        assert (b.lo, b.hi) == jordan_bracket_fraction(poly, n)
        assert b.lo <= shoelace_rational(hull) <= b.hi

    def test_repeated_vertex_dropped(self):
        triangle = ((0, 0), (1, 0), (0, 1))
        for vertices in (((0, 0),) + triangle, triangle + ((0, 0),),
                         ((0, 0), (1, 0), (1, 0), (1, 0), (0, 1))):
            poly = ConvexPolygon(vertices)
            assert poly.vertices == triangle
            inner, outer = brute_force_counts(poly, 7)
            b = jordan_bracket(poly, 7)
            assert (b.lo, b.hi) == jordan_bracket_fraction(poly, 7) == \
                (Fraction(inner, 49), Fraction(outer, 49))
            assert b.lo == Fraction(6, 49)
        with pytest.raises(DomainError):
            ConvexPolygon(((0, 0), (0, 0), (1, 0), (1, 0)))


class TestRefine:
    """`jordan_refine` yields (n, bracket); its last pair is the result."""

    def test_disk_converges(self):
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        _, bracket = list(jordan_refine(disk, Fraction(1, 10)))[-1]
        machin_lo, machin_hi = machin_pi_bracket()
        assert bracket.width <= Fraction(1, 10)
        assert bracket.lo <= machin_lo and machin_hi <= bracket.hi

    def test_polygon_converges_to_shoelace(self):
        poly = ConvexPolygon(((0, 0), (3, 1), (2, 3), (-1, 2)))
        area = shoelace_rational(poly.vertices)
        steps = list(jordan_refine(poly, Fraction(1, 50)))
        _, last = steps[-1]
        assert last.contains(area)
        assert last.width <= Fraction(1, 50)
        for _, bracket in steps:
            assert bracket.contains(area)

    def test_loose_tolerance_stops_at_one(self):
        steps = list(jordan_refine(UNIT_SQUARE, Fraction(2)))
        assert steps[-1][0] == 1

    def test_max_n_exceeded(self):
        disk = Disk((Fraction(0), Fraction(0)), Fraction(1))
        with pytest.raises(NonConvergenceError) as exc:
            list(jordan_refine(disk, Fraction(1, 10 ** 6), max_n=8))
        assert exc.value.last_bracket is not None

    @pytest.mark.parametrize("tol, max_n", [(0, 8), (1, 0)])
    def test_bad_arguments_refused_at_the_call(self, tol, max_n):
        with pytest.raises(DomainError):
            jordan_refine(parse_region("disk:1"), tol, max_n)


class TestRowCap:
    """A bracket of more than JORDAN_MAX_ROWS rows is refused before any
    row is classified."""

    @pytest.fixture
    def classified(self, monkeypatch):
        calls = []
        for name in ("_disk_counts", "_poly_counts"):
            monkeypatch.setattr(jm, name, lambda region, n, name=name:
                                calls.append((name, n)) or (0, 0))
        return calls

    # ceil(height * n) rows: 2 * 500000 for the unit disk and 8/3 * 375000
    # for the triangle, each exactly the cap.
    @pytest.mark.parametrize("region, n_at_cap", [
        (Disk((0, 0), 1), 500_000),
        (ConvexPolygon(((0, 0), (1, 0), (0, Fraction(8, 3)))), 375_000),
    ], ids=["disk", "poly"])
    def test_bracket_cap_is_exact(self, region, n_at_cap, classified):
        jordan_bracket(region, n_at_cap)
        assert len(classified) == 1
        with pytest.raises(DomainError, match="JORDAN_MAX_ROWS = 1000000"):
            jordan_bracket(region, n_at_cap + 1)
        assert len(classified) == 1

    def test_refine_refuses_before_its_first_rung(self, classified):
        with pytest.raises(DomainError, match="JORDAN_MAX_ROWS"):
            jordan_refine(Disk((0, 0), 10 ** 6), Fraction(1, 100), max_n=4)
        assert classified == []

    def test_refine_caps_its_largest_rung_not_max_n(self, monkeypatch):
        # Height 1/2: max_n = 2^21 - 1 itself would give 1048576 rows, its
        # largest rung 2^20 gives 524288.  Width 1/n reaches the tolerance
        # there.
        monkeypatch.setattr(jm, "_disk_counts", lambda region, n: (0, n))
        steps = list(jordan_refine(Disk((0, 0), Fraction(1, 4)),
                                   Fraction(1, 2 ** 20), max_n=2 ** 21 - 1))
        assert steps[-1][0] == 2 ** 20


class TestRegionValidation:
    def test_disk_radius_positive(self):
        with pytest.raises(DomainError):
            Disk((0, 0), 0)

    def test_polygon_needs_ccw_convex(self):
        with pytest.raises(DomainError):
            ConvexPolygon(((0, 0), (0, 1), (1, 0)))  # clockwise
        with pytest.raises(DomainError):
            ConvexPolygon(((0, 0), (2, 0), (1, 1), (1, 2)))  # reflex

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            ConvexPolygon(((0, 0), (1, 1), (2, 2)))

    def test_parse_region(self):
        disk = parse_region("disk:1")
        assert isinstance(disk, Disk) and disk.radius == 1
        disk = parse_region("disk:1/2,0,3/4")
        assert disk.center == (Fraction(1, 2), 0)
        poly = parse_region("poly:0,0;2,0;2,2;0,2")
        assert isinstance(poly, ConvexPolygon)
        with pytest.raises(DomainError):
            parse_region("blob:1")
