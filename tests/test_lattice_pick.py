import dataclasses
import hashlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from twoside import lattice_pick
from twoside.exact_core import DomainError
from twoside.lattice_pick import (LatticePolygon, _angular_sort, _classify,
                                  _count_points, boundary_count,
                                  empty_triangulation, interior_count,
                                  pick_check, random_lattice_polygon,
                                  shoelace_area)
from oracles import (angular_sort_comparator, interior_count_fraction,
                     segment_lattice_points, shoelace_rational,
                     triangle_points_by_edge, triangle_points_scan)

UNIT_SQUARE = LatticePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
SQUARE3 = LatticePolygon(((0, 0), (3, 0), (3, 3), (0, 3)))
EMPTY_TRIANGLE = LatticePolygon(((0, 0), (1, 0), (0, 1)))

# the ten-vertex figure polygon; (7,3) sits on the segment (8,4)-(6,2)
FIGURE_VERTICES = ((0, 0), (1, 5), (5, 4), (8, 4), (7, 3), (6, 2), (7, 0),
                   (4, 1), (3, 0), (3, 3))


class TestPolygonConstruction:
    def test_needs_three(self):
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (1, 1)))

    def test_integer_coordinates_only(self):
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (1.5, 0), (0, 1)))

    def test_rejects_repeats_and_zero_area(self):
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (1, 0), (1, 0), (0, 1)))
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (1, 1), (2, 2)))

    def test_rejects_self_intersection(self):
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (2, 2), (2, 0), (0, 2)))

    def test_rejects_spike(self):
        with pytest.raises(DomainError):
            LatticePolygon(((0, 0), (4, 0), (2, 0), (2, 2)))

    def test_orientation_normalized(self):
        cw = LatticePolygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        assert shoelace_area(cw) == 1
        assert cw.vertices != ((0, 0), (0, 1), (1, 1), (1, 0))

    def test_straight_vertices_dropped(self):
        poly = LatticePolygon(FIGURE_VERTICES)
        assert len(poly.vertices) == 9
        assert (7, 3) not in poly.vertices


class TestCounts:
    def test_shoelace_examples(self):
        assert shoelace_area(UNIT_SQUARE) == 1
        assert shoelace_area(EMPTY_TRIANGLE) == Fraction(1, 2)
        assert shoelace_area(SQUARE3) == 9

    def test_figure_polygon_area(self):
        poly = LatticePolygon(FIGURE_VERTICES)
        assert shoelace_area(poly) == shoelace_rational(FIGURE_VERTICES)

    def test_boundary_examples(self):
        assert boundary_count(UNIT_SQUARE) == 4
        assert boundary_count(LatticePolygon(((0, 0), (2, 0), (0, 2)))) == 6
        assert boundary_count(SQUARE3) == 12

    def test_boundary_gcd_matches_enumeration(self):
        for seed in range(30):
            poly = random_lattice_polygon(seed, 9)
            total = 0
            for a, b in poly.edges():
                total += segment_lattice_points(a, b) + 1
            assert boundary_count(poly) == total

    def test_interior_examples(self):
        assert interior_count(UNIT_SQUARE) == 0
        assert interior_count(SQUARE3) == 4
        assert interior_count(LatticePolygon(((0, 0), (4, 0), (0, 4)))) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 15))
    def test_interior_matches_fraction_scan(self, seed, extent):
        poly = random_lattice_polygon(seed, extent)
        assert interior_count(poly) == interior_count_fraction(poly)

    def test_interior_figure_polygon(self):
        poly = LatticePolygon(FIGURE_VERTICES)
        assert interior_count(poly) == interior_count_fraction(poly)


class TestPick:
    def test_unit_square(self):
        report = pick_check(UNIT_SQUARE)
        assert report.passed
        assert report.lhs == 1 == Fraction(4, 2) + 0 - 1

    def test_square3(self):
        report = pick_check(SQUARE3)
        assert report.passed
        assert report.detail == {"boundary": 12, "interior": 4}

    def test_figure_polygon(self):
        assert pick_check(LatticePolygon(FIGURE_VERTICES)).passed

    def test_random_polygons(self):
        for seed in range(60):
            assert pick_check(random_lattice_polygon(seed, 12)).passed


class TestTriangulation:
    def test_empty_triangle(self):
        report = empty_triangulation(EMPTY_TRIANGLE)
        assert report.count == 1 == report.expected_count
        assert report.count_check and report.all_empty and report.all_half_area

    def test_unit_square(self):
        report = empty_triangulation(UNIT_SQUARE)
        assert report.count == 2 == 4 + 0 - 2

    def test_square3_counts_from_ops(self):
        report = empty_triangulation(SQUARE3)
        assert report.boundary == 12 and report.interior == 4
        assert report.count == 12 + 2 * 4 - 2 == 18
        assert report.area_check and report.all_empty and report.all_half_area

    def test_both_orders_agree_on_count(self):
        for seed in range(25):
            poly = random_lattice_polygon(seed, 8)
            first = empty_triangulation(poly, order="boundary_first")
            second = empty_triangulation(poly, order="interior_first")
            assert first.count == second.count == first.expected_count
            assert first.area_check and second.area_check
            assert first.all_empty and second.all_empty
            assert first.all_half_area and second.all_half_area

    def test_figure_polygon_triangulation(self):
        poly = LatticePolygon(FIGURE_VERTICES)
        report = empty_triangulation(poly)
        assert report.count_check and report.area_check
        assert report.all_empty and report.all_half_area

    def test_unknown_order(self):
        with pytest.raises(DomainError):
            empty_triangulation(UNIT_SQUARE, order="random")

    @pytest.mark.parametrize("flag", ["count_check", "area_check",
                                      "all_empty", "all_half_area"])
    def test_passed_needs_every_check(self, flag):
        report = empty_triangulation(SQUARE3)
        assert report.passed
        assert not dataclasses.replace(report, **{flag: False}).passed

    def test_all_empty_is_counted(self, monkeypatch):
        # every finished triangle has doubled area 1; all_empty must still
        # come from counting their points, not from that area
        def one_point_each(triangles):
            counts, doubled = _count_points(triangles)
            return counts + 1, doubled
        monkeypatch.setattr(lattice_pick, "_count_points", one_point_each)
        report = empty_triangulation(SQUARE3)
        assert report.all_half_area and not report.all_empty

    def test_coordinates_below_2_62(self):
        top = (1 << 62) - 1
        report = empty_triangulation(LatticePolygon(
            ((top - 2, -top), (top, -top), (top - 2, 2 - top))))
        assert report.passed and report.count == 6 + 0 - 2
        for corner in ((top + 1, 0), (0, -top - 1)):
            with pytest.raises(DomainError, match="2\\^62"):
                LatticePolygon(((0, 0), corner, (1, 1)))


class TestLatticeCap:
    """Work over more than LATTICE_MAX_POINTS box points is refused first."""

    WIDE = LatticePolygon(((0, 0), (2000, 0), (0, 600)))   # 2001 * 601

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*_):
            raise AssertionError("work started before the cap was checked")
        for name in ("SplitMix64", "boundary_count", "boundary_points",
                     "interior_count", "_ear_clip", "_classify"):
            monkeypatch.setattr(lattice_pick, name, fail)

    @pytest.mark.parametrize("check", [pick_check, empty_triangulation])
    def test_polygon_refused(self, no_work, check):
        with pytest.raises(DomainError, match="LATTICE_MAX_POINTS"):
            check(self.WIDE)

    def test_generator_refused(self, no_work):
        with pytest.raises(DomainError, match="LATTICE_MAX_POINTS"):
            random_lattice_polygon(0, 500)    # 1001^2 points

    def test_largest_box_admitted(self):
        assert 999 ** 2 <= lattice_pick.LATTICE_MAX_POINTS < 1001 ** 2
        random_lattice_polygon(0, 499)


#: sha256 of repr(report.triangles) per (polygon, order), recorded before the
#: split-point choice and the emptiness count were rewritten; any change in
#: which triangles come out, or in their order, changes a digest.
TRIANGLE_PINS = {
    ("figure", "boundary_first"):
        "08d92efedc9d0ae77d0e5f12628d3425cf12db8aac9bf568735fe56cf73dd1eb",
    ("figure", "interior_first"):
        "6e43dd14c37041285f7d4e43252d36886f7e2c78e75d9bc279e38e015d58c22c",
    ((42, 20), "boundary_first"):
        "267c9018f5602c2b1f70482a752a7bb9f70fc86b2d7652b4e83d89dc16aee975",
    ((42, 20), "interior_first"):
        "1ef7618814b2f1a22ad02cc80f127ac0b62faa8f84dd65f9618bbd4840db98f3",
    ((777, 20), "boundary_first"):
        "589834aea8ec71cccd3a8ec904e3a2c82a3009b8b9ca893393b7d49f21fd6831",
    ((777, 20), "interior_first"):
        "85a44de2a5812db91186a700b39a35255bf7ae7705eaa2cc33697bcd2102513e",
    ((2024, 20), "boundary_first"):
        "9d466e221cf6949d5b1282fad31a8b494023953b5bebbaa7c11f12401b03e749",
    ((2024, 20), "interior_first"):
        "2ba93a345924186c011dd9765b65046651c64fb739f827147252532d58585a79",
    ((1, 8), "boundary_first"):
        "2b3b9193bcb6e67d865b1c9adb3637789bd6f1ed1bb76a29998ebd6abd263b3f",
    ((1, 8), "interior_first"):
        "1e4a1169812d0c48d162a637b9a25ac4c0e663d19be013a47b2bf93a593e7ca2",
    ((9, 8), "boundary_first"):
        "30cd48670e98e20582991d81e23aea816f1bf0358820671aed5c5d36b29d5600",
    ((9, 8), "interior_first"):
        "79cce4f5e4d19a7057c4cdcff11d8a0475f4232e5ef0183026f70666d87c594f",
    ((31, 8), "boundary_first"):
        "9e2e4414ec0b5bb3b08c086c770e88e19538b5aa2b5b4d58681bb65b02605477",
    ((31, 8), "interior_first"):
        "69e4ac40987d1506a9362cedadbbd3842d33652bdc04b1d5cf34b21947373f72",
}


@pytest.mark.parametrize("source, order", TRIANGLE_PINS,
                         ids=[f"{s if s == 'figure' else '%d@%d' % s}-{o}"
                              for s, o in TRIANGLE_PINS])
def test_triangles_pinned(source, order):
    poly = (LatticePolygon(FIGURE_VERTICES) if source == "figure"
            else random_lattice_polygon(*source))
    report = empty_triangulation(poly, order)
    digest = hashlib.sha256(repr(report.triangles).encode()).hexdigest()
    assert digest == TRIANGLE_PINS[source, order]


lattice_points = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
BIG = 1 << 40


def _doubled(t) -> int:
    (ax, ay), (bx, by), (cx, cy) = t
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


triangles = st.tuples(lattice_points, lattice_points, lattice_points).filter(
    lambda t: _doubled(t) != 0)
offsets = st.sampled_from([(0, 0), (BIG, -BIG), (-BIG, BIG), (BIG, BIG)])


def _shift(t, offset):
    return tuple((x + offset[0], y + offset[1]) for x, y in t)


class TestContainedCount:
    """The bulk column count that decides `all_empty`, against a box scan."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(triangles, min_size=1, max_size=12), offsets,
           st.integers(1, 40))
    def test_matches_box_scan(self, batch, offset, block):
        shifted = [_shift(t, offset) for t in batch]
        # a small block budget splits the batch into many blocks
        with mock.patch.object(lattice_pick, "_COLUMN_BLOCK", block):
            counts, doubled = _count_points(shifted)
        assert counts.tolist() == [triangle_points_scan(t) for t in batch]
        assert doubled.tolist() == [_doubled(t) for t in batch]

    def test_more_columns_than_one_block(self):
        # 70 empty slivers of 1001 columns, one of 5001 columns (more than
        # a block alone), then a 17-point triangle
        batch = [((0, k), (1000, k + 1), (999, k + 1)) for k in range(70)]
        batch += [((0, -1), (5000, 0), (4999, 0)), ((2, -1), (2, 5), (-3, 1))]
        assert 1001 < lattice_pick._COLUMN_BLOCK < 5001
        counts, doubled = _count_points(batch)
        assert counts.tolist() == [0] * 71 + [17]
        assert doubled.tolist() == [1] * 71 + [_doubled(batch[-1])]

    @pytest.mark.parametrize("t, count", [
        (((0, 0), (1, 0), (0, 1)), 0),
        (((0, 0), (5, 1), (4, 1)), 0),
        (((0, 0), (2, 1), (1, 2)), 1),        # (1, 1) strictly inside
        (((0, 0), (4, 2), (3, 2)), 1),        # (2, 1) on an edge
        (((0, 0), (0, 4), (3, 0)), 8),        # vertical edges
        (((0, 0), (3, 0), (3, 4)), 8),
        (((2, -1), (2, 5), (-3, 1)), 17),
        (((BIG, -BIG), (BIG + 1, -BIG), (BIG + 7, 1 - BIG)), 0),
        (((BIG - 3, -BIG - 2), (BIG + 4, -BIG), (BIG, 5 - BIG)), 21),
    ])
    def test_cases(self, t, count):
        counts, doubled = _count_points([t, t[::-1]])
        assert counts.tolist() == [count, count]
        assert doubled.tolist() == [_doubled(t), -_doubled(t)]
        assert triangle_points_scan(t) == count


class TestClassify:
    """Ear triangles' points, sorted onto edges and inside, against a scan."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(triangles, min_size=1, max_size=6), offsets)
    def test_matches_box_scan(self, batch, offset):
        batch = [_shift(t if _doubled(t) > 0 else t[::-1], offset)
                 for t in batch]
        for t, contained in zip(batch, _classify(batch)):
            assert ([sorted(points) for points in contained]
                    == triangle_points_by_edge(t))


class TestGenerator:
    def test_deterministic(self):
        a = random_lattice_polygon(42, 10)
        b = random_lattice_polygon(42, 10)
        assert a.vertices == b.vertices

    def test_distinct_seeds_differ(self):
        assert random_lattice_polygon(1, 10).vertices != \
            random_lattice_polygon(2, 10).vertices

    def test_outputs_valid(self):
        for seed in range(40):
            poly = random_lattice_polygon(seed, 20)
            # revalidation through the constructor must succeed
            again = LatticePolygon(poly.vertices)
            assert again.vertices == poly.vertices

    def test_extent_validated(self):
        with pytest.raises(DomainError):
            random_lattice_polygon(1, 0)

    def test_vertex_count_validated(self):
        # rejected before sampling: a 3x3 box has 9 points
        with pytest.raises(DomainError):
            random_lattice_polygon(0, 1)  # the default draws up to 12
        assert len(random_lattice_polygon(0, 2).vertices) >= 3


class TestAngularSort:
    """The integer sort key against the Fraction comparator."""

    @settings(max_examples=400, deadline=None)
    @given(st.sets(lattice_points, min_size=1, max_size=12),
           st.booleans())
    def test_matches_comparator(self, points, add_centroid):
        points = sorted(points)
        if add_centroid:
            # shift the set so that its centroid is a lattice point, then
            # add that point: the centroid does not move
            k = len(points)
            sx, sy = (sum(p[i] for p in points) for i in (0, 1))
            points = [(k * x, k * y) for x, y in points]
            if (sx, sy) not in points:
                points = sorted(points + [(sx, sy)])
        assert _angular_sort(points) == angular_sort_comparator(points)

    def test_centroid_first_in_lower_half(self):
        # the centroid (0, 0) opens the lower half, ahead of (-1, 0)
        points = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
        expected = [(1, 0), (0, 1), (0, 0), (-1, 0), (0, -1)]
        assert _angular_sort(points) == expected
        assert angular_sort_comparator(points) == expected
