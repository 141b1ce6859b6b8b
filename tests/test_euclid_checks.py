from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (_ratio_along_fraction, ceva_converse_check_fraction,
                     ceva_product_fraction, line_intersection_fraction,
                     squares_intersection_check_fraction)
from twoside.exact_core import DomainError
from twoside.euclid_checks import (CevaConfig, _hom, _ratio_along,
                                   ceva_converse_check, ceva_product,
                                   ceva_product_report, line_intersection,
                                   squares_fit_report)
from twoside.rng import SplitMix64

RIGHT = ((0, 0), (1, 0), (0, 1))


def random_triangle_and_weights(rng):
    while True:
        pts = [(Fraction(rng.below(17)) - 8, Fraction(rng.below(17)) - 8)
               for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = pts
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0:
            weights = [rng.below(7) + 1 for _ in range(3)]
            return pts, weights


class TestLineIntersection:
    def test_axes(self):
        assert line_intersection((0, 0), (2, 2), (0, 2), (2, 0)) == (1, 1)

    def test_parallel(self):
        with pytest.raises(DomainError):
            line_intersection((0, 0), (1, 0), (0, 1), (1, 1))


class TestCevaProduct:
    def test_centroid(self):
        centroid = (Fraction(1, 3), Fraction(1, 3))
        assert ceva_product(*RIGHT, centroid) == 1

    def test_generic_point(self):
        assert ceva_product(*RIGHT, (Fraction(1, 3), Fraction(1, 5))) == 1

    def test_near_vertex(self):
        assert ceva_product(*RIGHT, (Fraction(1, 10), Fraction(1, 10))) == 1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            ceva_product(*RIGHT, (Fraction(1, 2), Fraction(0)))
        with pytest.raises(DomainError):
            ceva_product(*RIGHT, (2, 2))

    def test_hundred_random_cases(self):
        rng = SplitMix64(2024)
        for _ in range(100):
            (a, b, c), (wa, wb, wc) = random_triangle_and_weights(rng)
            total = wa + wb + wc
            p = (Fraction(wa * a[0] + wb * b[0] + wc * c[0], total),
                 Fraction(wa * a[1] + wb * b[1] + wc * c[1], total))
            report = ceva_product_report(a, b, c, p)
            assert report.passed and report.lhs == 1


class TestCevaConverse:
    def test_medians(self):
        cfg = CevaConfig((0, 0), (4, 0), (0, 4), (1, 1, 1))
        report = ceva_converse_check(cfg)
        assert report.passed
        assert report.rhs == (2, 0)  # midpoint of AB

    def test_given_examples(self):
        for ratios in ((Fraction(1, 2), 2, 1), (2, 3, Fraction(1, 6))):
            cfg = CevaConfig((0, 0), (4, 0), (0, 4), ratios)
            assert ceva_converse_check(cfg).passed

    def test_ratio_product_enforced(self):
        cfg = CevaConfig((0, 0), (4, 0), (0, 4), (1, 1, 2))
        with pytest.raises(DomainError):
            ceva_converse_check(cfg)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(DomainError):
            CevaConfig((0, 0), (4, 0), (0, 4), (1, -1, -1))

    def test_hundred_random_ratio_pairs(self):
        rng = SplitMix64(515253)
        for _ in range(100):
            (a, b, c), _ = random_triangle_and_weights(rng)
            r1 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
            r2 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
            cfg = CevaConfig(a, b, c, (r1, r2, 1 / (r1 * r2)))
            assert ceva_converse_check(cfg).passed


class TestSquaresFit:
    """The report's sides are x and y, its detail the intersection."""

    def test_equal_sides(self):
        report = squares_fit_report(2, 2)
        assert report.passed and report.lhs == 1  # a/2

    def test_one_two(self):
        report = squares_fit_report(1, 2)
        assert report.passed
        assert report.lhs == report.rhs == Fraction(2, 3)

    def test_three_five(self):
        report = squares_fit_report(3, 5)
        assert report.passed
        assert report.lhs == Fraction(15, 8)
        assert report.detail["intersection"] == (0, Fraction(15, 8))

    def test_intersection_strictly_inside_bg(self):
        rng = SplitMix64(99)
        for _ in range(100):
            a = Fraction(rng.below(25) + 1, rng.below(7) + 1)
            b = Fraction(rng.below(25) + 1, rng.below(7) + 1)
            report = squares_fit_report(a, b)
            assert report.passed  # passing needs the meet on BG
            assert report.params == (a, b)
            assert report.lhs == report.rhs == a * b / (a + b)
            x, y = report.detail["intersection"]
            assert x == 0 and 0 < y < b

    def test_positive_sides_required(self):
        with pytest.raises(DomainError):
            squares_fit_report(0, 1)


# --- the integer routes against the Fraction oracles -------------------------

coords = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))
points = st.tuples(coords, coords)
positive = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


def along(p, q, t):
    """p + t*(q - p)."""
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def outcome(fn, *args):
    """The value fn returns, or the message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


@st.composite
def triangles(draw):
    """Three vertices; one draw in eight puts the third on line ab."""
    a, b = draw(points), draw(points)
    if draw(st.integers(0, 7)) == 0:
        return a, b, along(a, b, draw(coords))
    return a, b, draw(points)


@st.composite
def ceva_cases(draw):
    """A triangle and a point inside it, on an edge, at a vertex or outside
    it (as barycentric weights), or anywhere."""
    a, b, c = draw(triangles())
    kind = draw(st.sampled_from(
        ["inside", "edge", "vertex", "outside", "any"]))
    if kind == "any":
        return a, b, c, draw(points)
    weights = [draw(st.integers(1, 9)) for _ in range(3)]
    i = draw(st.integers(0, 2))
    if kind == "edge":
        weights[i] = 0
    elif kind == "vertex":
        weights = [int(j == i) for j in range(3)]
    elif kind == "outside":
        weights[i] = -draw(st.integers(1, 20))
    assume(sum(weights) != 0)
    p = tuple(sum((Fraction(w) * v[k] for w, v in zip(weights, (a, b, c))),
                  Fraction(0)) / sum(weights) for k in (0, 1))
    return a, b, c, p


@st.composite
def line_pairs(draw):
    """Two lines by two points each: crossing, parallel, coincident, or
    with a first line through one point twice."""
    p1, p2, p3 = draw(points), draw(points), draw(points)
    kind = draw(st.sampled_from(["any", "parallel", "same", "degenerate"]))
    if kind == "parallel":
        k = draw(coords)
        return p1, p2, p3, (p3[0] + k * (p2[0] - p1[0]),
                            p3[1] + k * (p2[1] - p1[1]))
    if kind == "same":
        return p1, p2, along(p1, p2, draw(coords)), along(p1, p2, draw(coords))
    if kind == "degenerate":
        return p1, p1, p3, draw(points)
    return p1, p2, p3, draw(points)


class TestAgainstFractionOracles:
    @settings(max_examples=200, deadline=None)
    @given(line_pairs())
    @example(((0, 0), (1, 0), (0, 1), (1, 1)))
    def test_line_intersection(self, case):
        assert outcome(line_intersection, *case) == \
            outcome(line_intersection_fraction, *case)

    @settings(max_examples=200, deadline=None)
    @given(points, points, st.one_of(st.sampled_from([0, 1]), coords),
           points, st.booleans(), st.integers(1, 5))
    @example((0, 0), (0, 3), 1, (0, 0), True, 1)
    @example((0, 0), (3, 0), 0, (0, 0), True, 2)
    def test_ratio_along(self, p, q, t, off_line, on_line, scale):
        p, q = tuple(map(Fraction, p)), tuple(map(Fraction, q))
        assume(p != q)
        x = along(p, q, t) if on_line else off_line
        hx = tuple(scale * v for v in _hom(x))
        got = outcome(lambda: Fraction(*_ratio_along(_hom(p), _hom(q), hx)))
        assert got == outcome(_ratio_along_fraction, p, q, x)

    @settings(max_examples=300, deadline=None)
    @given(ceva_cases())
    @example(((0, 0), (0, 4), (3, 1), (1, 2)))
    @example(((0, 0), (4, 0), (0, 4), (2, 0)))
    @example(((0, 0), (4, 0), (0, 4), (0, 0)))
    @example(((0, 0), (4, 0), (8, 0), (1, 0)))
    def test_ceva_product(self, case):
        assert outcome(ceva_product, *case) == \
            outcome(ceva_product_fraction, *case)

    @settings(max_examples=200, deadline=None)
    @given(triangles(), positive, positive, st.one_of(st.none(), positive))
    def test_ceva_converse(self, triangle, r1, r2, r3):
        a, b, c = triangle
        ratios = (r1, r2, 1 / (r1 * r2) if r3 is None else r3)
        collinear = ((b[0] - a[0]) * (c[1] - a[1])
                     - (b[1] - a[1]) * (c[0] - a[0])) == 0
        try:
            cfg = CevaConfig(a, b, c, ratios)
        except DomainError:
            assert collinear
            return
        assert not collinear
        assert outcome(ceva_converse_check, cfg) == \
            outcome(ceva_converse_check_fraction, cfg)

    @settings(max_examples=150, deadline=None)
    @given(coords, coords)
    @example(Fraction(7, 3), Fraction(5, 2))
    def test_squares_intersection(self, a, b):
        assert outcome(squares_fit_report, a, b) == \
            outcome(squares_intersection_check_fraction, a, b)
