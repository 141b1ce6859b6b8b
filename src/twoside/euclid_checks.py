"""Coordinate verifications in exact rational arithmetic: Ceva and fittings.

Points are pairs of fractions; line intersections are solved exactly, so
"the three cevians meet" and "the two segments cross on BG" are certified
by literal coordinate equality rather than tolerance comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import DomainError
from .report import IdentityReport, report_check

RatPoint = tuple[Fraction, Fraction]


def _pt(p) -> RatPoint:
    x, y = p
    return (Fraction(x), Fraction(y))


def _cross(o: RatPoint, a: RatPoint, b: RatPoint) -> Fraction:
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def line_intersection(p1: RatPoint, p2: RatPoint,
                      p3: RatPoint, p4: RatPoint) -> RatPoint:
    """Intersection of lines p1p2 and p3p4; parallel pairs are an error."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        raise DomainError("parallel lines do not intersect")
    t = ((p3[0] - p1[0]) * d2y - (p3[1] - p1[1]) * d2x) / denom
    return (p1[0] + t * d1x, p1[1] + t * d1y)


def _strictly_inside(p: RatPoint, a: RatPoint, b: RatPoint,
                     c: RatPoint) -> bool:
    orient = _cross(a, b, c)
    if orient == 0:
        raise DomainError("degenerate triangle")
    sign = 1 if orient > 0 else -1
    return all(sign * _cross(u, v, p) > 0
               for u, v in ((a, b), (b, c), (c, a)))


@dataclass(frozen=True)
class CevaConfig:
    """Triangle with side points given by interior division ratios.

    ``ratios = (r1, r2, r3)`` places X on BC with BX/XC = r1, Y on CA with
    CY/YA = r2, and Z on AB with AZ/ZB = r3; all ratios must be positive so
    the points are interior.
    """

    a: RatPoint
    b: RatPoint
    c: RatPoint
    ratios: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "a", _pt(self.a))
        object.__setattr__(self, "b", _pt(self.b))
        object.__setattr__(self, "c", _pt(self.c))
        object.__setattr__(self, "ratios",
                           tuple(Fraction(r) for r in self.ratios))
        if _cross(self.a, self.b, self.c) == 0:
            raise DomainError("triangle vertices are collinear")
        if any(r <= 0 for r in self.ratios):
            raise DomainError("division ratios must be positive")

    def side_points(self) -> tuple[RatPoint, RatPoint, RatPoint]:
        r1, r2, r3 = self.ratios
        return (_divide(self.b, self.c, r1),
                _divide(self.c, self.a, r2),
                _divide(self.a, self.b, r3))


def _divide(p: RatPoint, q: RatPoint, ratio: Fraction) -> RatPoint:
    """Point splitting pq internally with p-side/q-side = ratio."""
    t = ratio / (1 + ratio)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _ratio_along(p: RatPoint, q: RatPoint, x: RatPoint) -> Fraction:
    """px/xq for x on segment pq, computed on the dominant coordinate."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if abs(dx) >= abs(dy):
        t = (x[0] - p[0]) / dx
    else:
        t = (x[1] - p[1]) / dy
    if not 0 < t < 1:
        raise DomainError("cevian foot is not interior to the side")
    return t / (1 - t)


def ceva_product(a: RatPoint, b: RatPoint, c: RatPoint,
                 p: RatPoint) -> Fraction:
    """BX/XC * CY/YA * AZ/ZB for the cevians through an interior point p."""
    a, b, c, p = _pt(a), _pt(b), _pt(c), _pt(p)
    if not _strictly_inside(p, a, b, c):
        raise DomainError("point must be strictly inside the triangle")
    x = line_intersection(a, p, b, c)
    y = line_intersection(b, p, c, a)
    z = line_intersection(c, p, a, b)
    return (_ratio_along(b, c, x) * _ratio_along(c, a, y)
            * _ratio_along(a, b, z))


def ceva_product_report(a, b, c, p) -> IdentityReport:
    product = ceva_product(a, b, c, p)
    passed = product == 1
    return IdentityReport("geom.ceva", (_pt(a), _pt(b), _pt(c), _pt(p)),
                          product, Fraction(1), passed,
                          None if passed else (_pt(p),))


def ceva_converse_check(cfg: CevaConfig) -> IdentityReport:
    """With ratio product 1, the third cevian recovers Z exactly.

    P is the intersection of AX and BY; the check computes Z' = CP /\\ AB
    and certifies Z' = Z coordinate by coordinate.
    """
    r1, r2, r3 = cfg.ratios
    if r1 * r2 * r3 != 1:
        raise DomainError("ratio product must be exactly 1")
    x, y, z = cfg.side_points()
    p = line_intersection(cfg.a, x, cfg.b, y)
    z_prime = line_intersection(cfg.c, p, cfg.a, cfg.b)
    passed = z_prime == z
    return report_check("geom.ceva_converse", cfg.ratios, z_prime, z, passed)


@dataclass(frozen=True)
class SquaresFitReport:
    x: Fraction
    y: Fraction
    intersection: RatPoint
    on_bg: bool
    passed: bool


def squares_intersection_check(a, b) -> SquaresFitReport:
    """Two squares on a common baseline: AF and DE cross on side BG.

    Square ABCD has side a with A=(-a,0), B=(0,0), C=(0,a), D=(-a,a);
    square BEFG has side b with E=(b,0), F=(b,b), G=(0,b).  The similarity
    ratios x/a = b/(a+b) and y/b = a/(a+b) both give ab/(a+b), and the
    exact segment intersection confirms the common point.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("square sides must be positive")
    pt_a = (-a, Fraction(0))
    pt_d = (-a, a)
    pt_e = (b, Fraction(0))
    pt_f = (b, b)
    pt_g = (Fraction(0), b)
    h = line_intersection(_pt(pt_a), _pt(pt_f), _pt(pt_g), (Fraction(0), Fraction(0)))
    i = line_intersection(_pt(pt_d), _pt(pt_e), _pt(pt_g), (Fraction(0), Fraction(0)))
    x_sim = a * b / (a + b)
    y_sim = b * a / (a + b)
    on_bg = h[0] == 0 and 0 < h[1] < b
    passed = (h == i and on_bg and h[1] == x_sim and i[1] == y_sim
              and x_sim == y_sim)
    return SquaresFitReport(x_sim, y_sim, h, on_bg, passed)


def squares_fit_report(a, b) -> IdentityReport:
    r = squares_intersection_check(a, b)
    return report_check("geom.squares_fit", (Fraction(a), Fraction(b)),
                        r.x, r.y, r.passed, {"intersection": r.intersection})
