"""Coordinate verifications in exact integer arithmetic: Ceva and fittings.

A point is a homogeneous integer triple (X, Y, W) with W > 0, standing for
the rational point (X/W, Y/W).  The line through two points is their cross
product, and the meet of two lines is the cross product of the lines, with
W = 0 exactly when they are parallel.  Orientation and collinearity are
3x3 determinants, whose signs are those of the affine cross products
because every W is positive.  So "the three cevians meet" and "the two
segments cross on BG" are certified by integer identities rather than
tolerance comparisons; a Fraction is built only for a reported value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import DomainError
from .report import IdentityReport, report_check

RatPoint = tuple[Fraction, Fraction]
HomPoint = tuple[int, int, int]


def _pt(p) -> RatPoint:
    x, y = p
    return (Fraction(x), Fraction(y))


def _rational(v) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational number or string."""
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return v.numerator, v.denominator


def _hom(p) -> HomPoint:
    """The rational point p as (X, Y, W) with W > 0."""
    x, y = p
    (xn, xd), (yn, yd) = _rational(x), _rational(y)
    return (xn * yd, yn * xd, xd * yd)


def _affine(h: HomPoint) -> RatPoint:
    return (Fraction(h[0], h[2]), Fraction(h[1], h[2]))


def _cross(u, v) -> tuple[int, int, int]:
    """The line through two points, or the meet of two lines."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _meet(l1, l2) -> HomPoint:
    """The common point of two lines, scaled to W > 0."""
    x, y, w = _cross(l1, l2)
    if w == 0:
        raise DomainError("parallel lines do not intersect")
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _det(o: HomPoint, a: HomPoint, b: HomPoint) -> int:
    """det[o; a; b]: the sign of the turn o -> a -> b."""
    line = _cross(a, b)
    return o[0] * line[0] + o[1] * line[1] + o[2] * line[2]


def _same_point(u: HomPoint, v: HomPoint) -> bool:
    return u[0] * v[2] == v[0] * u[2] and u[1] * v[2] == v[1] * u[2]


def line_intersection(p1, p2, p3, p4) -> RatPoint:
    """Intersection of lines p1p2 and p3p4; parallel pairs are an error."""
    return _affine(_meet(_cross(_hom(p1), _hom(p2)),
                         _cross(_hom(p3), _hom(p4))))


def _strictly_inside(p: HomPoint, a: HomPoint, b: HomPoint,
                     c: HomPoint) -> bool:
    orient = _det(a, b, c)
    if orient == 0:
        raise DomainError("degenerate triangle")
    sign = 1 if orient > 0 else -1
    return all(sign * _det(u, v, p) > 0
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
        if _det(_hom(self.a), _hom(self.b), _hom(self.c)) == 0:
            raise DomainError("triangle vertices are collinear")
        if any(r <= 0 for r in self.ratios):
            raise DomainError("division ratios must be positive")


def _divide(p: HomPoint, q: HomPoint, num: int, den: int) -> HomPoint:
    """Point splitting pq internally with p-side/q-side = num/den > 0."""
    return (den * p[0] * q[2] + num * q[0] * p[2],
            den * p[1] * q[2] + num * q[1] * p[2],
            (num + den) * p[2] * q[2])


def _ratio_along(p: HomPoint, q: HomPoint, x: HomPoint) -> tuple[int, int]:
    """px/xq as (num, den) for x on line pq, on the dominant coordinate.

    With t = px/pq = num/den and den > 0, x is interior to the segment
    exactly when 0 < num < den, and px/xq = t/(1 - t).
    """
    dx = q[0] * p[2] - p[0] * q[2]
    dy = q[1] * p[2] - p[1] * q[2]
    if abs(dx) >= abs(dy):
        num, den = (x[0] * p[2] - p[0] * x[2]) * q[2], dx * x[2]
    else:
        num, den = (x[1] * p[2] - p[1] * x[2]) * q[2], dy * x[2]
    if den < 0:
        num, den = -num, -den
    if not 0 < num < den:
        raise DomainError("cevian foot is not interior to the side")
    return num, den - num


def ceva_product(a, b, c, p) -> Fraction:
    """BX/XC * CY/YA * AZ/ZB for the cevians through an interior point p.

    Each foot is the meet of a cevian with its side, and each ratio is
    measured along that side.
    """
    a, b, c, p = _hom(a), _hom(b), _hom(c), _hom(p)
    if not _strictly_inside(p, a, b, c):
        raise DomainError("point must be strictly inside the triangle")
    n1, d1 = _ratio_along(b, c, _meet(_cross(a, p), _cross(b, c)))
    n2, d2 = _ratio_along(c, a, _meet(_cross(b, p), _cross(c, a)))
    n3, d3 = _ratio_along(a, b, _meet(_cross(c, p), _cross(a, b)))
    return Fraction(n1 * n2 * n3, d1 * d2 * d3)


def ceva_product_report(a, b, c, p) -> IdentityReport:
    product = ceva_product(a, b, c, p)
    p = _pt(p)
    return report_check((_pt(a), _pt(b), _pt(c), p), product, Fraction(1),
                        product == 1, witness=(p,))


def ceva_converse_check(cfg: CevaConfig) -> IdentityReport:
    """With ratio product 1, the third cevian recovers Z exactly.

    P is the intersection of AX and BY; the check computes Z' = CP /\\ AB
    and certifies Z' = Z coordinate by coordinate.
    """
    (n1, d1), (n2, d2), (n3, d3) = map(_rational, cfg.ratios)
    if n1 * n2 * n3 != d1 * d2 * d3:
        raise DomainError("ratio product must be exactly 1")
    a, b, c = _hom(cfg.a), _hom(cfg.b), _hom(cfg.c)
    x, y = _divide(b, c, n1, d1), _divide(c, a, n2, d2)
    z = _divide(a, b, n3, d3)
    p = _meet(_cross(a, x), _cross(b, y))
    z_prime = _meet(_cross(c, p), _cross(a, b))
    return report_check(cfg.ratios, _affine(z_prime), _affine(z),
                        _same_point(z_prime, z))


def squares_fit_report(a, b) -> IdentityReport:
    """Two squares on a common baseline: AF and DE cross on side BG.

    Square ABCD has side a with A=(-a,0), B=(0,0), C=(0,a), D=(-a,a);
    square BEFG has side b with E=(b,0), F=(b,b), G=(0,b).  The similarity
    ratios x/a = b/(a+b) and y/b = a/(a+b) both give ab/(a+b), the two
    sides of the report, and the exact segment intersection, its
    ``intersection`` detail, confirms the common point.
    """
    (an, ad), (bn, bd) = _rational(a), _rational(b)
    if an <= 0 or bn <= 0:
        raise DomainError("square sides must be positive")
    # Over the common denominator w the sides are a = sa/w and b = sb/w.
    sa, sb, w = an * bd, bn * ad, ad * bd
    bg = _cross((0, sb, w), (0, 0, 1))
    h = _meet(_cross((-sa, 0, w), (sb, sb, w)), bg)
    i = _meet(_cross((-sa, sa, w), (sb, 0, w)), bg)
    # x = a*b/(a+b) and y = b*a/(a+b), each over the denominator ad*bd.
    xn, xd = an * bn, an * bd + bn * ad
    yn, yd = bn * an, bn * ad + an * bd
    on_bg = h[0] == 0 and 0 < h[1] and h[1] * w < sb * h[2]
    passed = (_same_point(h, i) and on_bg and h[1] * xd == xn * h[2]
              and i[1] * yd == yn * i[2] and xn * yd == yn * xd)
    return report_check((Fraction(a), Fraction(b)), Fraction(xn, xd),
                        Fraction(yn, yd), passed, {"intersection": _affine(h)})
