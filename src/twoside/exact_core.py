"""Exact rational scalars and enclosure (bracket) arithmetic.

Every scalar in this package is an exact ``fractions.Fraction``; every real
number that has no exact rational representation (roots, powers with
fractional exponents, pi) is handled as a ``Bracket``: a closed rational
interval guaranteed to contain it.  Nothing in this module touches floating
point.  All bracket operations are enclosure-sound: if x is in ``a`` and y is
in ``b``, then x * y is in ``a * b``, c * x in ``a.scale(c)``, x + c in
``a.shift(c)``, and x in ``a.intersect(b)`` when it is also in ``b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
RationalLike = Union[Fraction, int]

__all__ = [
    "Rational",
    "DomainError",
    "Cap",
    "NonConvergenceError",
    "rat_from_str",
    "rat_to_str",
    "rat_to_decimal",
    "Bracket",
    "bracket_point",
    "root_bracket",
    "rational_power_bracket",
]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class Cap:
    """The bounds on one size, refused before any work on it starts; `name`
    is the constant that holds `most`."""

    name: str
    most: int
    least: int | None = None

    def require(self, value: int, source: str) -> None:
        """Raise DomainError naming `source`, the argument or flag that set
        `value`, when the value lies outside the bounds."""
        if self.least is not None and value < self.least:
            raise DomainError(f"{source} must be at least {self.least}, "
                              f"not {value}")
        if value > self.most:
            raise DomainError(f"{source} capped at {self.name} = {self.most}, "
                              f"not {value}")


class NonConvergenceError(RuntimeError):
    """A refinement loop hit its step limit before reaching tolerance; it
    has yielded every bracket it made, and the message counts the steps."""


def rat_from_str(s: str) -> Rational:
    """Parse "p/q", "p", or a plain decimal string into an exact rational."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {s!r}") from exc


def _int_to_str(n: int) -> str:
    """All decimal digits of n, however many.

    str() refuses ints longer than the interpreter's digit limit (4300 by
    default).  Those are split at a power of ten into halves that are
    rendered the same way, so every digit is kept and the limit is left as
    it is.
    """
    try:
        return str(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    split = int(n.bit_length() * 0.30103) // 2  # about half the digits
    high, low = divmod(n, 10 ** split)
    return sign + _int_to_str(high) + _int_to_str(low).zfill(split)


def rat_to_str(q: RationalLike) -> str:
    """Render as "p/q", or just "p" for integers."""
    if type(q) is int:
        return _int_to_str(q)
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return _int_to_str(q.numerator)
    return f"{_int_to_str(q.numerator)}/{_int_to_str(q.denominator)}"


def rat_to_decimal(q: RationalLike, digits: int = 12) -> str:
    """Decimal rendering truncated toward zero, presentation only.

    The exact string from :func:`rat_to_str` is the value of record; this
    is never used in comparisons.
    """
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole = q.numerator // q.denominator
    rem = q.numerator - whole * q.denominator
    if digits <= 0:
        return f"{sign}{_int_to_str(whole)}"
    frac_digits = rem * 10 ** digits // q.denominator
    return (f"{sign}{_int_to_str(whole)}."
            f"{_int_to_str(frac_digits).zfill(digits)}")


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] of rationals enclosing one real value."""

    lo: Rational
    hi: Rational

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"inverted bracket: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> Rational:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= x <= self.hi

    def contains_bracket(self, other: "Bracket") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Bracket") -> "Bracket":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise DomainError("disjoint brackets have no intersection")
        return Bracket(lo, hi)

    def scale(self, c: RationalLike) -> "Bracket":
        c = Fraction(c)
        if c >= 0:
            return Bracket(self.lo * c, self.hi * c)
        return Bracket(self.hi * c, self.lo * c)

    def shift(self, c: RationalLike) -> "Bracket":
        return Bracket(self.lo + c, self.hi + c)

    def __mul__(self, other: "Bracket") -> "Bracket":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Bracket(min(products), max(products))

    def to_json(self) -> dict:
        return {"lo": rat_to_str(self.lo), "hi": rat_to_str(self.hi),
                "width": rat_to_str(self.width)}

    def __str__(self) -> str:
        return f"[{rat_to_str(self.lo)}, {rat_to_str(self.hi)}]"


def bracket_point(q: RationalLike) -> Bracket:
    q = Fraction(q)
    return Bracket(q, q)


# ---------------------------------------------------------------------------
# k-th roots in closed form, with exact comparisons.
#
# Bisection of a unit bracket that stops once the width is <= eps halves it
# m times, m the least integer with 2**-m <= eps, so its answer is fixed in
# advance: [x/2**m, (x+1)/2**m] with x = floor(2**m * q**(1/k)), collapsed to
# the point x/2**m when that is the root exactly.  x is computed directly.
# For small root indices x is the integer k-th root of the written-out
# floor(qn * 2**(m*k) / qd).  For large ones (indices up to 10**8 appear
# when powers with many-digit rational exponents are enclosed) that integer
# has billions of bits, and x is found by a binary search over the integers
# whose only predicate is the exact sign of x**k * qd - qn * 2**(m*k).  That
# sign is decided by evaluating the powers as dyadic intervals with
# directed rounding at increasing precision; the answer is exact because the
# loop only ever reports a sign it has proven, and falls back to the full
# integer product when the operands are small enough that "full" is cheap.
# ---------------------------------------------------------------------------

_EXACT_BITS = 1 << 14  # full integer powers allowed up to this many bits
# From this root index up the dyadic search is the cheaper route to x.  A
# search step's relative gap of about k * 2**-m is resolved at low precision
# when k is large, while the written-out integer grows k-fold.  Timed on
# 2**14 to 2**18-bit integers (CPython 3.11, one core of a 2-vCPU VM), both
# routes cost the same at k = 500; the written-out root is 20-40x faster at
# k = 30, the search 40x faster at k = 5000.
_SEARCH_INDEX = 512


def _ipow(base: int, exp: int) -> int:
    """base**exp with a shift shortcut for powers of two."""
    if base == 0:
        return 0 if exp else 1
    if base & (base - 1) == 0:
        return 1 << ((base.bit_length() - 1) * exp)
    return base ** exp


def _mul_down_up(alo, ahi, blo, bhi, prec):
    # Interval product of nonnegative dyadic intervals (mant_lo, mant_hi, exp)
    # pairs collapsed to mantissas at a shared exponent, renormalized so the
    # upper mantissa keeps at most `prec` bits.
    lo = alo * blo
    hi = ahi * bhi
    shift = hi.bit_length() - prec
    if shift > 0:
        lo >>= shift
        hi = -((-hi) >> shift)  # ceiling shift
        return lo, hi, shift
    return lo, hi, 0


def _pow_interval(a: int, k: int, prec: int):
    """Dyadic bounds (lo, hi, e) with lo*2**e <= a**k <= hi*2**e, a >= 0."""
    lo, hi, e = 1, 1, 0
    blo, bhi, be = a, a, 0
    kk = k
    while kk:
        if kk & 1:
            lo, hi, s = _mul_down_up(lo, hi, blo, bhi, prec)
            e += be + s
        kk >>= 1
        if kk:
            blo, bhi, s = _mul_down_up(blo, bhi, blo, bhi, prec)
            be = 2 * be + s
    return lo, hi, e


def _dyadic_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Exact sign of m1*2**e1 - m2*2**e2 for nonnegative mantissas."""
    if m1 == 0 or m2 == 0:
        return (m1 > 0) - (m2 > 0)
    top1, top2 = e1 + m1.bit_length(), e2 + m2.bit_length()
    if top1 < top2:
        return -1
    if top1 > top2:
        return 1
    # Same bit length: the exponent gap is at most the mantissa size, so the
    # aligning shift below stays small.
    if e1 >= e2:
        m1 <<= e1 - e2
    else:
        m2 <<= e2 - e1
    return (m1 > m2) - (m1 < m2)


def _round_down(m: int, prec: int) -> tuple[int, int]:
    shift = m.bit_length() - prec
    if shift > 0:
        return m >> shift, shift
    return m, 0


def _round_up(m: int, prec: int) -> tuple[int, int]:
    # One unit above the truncation: an upper bound that reads only the top
    # bits, where a ceiling shift would negate (copy) all of a huge m.
    shift = m.bit_length() - prec
    if shift > 0:
        return (m >> shift) + 1, shift
    return m, 0


class _PowComparator:
    """Repeated exact comparisons of (a/b)**k against a fixed q = qn/qd.

    qn >= 0 and qd >= 1 must be coprime.  Rounded dyadic images of qn and qd
    are cached per precision level, so a search never rescans a large
    radicand twice.
    """

    def __init__(self, k: int, qn: int, qd: int):
        self.k = k
        self.qn = qn
        self.qd = qd
        self._cache: dict[int, tuple] = {}

    def _rounded(self, prec: int) -> tuple:
        cached = self._cache.get(prec)
        if cached is None:
            cached = (_round_down(self.qn, prec), _round_up(self.qn, prec),
                      _round_down(self.qd, prec), _round_up(self.qd, prec))
            self._cache[prec] = cached
        return cached

    def cmp(self, a: int, b: int) -> int:
        """Exact sign of a**k * qd - qn * b**k for a >= 0, b >= 1."""
        k, qn, qd = self.k, self.qn, self.qd
        g = math.gcd(a, b)  # a search's points x/2**m come unreduced
        a, b = a // g, b // g
        lhs_bits = k * a.bit_length() + qd.bit_length()
        rhs_bits = k * b.bit_length() + qn.bit_length()
        if max(lhs_bits, rhs_bits) <= _EXACT_BITS:
            lhs = _ipow(a, k) * qd
            rhs = qn * _ipow(b, k)
            return (lhs > rhs) - (lhs < rhs)
        prec = 128
        while True:
            llo, lhi, le = _pow_interval(a, k, prec)
            rlo, rhi, re = _pow_interval(b, k, prec)
            (qn_lo, qn_le), (qn_hi, qn_he), (qd_lo, qd_le), (qd_hi, qd_he) = \
                self._rounded(prec)
            if _dyadic_cmp(lhi * qd_hi, le + qd_he,
                           rlo * qn_lo, re + qn_le) < 0:
                return -1
            if _dyadic_cmp(llo * qd_lo, le + qd_le,
                           rhi * qn_hi, re + qn_he) > 0:
                return 1
            prec *= 2
            if prec > _EXACT_BITS:
                # Thousands of leading bits agree: compare exactly.
                lhs = _ipow(a, k) * qd
                rhs = qn * _ipow(b, k)
                return (lhs > rhs) - (lhs < rhs)


def _iroot(n: int, k: int) -> int:
    """Largest x with x**k <= n, for n >= 0 and k >= 1."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    bits = (n.bit_length() - 1) // k + 1    # 2**(bits-1) <= x < 2**bits
    lead = k.bit_length() + 2
    if bits <= 2 * lead:
        lo, hi = 1 << (bits - 1), 1 << bits
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid ** k <= n:
                lo = mid
            else:
                hi = mid
        return lo
    # The root of n's leading bits gives x's leading `lead` or more bits, so
    # the start below exceeds x by a factor under 1 + 1/(2k), where integer
    # Newton from above converges quadratically down to x.
    shift = bits - max(lead, bits // 2)
    x = (_iroot(n >> (k * shift), k) + 1) << shift
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _root_floor(qn: int, qd: int, k: int, m: int) -> tuple[int, bool]:
    """x = floor(2**m * (qn/qd)**(1/k)), and whether x/2**m is the root."""
    if k < _SEARCH_INDEX:
        y, rem = divmod(qn << (m * k), qd)
        x = _iroot(y, k)
        return x, rem == 0 and x ** k == y
    comparator = _PowComparator(k, qn, qd)
    b = 1 << m
    # 2**(top-1) < qn * 2**(m*k) / qd < 2**(top+1); lo**k <= 2**(top-1) and
    # hi**k >= 2**(top+1) put x in [lo, hi), and lo is never the root.
    top = qn.bit_length() - qd.bit_length() + m * k
    lo = 1 << ((top - 1) // k) if top > 0 else 0
    hi = 1 << max(0, -(-(top + 1) // k))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c = comparator.cmp(mid, b)
        if c == 0:
            return mid, True
        if c < 0:
            lo = mid
        else:
            hi = mid
    return lo, False


def _root_bracket(qn: int, qd: int, k: int, eps: RationalLike) -> Bracket:
    """root_bracket of q = qn/qd, for coprime qn >= 0 and qd >= 1."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    if qn == 0:
        return bracket_point(0)
    # the least m with 2**m >= ceil(1/eps), that is 2**-m <= eps
    m = (-(-eps.denominator // eps.numerator) - 1).bit_length()
    x, exact = _root_floor(qn, qd, k, m)
    if exact:
        return bracket_point(Fraction(x, 1 << m))
    return Bracket(Fraction(x, 1 << m), Fraction(x + 1, 1 << m))


def root_bracket(q: RationalLike, k: int, eps: RationalLike) -> Bracket:
    """Enclose the k-th root of q >= 0 to width <= eps, as bisection would.

    The result is the bracket that bisection of [floor(r), floor(r) + 1]
    (or of [0, 1] for q < 1) reaches at the first width <= eps, r = q**(1/k):
    [x/2**m, (x+1)/2**m] with m the least integer such that 2**-m <= eps and
    x = floor(2**m * r), computed in closed form rather than step by step.
    It satisfies lo**k <= q <= hi**k exactly; if r is a dyadic rational with
    denominator at most 2**m the bracket collapses to that point.  Repeated
    calls with smaller eps always nest.
    """
    q = Fraction(q)
    if k < 1:
        raise DomainError("root index must be a positive integer")
    if q < 0:
        raise DomainError("negative radicand")
    return _root_bracket(q.numerator, q.denominator, k, eps)


def rational_power_bracket(a: RationalLike, p: int, q: int,
                           eps: RationalLike) -> Bracket:
    """Enclose a**(p/q) for rational a > 0 with bracket width <= eps.

    Negative exponents are reduced to positive ones on the exact reciprocal
    base, so no interval division is ever needed.  The power's numerator
    and denominator go to the root search as they are: powers of a fraction
    in lowest terms stay coprime, so no gcd is taken of a many-megabyte
    integer.
    """
    a = Fraction(a)
    if a <= 0:
        raise DomainError("base must be positive")
    if q < 1:
        raise DomainError("exponent denominator must be a positive integer")
    if p == 0:
        return bracket_point(1)
    num, den = a.numerator, a.denominator
    if p < 0:
        num, den = den, num
    return _root_bracket(_ipow(num, abs(p)), _ipow(den, abs(p)), q, eps)
