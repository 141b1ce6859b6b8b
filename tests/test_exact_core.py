import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import twoside
from twoside import exact_core, probability_games
from twoside.exact_core import (_EXACT_BITS, _SEARCH_INDEX, Bracket,
                                DomainError, _PowComparator, bracket_point,
                                rat_from_str, rat_to_decimal, rat_to_str,
                                rational_power_bracket, root_bracket)
from oracles import bisect_root, root_bracket_bisection

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@pytest.mark.parametrize("module", [twoside, exact_core, probability_games],
                         ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestRationalNormalize:
    """Parsed rationals come out in lowest terms with a positive
    denominator."""

    def test_gcd_reduction(self):
        assert rat_from_str("6/4") == Fraction(3, 2)

    def test_sign_normalization(self):
        q = rat_from_str("-2/4")
        assert q == Fraction(-1, 2)
        assert q.denominator == 2 and q.numerator == -1

    def test_mixture_mass(self):
        assert rat_from_str("2.1") == Fraction(21, 10)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            rat_from_str("1/0")

    @given(rationals, rationals)
    def test_addition_commutes(self, r, s):
        assert r + s == s + r

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, r, s, t):
        assert (r + s) + t == r + (s + t)
        assert (r * s) * t == r * (s * t)
        assert r * (s + t) == r * s + r * t
        if r != 0:
            assert r * (1 / r) == 1


class TestStrings:
    def test_roundtrip(self):
        for text in ("3/2", "-7", "0", "21/10"):
            assert rat_to_str(rat_from_str(text)) == text

    def test_decimal_rendering(self):
        assert rat_to_decimal(Fraction(1, 3), 6) == "0.333333"
        assert rat_to_decimal(Fraction(-1, 8), 3) == "-0.125"
        assert rat_to_decimal(Fraction(7), 2) == "7.00"

    def test_bad_string(self):
        with pytest.raises(DomainError):
            rat_from_str("one half")

    def test_past_the_int_digit_limit(self):
        # 7**9000 has 7606 digits, past str()'s default limit of 4300.
        def parse(text):
            # Rebuild the int from 1000-digit chunks, each under the limit.
            value = 0
            for i in range(0, len(text), 1000):
                chunk = text[i:i + 1000]
                value = value * 10 ** len(chunk) + int(chunk)
            return value

        big = 7 ** 9000
        text = rat_to_str(Fraction(-big, 2 ** 13001 + 1))
        numerator, denominator = text.split("/")
        assert numerator.startswith("-") and parse(numerator[1:]) == big
        assert parse(denominator) == 2 ** 13001 + 1
        assert rat_to_str(10 ** 5000) == "1" + "0" * 5000
        assert rat_to_str(-(10 ** 6000 - 1)) == "-" + "9" * 6000
        assert (rat_to_decimal(Fraction(10 ** 5000 + 1, 3), 4)
                == "3" * 5000 + ".6666")


class TestBracket:
    def test_add(self):
        assert Bracket(1, 2) + Bracket(3, 4) == Bracket(4, 6)

    def test_mul_mixed_signs(self):
        assert Bracket(-1, 2) * Bracket(3, 4) == Bracket(-4, 8)

    def test_mul_annihilator(self):
        zero = bracket_point(0)
        assert zero * Bracket(-17, 230) == zero

    def test_inverted_rejected(self):
        with pytest.raises(DomainError):
            Bracket(2, 1)

    def test_intersect_disjoint(self):
        with pytest.raises(DomainError):
            Bracket(0, 1).intersect(Bracket(2, 3))

    def test_json_serialization(self):
        assert Bracket(Fraction(1, 2), Fraction(3, 4)).to_json() == {
            "lo": "1/2", "hi": "3/4", "width": "1/4"}

    def test_enclosure_soundness_sweep(self):
        rng = random.Random(20240811)
        for _ in range(10_000):
            a_lo = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            b_lo = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            a = Bracket(a_lo, a_lo + Fraction(rng.randint(0, 40), 7))
            b = Bracket(b_lo, b_lo + Fraction(rng.randint(0, 40), 7))
            x = a.lo + (a.hi - a.lo) * Fraction(rng.randint(0, 16), 16)
            y = b.lo + (b.hi - b.lo) * Fraction(rng.randint(0, 16), 16)
            assert (a + b).contains(x + y)
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)


class TestRootBracket:
    def test_sqrt2_width_and_signs(self):
        b = root_bracket(2, 2, Fraction(1, 1000))
        assert b.width <= Fraction(1, 1000)
        assert b.lo ** 2 <= 2 <= b.hi ** 2

    def test_sqrt2_within_displayed_digits(self):
        b = root_bracket(2, 2, Fraction(1, 10 ** 4))
        assert Fraction("1.414") <= b.lo and b.hi <= Fraction("1.415")

    def test_perfect_square_is_point(self):
        assert root_bracket(4, 2, Fraction(1)) == bracket_point(2)
        assert root_bracket(Fraction(9, 4), 2, Fraction(1, 10)) == \
            bracket_point(Fraction(3, 2))

    def test_sqrt5_contains_oracle(self):
        b = root_bracket(5, 2, Fraction(1, 10 ** 6))
        lo, hi = bisect_root(5, 2, 40)
        assert max(b.lo, lo) <= min(b.hi, hi)  # both enclose sqrt(5)
        assert b.lo ** 2 <= 5 <= b.hi ** 2
        assert lo <= Fraction("2.2360680") and Fraction("2.2360679") <= hi

    def test_monotone_refinement(self):
        eps = Fraction(1, 4)
        previous = root_bracket(7, 3, eps)
        for _ in range(12):
            eps /= 2
            current = root_bracket(7, 3, eps)
            assert previous.contains_bracket(current)
            assert current.lo ** 3 <= 7 <= current.hi ** 3
            previous = current

    def test_zero_and_unit_radicands(self):
        assert root_bracket(0, 5, Fraction(1, 10)) == bracket_point(0)
        assert root_bracket(1, 7, Fraction(1, 10)) == bracket_point(1)

    def test_subunit_radicand(self):
        b = root_bracket(Fraction(1, 2), 2, Fraction(1, 2 ** 20))
        assert b.lo ** 2 <= Fraction(1, 2) <= b.hi ** 2
        assert b.width <= Fraction(1, 2 ** 20)

    def test_large_index_power_of_two(self):
        assert root_bracket(Fraction(2 ** 1000), 1000, Fraction(1)) == \
            bracket_point(2)

    def test_large_index_odd_base(self):
        assert root_bracket(Fraction(3 ** 600), 600, Fraction(1, 10)) == \
            bracket_point(3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            root_bracket(-1, 2, Fraction(1, 10))
        with pytest.raises(DomainError):
            root_bracket(2, 0, Fraction(1, 10))
        with pytest.raises(DomainError):
            root_bracket(2, 2, Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(min_value=0, max_value=30, max_denominator=20),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=16))
    def test_invariant_random(self, q, k, eps_pow):
        eps = Fraction(1, 2 ** eps_pow)
        b = root_bracket(q, k, eps)
        assert b.width <= eps
        assert b.lo ** k <= q <= b.hi ** k


# Small indices take the written-out integer root, large ones the comparator
# search; both must give bisection's bracket.
root_indices = st.one_of(st.integers(1, 12),
                         st.integers(_SEARCH_INDEX, 3 * _SEARCH_INDEX))
# eps >= 1 (no halving), powers of two, and 60-digit denominators
root_eps = st.one_of(
    st.fractions(min_value=1, max_value=20, max_denominator=7),
    st.integers(0, 40).map(lambda j: Fraction(1, 2 ** j)),
    st.builds(Fraction, st.integers(1, 10 ** 59),
              st.integers(10 ** 59, 10 ** 60 - 1)))


class TestRootBracketMatchesBisection:
    """The closed-form bracket against the per-step bisection it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9),
        st.fractions(min_value=1, max_value=10 ** 9, max_denominator=1000)),
        root_indices, root_eps)
    def test_matches_bisection(self, q, k, eps):
        b = root_bracket(q, k, eps)
        oracle = root_bracket_bisection(q, k, eps)
        assert (b.lo, b.hi) == (oracle.lo, oracle.hi)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10 ** 4), st.integers(0, 12), root_indices,
           root_eps)
    def test_dyadic_powers(self, p, j, k, eps):
        root = Fraction(p, 2 ** j)
        b = root_bracket(root ** k, k, eps)
        oracle = root_bracket_bisection(root ** k, k, eps)
        assert (b.lo, b.hi) == (oracle.lo, oracle.hi)
        if Fraction(1, 2 ** j) >= eps:  # bisection reaches the root's level
            assert b == bracket_point(root)

    @pytest.mark.parametrize("a, p, q, eps", [
        (2, 1414, 1000, Fraction(1, 1000)),
        (2, 173205080, 10 ** 8, Fraction(1, 10 ** 10)),
    ])
    def test_rational_power_matches_bisection(self, a, p, q, eps):
        b = rational_power_bracket(a, p, q, eps)
        oracle = root_bracket_bisection(Fraction(a) ** p, q, eps)
        assert (b.lo, b.hi) == (oracle.lo, oracle.hi)


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


class TestPowComparator:
    """cmp(a, b) is the sign of a**k * qd - qn * b**k computed in full."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 2 ** 40),
           st.integers(1, 2 ** 40),
           st.fractions(min_value=0, max_value=10 ** 12,
                        max_denominator=10 ** 12))
    def test_sign_matches_full_product(self, k, a, b, q):
        qn, qd = q.numerator, q.denominator
        comparator = _PowComparator(k, qn, qd)
        assert comparator.cmp(a, b) == _sign(a ** k * qd - qn * b ** k)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 2 ** 30),
           st.integers(1, 2 ** 30), st.integers(1, 1000),
           st.integers(-1, 1))
    def test_equal_and_adjacent_powers(self, k, c, d, g, nudge):
        # q is (c/d)**k, or next to it; a/b = c/d is not in lowest terms
        q = Fraction(max(1, c ** k + nudge), d ** k)
        qn, qd = q.numerator, q.denominator
        a, b = c * g, d * g
        comparator = _PowComparator(k, qn, qd)
        assert comparator.cmp(a, b) == _sign(a ** k * qd - qn * b ** k)

    def test_both_sides_of_exact_bits(self):
        # (3/2)**k against (3**k - 1, 3**k, 3**k + 1) / 2**k, with the
        # products a**k * qd and qn * b**k on either side of the limit
        sides = set()
        for k in (4000, 5000):
            sides.add(2 * k + (3 ** k).bit_length() <= _EXACT_BITS)
            for nudge in (-1, 0, 1):
                comparator = _PowComparator(k, 3 ** k + nudge, 2 ** k)
                assert comparator.cmp(3, 2) == -nudge
                assert comparator.cmp(6, 4) == -nudge
        assert sides == {True, False}


class TestRationalPowerBracket:
    def test_exponent_one(self):
        assert rational_power_bracket(2, 1, 1, Fraction(1)) == bracket_point(2)

    def test_two_to_1414_over_1000(self):
        b = rational_power_bracket(2, 1414, 1000, Fraction(1, 1000))
        lo, hi = bisect_root(Fraction(2 ** 1414), 1000, 60, hi=4)
        assert max(b.lo, lo) <= min(b.hi, hi)  # both enclose 2**1.414
        assert b.width <= Fraction(1, 1000)
        assert lo <= Fraction("2.6648") and Fraction("2.6647") <= hi

    def test_three_halves_power(self):
        b = rational_power_bracket(2, 3, 2, Fraction(1, 10 ** 4))
        lo, hi = bisect_root(8, 2, 40)
        assert max(b.lo, lo) <= min(b.hi, hi)  # both enclose 2*sqrt(2)
        assert b.contains(Fraction("2.8284"))

    def test_negative_exponent_reciprocal(self):
        b = rational_power_bracket(2, -1, 1, Fraction(1, 100))
        assert b == bracket_point(Fraction(1, 2))
        b = rational_power_bracket(4, -1, 2, Fraction(1, 1000))
        assert b.lo ** 2 <= Fraction(1, 4) <= b.hi ** 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rational_power_bracket(0, 1, 2, Fraction(1, 10))
        with pytest.raises(DomainError):
            rational_power_bracket(-2, 1, 2, Fraction(1, 10))
        with pytest.raises(DomainError):
            rational_power_bracket(2, 1, 0, Fraction(1, 10))
