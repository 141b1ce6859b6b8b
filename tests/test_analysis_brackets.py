from fractions import Fraction

import pytest

from twoside.exact_core import (Bracket, DomainError, NonConvergenceError,
                                bracket_point)
from twoside.analysis_brackets import (MonomialIntegrand, circle_area_bracket,
                                       cylinder_volume_bracket,
                                       geometric_series_sum, named_generator,
                                       nth_root_sequence_bracket, pi_bracket,
                                       pi_bracket_sequence, real_power_bracket,
                                       refine, riemann_bracket,
                                       rows_rearrangement_check,
                                       swineshead_bracket, swineshead_check,
                                       sqrt2_truncation)
from oracles import (bisect_root, geometric_series_sum_fraction,
                     rows_rearrangement_check_fraction,
                     swineshead_check_fraction,
                     machin_pi_bracket)


def constant_generator(value):
    while True:
        yield bracket_point(value)


def frozen_width_generator():
    while True:
        yield Bracket(0, 1)


class TestSqueeze:
    def test_constant_converges_immediately(self):
        brackets = list(refine(constant_generator(5), Fraction(1, 10), 10))
        assert brackets == [bracket_point(5)]

    def test_frozen_width_fails(self):
        with pytest.raises(NonConvergenceError) as exc:
            list(refine(frozen_width_generator(), Fraction(1, 2), 25))
        assert exc.value.last_bracket == Bracket(0, 1)
        assert exc.value.steps == 25

    def test_nth_root_generator_reaches_tenth(self):
        last = list(refine(named_generator("nthroot"), Fraction(1, 10),
                           500))[-1]
        assert Fraction(5) == last.lo
        assert last.hi <= Fraction(51, 10)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            list(refine(constant_generator(1), Fraction(0), 5))
        with pytest.raises(DomainError):
            list(refine(constant_generator(1), Fraction(1), 0))


class TestRefine:
    def test_stops_at_first_bracket_within_tolerance(self):
        ladder = (Bracket(0, Fraction(1, w)) for w in range(1, 100))
        widths = [b.width for b in refine(ladder, Fraction(1, 4), 10)]
        assert widths == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_keeps_rows_before_step_budget_error(self):
        rows = []
        with pytest.raises(NonConvergenceError) as exc:
            rows.extend(refine(iter([Bracket(0, 1)] * 10), Fraction(1, 2), 3))
        assert rows == [Bracket(0, 1)] * 3
        assert exc.value.steps == 3
        assert "1/2" in str(exc.value)

    def test_ladder_running_out_is_non_convergence(self):
        rows = []
        with pytest.raises(NonConvergenceError) as exc:
            rows.extend(refine(iter([Bracket(0, 2), Bracket(0, 1)]),
                               Fraction(1, 2), 10))
        assert rows == [Bracket(0, 2), Bracket(0, 1)]
        assert exc.value.last_bracket == Bracket(0, 1)
        assert exc.value.steps == 2

    def test_empty_ladder_is_non_convergence(self):
        with pytest.raises(NonConvergenceError) as exc:
            list(refine(iter([]), Fraction(1), 5))
        assert exc.value.last_bracket is None
        assert exc.value.steps == 0

    @pytest.mark.parametrize("tol, steps", [(0, 5), (Fraction(-1, 2), 5),
                                            (1, 0)])
    def test_bad_arguments_before_any_bracket(self, tol, steps):
        def ladder():
            raise AssertionError("no bracket may be made")
            yield
        with pytest.raises(DomainError):
            refine(ladder(), tol, steps)    # at the call, not at next()


class TestNthRootSequence:
    def test_first_term(self):
        b = nth_root_sequence_bracket(1)
        assert b.lo == 5
        assert b.contains(8)  # (3 + 5) at n = 1
        assert b.hi >= 10

    def test_second_term_encloses_sqrt34(self):
        b = nth_root_sequence_bracket(2)
        lo, hi = bisect_root(34, 2, 40)
        assert b.lo <= lo and hi <= b.hi

    def test_width_at_100(self):
        assert nth_root_sequence_bracket(100).width <= Fraction(4, 100)

    def test_encloses_true_sequence_value(self):
        # b_n^n = 3^n + 5^n must sit between lo^n and hi^n
        for n in (1, 2, 3, 7, 20):
            b = nth_root_sequence_bracket(n)
            assert b.lo ** n <= 3 ** n + 5 ** n <= b.hi ** n


class TestSqrt2Truncation:
    def test_digit_prefixes(self):
        for digits, expected in ((0, 1), (1, 14), (2, 141), (3, 1414),
                                 (4, 14142), (5, 141421), (6, 1414213)):
            d, scale = sqrt2_truncation(digits)
            assert d == expected
            assert scale == 10 ** digits
            assert d * d <= 2 * scale * scale < (d + 1) * (d + 1)


class TestRealPower:
    def test_digits_zero(self):
        assert real_power_bracket(2, 0) == Bracket(2, 4)

    def test_digits_three_matches_display(self):
        b = real_power_bracket(2, 3)
        assert Fraction("2.663") <= b.lo and b.hi <= Fraction("2.667")
        assert b.contains(Fraction("2.665144"))
        lo, hi = bisect_root(Fraction(2 ** 1414), 1000, 70, hi=4)
        assert b.lo <= lo  # coarse bracket encloses the tight oracle
        lo2, hi2 = bisect_root(Fraction(2 ** 1415), 1000, 70, hi=4)
        assert hi2 <= b.hi

    def test_decreasing_base_swaps_endpoints(self):
        assert real_power_bracket(Fraction(1, 2), 0) == \
            Bracket(Fraction(1, 4), Fraction(1, 2))

    def test_nested_and_contain_finest_midpoint(self):
        brackets = [real_power_bracket(2, d) for d in range(7)]
        for a, b in zip(brackets, brackets[1:]):
            assert a.contains_bracket(b)
        finest = real_power_bracket(2, 8)
        probe = (finest.lo + finest.hi) / 2
        assert all(b.contains(probe) for b in brackets)

    def test_base_one_and_nonpositive_rejected(self):
        for bad in (1, 0, -2):
            with pytest.raises(DomainError):
                real_power_bracket(bad, 2)


class TestGeometricSeries:
    """The bracket is [partial sum, partial sum + tail]; the closed form
    a/(1-r) is written out here, as the registry sweep computes it."""

    def test_chocolate(self):
        bracket = geometric_series_sum(1, Fraction(1, 10), 5)
        assert 1 / (1 - Fraction(1, 10)) == Fraction(10, 9)
        assert bracket.lo == Fraction(111111, 100000)
        assert bracket.contains(Fraction(10, 9))

    def test_cake(self):
        bracket = geometric_series_sum(Fraction(1, 2), Fraction(1, 2), 30)
        assert Fraction(1, 2) / (1 - Fraction(1, 2)) == 1
        assert bracket.contains(1)

    def test_single_term(self):
        bracket = geometric_series_sum(1, 0, 0)
        assert bracket.lo == 1 == 1 / (1 - Fraction(0))
        assert bracket.width == 0

    def test_tail_contains_closed_everywhere(self):
        closed = 3 / (1 - Fraction(2, 7))
        for n in range(0, 30):
            assert geometric_series_sum(3, Fraction(2, 7), n).contains(closed)

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            geometric_series_sum(1, 1, 3)

    @pytest.mark.parametrize("a", [1, Fraction(1, 6), Fraction(-7, 3)])
    @pytest.mark.parametrize("r", [0, Fraction(1, 10), Fraction(25, 36),
                                   Fraction(-1, 2), Fraction(-35, 36)])
    def test_matches_fraction_loop(self, a, r):
        for n in [0, 1, 2, 3, 7, 40, 257]:
            assert geometric_series_sum(a, r, n) == \
                geometric_series_sum_fraction(a, r, n), n


class TestSwineshead:
    """The report compares the partial sum (lhs) with 2 - (N+2)/2^N (rhs);
    `swineshead_bracket` is [partial sum, partial sum + (N+2)/2^N]."""

    def test_base(self):
        report = swineshead_check(0)
        assert report.lhs == 0 == report.rhs

    def test_three_terms(self):
        report = swineshead_check(3)
        assert report.lhs == Fraction(11, 8)
        assert report.rhs == 2 - Fraction(5, 8)
        assert report.passed

    def test_sixty_four_terms(self):
        report = swineshead_check(64)
        assert report.passed
        bracket = swineshead_bracket(64)
        assert bracket.lo == report.lhs
        assert bracket.contains(2)
        assert bracket.width == Fraction(66, 2 ** 64)

    def test_rows_rearrangement(self):
        assert rows_rearrangement_check(1).lhs == Fraction(1, 2)
        report = rows_rearrangement_check(3)
        assert report.lhs == Fraction(11, 8) == report.rhs
        for n in (2, 5, 17, 40):
            assert rows_rearrangement_check(n).passed

    def test_matches_fraction_loop(self):
        for n in range(65):
            assert swineshead_check(n) == swineshead_check_fraction(n), n

    def test_rows_match_fraction_loop(self):
        for n in range(1, 41):
            assert rows_rearrangement_check(n) == \
                rows_rearrangement_check_fraction(n), n


class TestRiemann:
    def test_single_cell(self):
        f = MonomialIntegrand(1, 2, 1)
        assert riemann_bracket(f, 1) == Bracket(0, 1)

    def test_square_at_four_cells(self):
        f = MonomialIntegrand(1, 2, 1)
        b = riemann_bracket(f, 4)
        assert b == Bracket(Fraction(7, 32), Fraction(15, 32))
        assert b.contains(Fraction(1, 3))

    def test_cube_at_two_cells(self):
        f = MonomialIntegrand(1, 3, 1)
        b = riemann_bracket(f, 2)
        assert b == Bracket(Fraction(1, 16), Fraction(9, 16))
        assert b.contains(Fraction(1, 4))

    def test_matches_literal_endpoint_sums(self):
        f = MonomialIntegrand(Fraction(3, 2), 3, Fraction(5, 4))
        for n in (1, 2, 3, 7, 16):
            cell = f.upper / n
            lower = sum(f.value(i * cell) * cell for i in range(n))
            upper = sum(f.value(i * cell) * cell for i in range(1, n + 1))
            assert riemann_bracket(f, n) == Bracket(lower, upper)

    def test_width_law_and_nesting(self):
        for coeff, exp, b_end in ((1, 2, 1), (2, 1, 3), (Fraction(1, 2), 3, 2)):
            f = MonomialIntegrand(coeff, exp, b_end)
            target = f.exact_integral()
            n = 1
            previous = None
            while n <= 1024:
                bracket = riemann_bracket(f, n)
                assert bracket.width == \
                    (f.value(f.upper) - f.value(0)) * f.upper / n
                assert bracket.contains(target)
                if previous is not None:
                    assert previous.contains_bracket(bracket)
                previous = bracket
                n *= 2

    def test_unsupported_exponent(self):
        with pytest.raises(DomainError):
            MonomialIntegrand(1, 4, 1)


class TestPi:
    def test_hexagon_level(self):
        b = pi_bracket(0, Fraction(1, 10 ** 6))
        in_lo, in_hi = bisect_root(Fraction(27, 4), 2, 50)   # 3 sqrt(3) / 2
        out_lo, out_hi = bisect_root(12, 2, 50)              # 2 sqrt(3)
        assert b.lo <= in_hi and in_lo <= b.hi
        assert b.lo <= out_hi and out_lo <= b.hi

    def test_contains_machin_oracle_every_level(self):
        machin_lo, machin_hi = machin_pi_bracket()
        levels = pi_bracket_sequence(12, Fraction(1, 10 ** 12))
        for bracket in levels:
            assert bracket.lo <= machin_lo and machin_hi <= bracket.hi

    def test_nested_levels(self):
        levels = pi_bracket_sequence(10, Fraction(1, 10 ** 10))
        for a, b in zip(levels, levels[1:]):
            assert a.contains_bracket(b)

    def test_final_width(self):
        assert pi_bracket(12, Fraction(1, 10 ** 12)).width <= Fraction(1, 10 ** 6)

    def test_circle_scaling(self):
        eps = Fraction(1, 10 ** 10)
        assert circle_area_bracket(1, 6, eps) == pi_bracket(6, eps)
        machin_lo, machin_hi = machin_pi_bracket()
        four_pi = circle_area_bracket(2, 8, eps)
        assert four_pi.lo <= 4 * machin_lo and 4 * machin_hi <= four_pi.hi
        quarter = circle_area_bracket(Fraction(1, 2), 8, eps)
        assert quarter.contains(machin_lo / 4)

    def test_cylinder(self):
        eps = Fraction(1, 10 ** 10)
        assert cylinder_volume_bracket(1, 1, 6, eps) == pi_bracket(6, eps)
        machin_lo, machin_hi = machin_pi_bracket()
        three_pi = cylinder_volume_bracket(1, 3, 8, eps)
        assert three_pi.lo <= 3 * machin_lo and 3 * machin_hi <= three_pi.hi
        other = cylinder_volume_bracket(3, Fraction(1, 3), 8, eps)
        assert other.contains(3 * machin_lo)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            circle_area_bracket(0, 2, Fraction(1, 10))
        with pytest.raises(DomainError):
            cylinder_volume_bracket(1, 0, 2, Fraction(1, 10))
        with pytest.raises(DomainError):
            pi_bracket(-1, Fraction(1, 10))


class TestGeneratorRegistry:
    def test_known_generators_step(self):
        for name in ("pi", "sqrt2", "nthroot", "power", "riemann2",
                     "riemann3", "swineshead", "chocolate"):
            gen = named_generator(name)
            first = next(gen)
            second = next(gen)
            assert second.width <= first.width

    def test_unknown_generator(self):
        with pytest.raises(DomainError):
            named_generator("zeta")
