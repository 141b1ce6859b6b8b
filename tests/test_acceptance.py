"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here; nothing
is deferred to later calibration.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from twoside import analysis_brackets as ab
from twoside import combinatorics as comb
from twoside import divisors as dv
from twoside import lattice_pick as lattice
from twoside import polyform
from twoside import probability_games as prob
from twoside.jordan_measure import ConvexPolygon, Disk, jordan_refine
from twoside.report import FAIL, PASS, WARN
from twoside.sums_fib import SumKind, sum_identity_sweep
from oracles import bisect_root, machin_pi_bracket, shoelace_rational


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s < {budget_s}s)")


def test_criterion_01_real_power():
    # independent plain-bisection oracle for 2^1.4142 and 2^1.4143, computed
    # before the clock starts (the budget covers the operation under test)
    oracle_lo, _ = bisect_root(Fraction(2 ** 14142), 10 ** 4, 45, hi=4)
    _, oracle_hi = bisect_root(Fraction(2 ** 14143), 10 ** 4, 45, hi=4)
    with criterion(1, "real exponent power bracket", 1.0):
        bracket = ab.real_power_bracket(2, 3)
        assert bracket.lo <= oracle_lo and oracle_hi <= bracket.hi
        assert bracket.contains(Fraction("2.665144"))
        assert bracket.width <= Fraction(12, 1000)
        assert Fraction("2.663") < bracket.lo and bracket.hi < Fraction("2.667")
        nested = [ab.real_power_bracket(2, d) for d in range(7)]
        for outer, inner in zip(nested, nested[1:]):
            assert outer.contains_bracket(inner)


def test_criterion_02_riemann():
    with criterion(2, "Darboux brackets for x^2 and x^3", 1.0):
        square = ab.MonomialIntegrand(1, 2, 1)
        for n in range(1, 1025):
            bracket = ab.riemann_bracket(square, n)
            n3 = Fraction(6 * n ** 3)
            assert bracket.lo == Fraction((n - 1) * n * (2 * n - 1)) / n3
            assert bracket.hi == Fraction(n * (n + 1) * (2 * n + 1)) / n3
            assert bracket.contains(Fraction(1, 3))
            assert bracket.width == Fraction(1, n)
        cube = ab.MonomialIntegrand(1, 3, 1)
        n = 1
        while n <= 1024:
            assert ab.riemann_bracket(cube, n).contains(Fraction(1, 4))
            n *= 2


def test_criterion_03_pi_circle_cylinder():
    with criterion(3, "pi / circle / cylinder enclosures", 2.0):
        eps = Fraction(1, 10 ** 12)
        machin_lo, machin_hi = machin_pi_bracket()
        pi = ab.pi_bracket(12, eps)
        assert pi.width <= Fraction(1, 10 ** 6)
        assert pi.lo <= machin_lo and machin_hi <= pi.hi
        circle = ab.circle_area_bracket(2, 12, eps)
        assert circle.lo <= 4 * machin_lo and 4 * machin_hi <= circle.hi
        cylinder = ab.cylinder_volume_bracket(1, 3, 12, eps)
        assert cylinder.lo <= 3 * machin_lo and 3 * machin_hi <= cylinder.hi


def test_criterion_04_divisors():
    with criterion(4, "divisor identity and harmonic sandwich", 5.0):
        n_max = 10 ** 4
        table = dv.divisor_counts(n_max)
        harmonics = dv.harmonic_numbers(n_max)
        for n in range(1, n_max + 1):
            assert dv.divisor_identity_check(n, table).passed
        bounds = [dv.divisor_average_bounds(n, table, harmonics[n])
                  for n in range(1, n_max + 1)]
        assert all(b.passed for b in bounds)
        attained = [b.n for b in bounds if b.avg == b.upper]
        assert attained == [1, 2]  # upper bound attained only when all k | n


def test_criterion_05_sums():
    with criterion(5, "eleven summation identities", 2.0):
        for kind in SumKind:
            reports = sum_identity_sweep(kind, 1000)
            assert len(reports) == 1000
            assert all(r.passed for r in reports)
        odd = sum_identity_sweep(SumKind.ODD_SQUARE, 1000)[-1]
        assert odd.lhs == 10 ** 6 == odd.rhs


def test_criterion_06_combinatorics():
    with criterion(6, "binomial, coloring and partition suites", 30.0):
        for n in range(0, 201):
            for k in range(0, n + 2):
                assert comb.binom_identity_check(comb.BinomKind.PASCAL,
                                                 n=n, k=k).passed
        for n in range(0, 61):
            assert comb.binom_identity_check(comb.BinomKind.ROW_SUM, n=n).passed
            assert comb.binom_identity_check(comb.BinomKind.WEIGHTED_3N,
                                             n=n).passed
            assert comb.binom_identity_check(comb.BinomKind.DOUBLE_3N,
                                             n=n).passed
            if n >= 1:
                assert comb.binom_identity_check(comb.BinomKind.FIB_DIAGONAL,
                                                 n=n).passed
            for k in range(0, n + 1):
                assert comb.binom_identity_check(comb.BinomKind.HOCKEY_STICK,
                                                 n=n, k=k).passed
                if 2 <= k <= n:
                    assert comb.binom_identity_check(
                        comb.BinomKind.SQUARE_PASCAL, n=n, k=k).passed
                if 1 <= k <= n - 1:
                    assert comb.binom_identity_check(
                        comb.BinomKind.ABSORPTION_STANDARD, n=n, k=k).passed
                for l in range(0, k + 1):
                    assert comb.binom_identity_check(
                        comb.BinomKind.COMMITTEE_PRODUCT, n=n, k=k, l=l).passed
        for n in range(0, 26):
            for k in range(0, n + 1):
                for j in range(0, k + 1):
                    assert comb.binom_identity_check(comb.BinomKind.SPLIT_J,
                                                     n=n, k=k, j=j).passed
        printed = comb.binom_identity_check(comb.BinomKind.ABSORPTION_PRINTED,
                                            n=3, k=1)
        assert not printed.passed and printed.witness == (3, 1)
        assert comb.absorption_printed_minimal_witness() == (3, 1)
        for n in range(0, 16):
            for k in range(0, n + 1):
                assert comb.binomial_enumeration_crosscheck(n, k).passed
        for n in range(1, 31):
            report = comb.colorings_report(n)
            assert report.lhs == comb.fibonacci(n + 2)
            assert report.passed  # the count also equals the binomial sum
        for n in range(1, 26):
            for k in range(1, n + 1):
                duality = comb.partition_duality_reports(n)[k - 1]
                assert duality.passed and duality.detail["bijection"]


def test_criterion_07_pick():
    with criterion(7, "Pick formula and empty triangulation", 30.0):
        for seed in range(200):
            poly = lattice.random_lattice_polygon(42 + seed, 20)
            assert lattice.pick_check(poly).passed
            first = lattice.empty_triangulation(poly, order="boundary_first")
            second = lattice.empty_triangulation(poly, order="interior_first")
            for report in (first, second):
                assert report.all_empty and report.all_half_area
                assert report.count_check and report.area_check
            assert first.count == second.count


def test_criterion_08_jordan():
    with criterion(8, "Jordan inner/outer refinement", 20.0):
        machin_lo, machin_hi = machin_pi_bracket()
        disk = [b for _, b in jordan_refine(
            Disk((Fraction(0), Fraction(0)), Fraction(1)), Fraction(1, 20))]
        assert disk[-1].lo <= machin_lo and machin_hi <= disk[-1].hi
        poly = ConvexPolygon(((0, 0), (3, 1), (2, 3), (-1, 2)))
        area = shoelace_rational(poly.vertices)
        refined = [b for _, b in jordan_refine(poly, Fraction(1, 50))]
        assert refined[-1].contains(area)
        assert refined[-1].width <= Fraction(1, 50)
        for steps in (disk, refined):
            for coarse, fine in zip(steps, steps[1:]):
                assert fine.lo >= coarse.lo and fine.hi <= coarse.hi


def test_criterion_09_probability():
    with criterion(9, "dice and coin games three ways", 30.0):
        report, mc = prob.dice_game(terms=40, trials=10 ** 6, seed=42)
        assert report.lhs == Fraction(6, 11)    # the chain-solved value
        assert report.rhs.width <= Fraction(1, 10 ** 6)   # the series bracket
        assert report.rhs.contains(Fraction(6, 11))
        assert mc.status in (PASS, WARN)  # soft 3-sigma gate
        for n in range(1, 13):
            assert prob.coin_game_exact(n) == prob.coin_game_closed_form(n)
        index_0, index_1 = prob.coin_series_index_reports(1)
        assert index_0.passed is True    # index 0 reproduces the DP value
        assert index_1.passed is False   # printed index 1 does not


def test_criterion_10_series():
    with criterion(10, "chocolate, Swineshead, row rearrangement", 1.0):
        from twoside.registry import SuiteParams, SUITES
        params = SuiteParams(max_n=40)
        chocolate_rows = SUITES["series.chocolate"].runner(params)
        assert len(chocolate_rows) == 41
        for n, row in enumerate(chocolate_rows):
            assert row["rhs"] == "10/9"     # the sweep's closed form
            assert row["status"] == PASS
            assert ab.geometric_series_sum(1, Fraction(1, 10), n).contains(
                Fraction(10, 9))
        for n in range(0, 65):
            assert ab.swineshead_check(n).lhs == 2 - Fraction(n + 2, 2 ** n)
            assert ab.swineshead_bracket(n).contains(2)
        for n in range(1, 41):
            assert ab.rows_rearrangement_check(n).passed
        cake_rows = SUITES["series.cake"].runner(SuiteParams(max_n=10))
        assert cake_rows[-1]["rhs"] == "1"
        assert cake_rows[-1]["status"] == PASS


def test_criterion_11_geometry():
    with criterion(11, "Ceva, squares fit, Cauchy-Schwarz", 10.0):
        from twoside.registry import SuiteParams, SUITES
        params = SuiteParams(trials=100, seed=42)
        for suite_id in ("geom.ceva", "geom.ceva_converse"):
            rows = SUITES[suite_id].runner(params)
            assert len(rows) >= 100
            assert all(row["status"] == PASS for row in rows)
        squares = SUITES["geom.squares_fit"].runner(params)
        assert all(row["status"] == PASS for row in squares)
        example = polyform.cauchy_schwarz_check  # exact squared form
        from twoside.rng import SplitMix64
        rng = SplitMix64(42)
        for _ in range(10 ** 4):
            a1, a2, b1, b2 = (Fraction(rng.below(41) - 20, rng.below(9) + 1)
                              for _ in range(4))
            report = example(a1, a2, b1, b2)
            assert report.passed
            assert report.detail["equality"] == (a1 * b2 - a2 * b1 == 0)
        from twoside.euclid_checks import squares_fit_report
        assert squares_fit_report(1, 2).lhs == Fraction(2, 3)


def test_criterion_11_mixture_printed_value():
    """The printed mixture problem against its printed answer.

    1.3 kg of unknown concentration x plus 0.8 kg at 15% gives 2.1 kg at
    10%.  Counting the dissolved mass per component and for the whole
    mixture, 1.3x + 0.8*15 = 2.1*10, has the exact solution x = 90/13.
    The printed answer 7 breaks that balance (1.3*7 + 12 = 21.1, not 21),
    so it is kept on display as a misprint; 7 is the nearest integer to
    90/13, which this check records without claiming the print rounded.
    """
    with criterion(11, "mixture exact 90/13, printed 7 breaks balance", 10.0):
        m1, m2, c2, c_mix = Fraction(13, 10), Fraction(8, 10), 15, 10
        x = polyform.mixture_concentration(m1, m2, c2, c_mix)
        assert x == Fraction(90, 13)
        assert m1 * x + m2 * c2 == (m1 + m2) * c_mix
        printed = 7
        assert m1 * printed + m2 * c2 != (m1 + m2) * c_mix
        assert Fraction(13, 2) < x < Fraction(15, 2)
