from fractions import Fraction

import numpy as np
import pytest

from twoside import divisors
from twoside.divisors import (HARMONIC_MAX_N, SIEVE_MAX_N,
                              divisor_average_bounds, divisor_counts,
                              divisor_identity_check, floor_sum,
                              harmonic_number, harmonic_numbers)
from twoside.exact_core import DomainError
from oracles import (divisor_counts_per_i, floor_sum_loop,
                     trial_division_divisor_count)


def counts(n: int) -> list[int]:
    """d(0) = 0, d(1), ..., d(n), read back off the table's running totals."""
    return np.diff(divisor_counts(n).totals, prepend=0).tolist()


class TestDivisorCounts:
    def test_single(self):
        assert counts(1)[1:] == [1]

    def test_first_six(self):
        assert counts(6)[1:] == [1, 2, 2, 3, 2, 4]

    def test_twelve(self):
        assert counts(12)[12] == 6

    def test_sieve_equals_trial_division(self):
        table = counts(2000)
        for k in range(1, 2001):
            assert table[k] == trial_division_divisor_count(k)

    def test_pair_sieve_equals_per_i_sieve(self):
        reference = divisor_counts_per_i(3000)
        for n in range(1, 3001):
            assert counts(n) == reference[:n + 1]
        assert counts(300_000) == divisor_counts_per_i(300_000)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            divisor_counts(0)

    @pytest.mark.parametrize("n", [SIEVE_MAX_N + 1, 10 ** 12])
    def test_refuses_above_cap_before_allocating(self, n, monkeypatch):
        def no_allocation(*_args, **_kwargs):
            raise AssertionError("sieve array allocated")
        monkeypatch.setattr("twoside.divisors.np.zeros", no_allocation)
        with pytest.raises(DomainError, match=str(SIEVE_MAX_N)):
            divisor_counts(n)


class TestIdentity:
    def test_base(self):
        report = divisor_identity_check(1)
        assert report.passed and report.lhs == 1

    def test_six(self):
        report = divisor_identity_check(6)
        assert report.lhs == 14
        assert report.rhs == 6 + 3 + 2 + 1 + 1 + 1

    def test_floor_sum_direct(self):
        assert floor_sum(6) == 14
        assert floor_sum(1) == 1
        with pytest.raises(DomainError):
            floor_sum(0)

    def test_floor_sum_matches_loop(self):
        for n in range(1, 3001):
            assert floor_sum(n) == floor_sum_loop(n)
        assert floor_sum(300_000) == floor_sum_loop(300_000)

    def test_sweep_small(self):
        table = divisor_counts(2000)
        for n in range(1, 2001):
            assert divisor_identity_check(n, table).passed


class TestAverageBounds:
    def test_boundary_n1(self):
        report = divisor_average_bounds(1)
        assert (report.lower, report.avg, report.upper) == (0, 1, 1)
        assert report.passed  # upper bound attained, lower strict

    def test_n4(self):
        report = divisor_average_bounds(4)
        assert report.lower == Fraction(13, 12)
        assert report.avg == 2
        assert report.upper == Fraction(25, 12)
        assert report.passed

    def test_harmonic_numbers_refuse_above_cap(self):
        with pytest.raises(DomainError, match=str(HARMONIC_MAX_N)):
            harmonic_numbers(HARMONIC_MAX_N + 1)

    def test_refuses_above_cap_before_any_work(self, monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("sieve or harmonic numbers started")
        for name in ("divisor_counts", "harmonic_numbers", "harmonic_number"):
            monkeypatch.setattr(divisors, name, no_work)
        with pytest.raises(DomainError, match=str(HARMONIC_MAX_N)):
            divisor_average_bounds(HARMONIC_MAX_N + 1)

    def test_harmonic_number_refuses_above_cap_before_any_work(
            self, monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("binary splitting started")
        monkeypatch.setattr(divisors, "_harmonic_split", no_work)
        with pytest.raises(DomainError, match=str(HARMONIC_MAX_N)):
            harmonic_number(HARMONIC_MAX_N + 1)

    def test_harmonic_number_equals_prefix_sums(self):
        prefixes = harmonic_numbers(2000)
        for n in range(2001):
            assert harmonic_number(n) == prefixes[n], n

    def test_harmonic_number_at_the_cap(self):
        assert harmonic_number(HARMONIC_MAX_N) == \
            harmonic_numbers(HARMONIC_MAX_N)[HARMONIC_MAX_N]

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 1000, 8192])
    def test_bounds_without_harmonic_use_the_same_value(self, n,
                                                        monkeypatch):
        table = divisor_counts(n)
        expected = divisor_average_bounds(n, table, harmonic_numbers(n)[n])

        def no_prefixes(*_args, **_kwargs):
            raise AssertionError("all prefixes built for one H_n")
        monkeypatch.setattr(divisors, "harmonic_numbers", no_prefixes)
        assert divisor_average_bounds(n, table) == expected
        assert divisor_average_bounds(n) == expected

    def test_harmonic_values(self):
        hs = harmonic_numbers(4)
        assert hs[4] == Fraction(25, 12)
        assert hs[1] == 1

    def test_sandwich_to_1000(self):
        table = divisor_counts(1000)
        harmonics = harmonic_numbers(1000)
        reports = [divisor_average_bounds(n, table, harmonics[n])
                   for n in range(1, 1001)]
        assert all(r.passed for r in reports)
        attained = [r.n for r in reports if r.avg == r.upper]
        # Equality in the upper bound needs every k <= n to divide n, which
        # happens at n = 1 and n = 2 and never again.
        assert attained == [1, 2]
