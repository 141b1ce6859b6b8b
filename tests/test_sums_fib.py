import pytest

from twoside.exact_core import DomainError
from twoside.sums_fib import (SUM_MAX_N, SumKind, _fibonacci_pair,
                              fib_betweenness_report, fibonacci,
                              sum_identity_sweep)
from oracles import fibonacci_matrix, literal_sum


class TestFibonacci:
    def test_base_cases(self):
        assert fibonacci(1) == 1
        assert fibonacci(2) == 1

    def test_ten(self):
        assert fibonacci(10) == 55

    def test_big_value(self):
        assert fibonacci(90) == 2880067194370816120

    def test_against_matrix_oracle(self):
        for n in range(1, 120):
            assert fibonacci(n) == fibonacci_matrix(n)

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            fibonacci(0)
        with pytest.raises(DomainError):
            _fibonacci_pair(0)

    def test_pair_against_matrix_oracle(self):
        # The fib_squares closed form multiplies this pair.
        for n in range(1, 121):
            assert _fibonacci_pair(n) == (fibonacci_matrix(n),
                                          fibonacci_matrix(n + 1))


# Expected values computed by hand-checked listings for tiny n.
_HAND_CASES = {
    SumKind.TRIANGULAR: {4: 10, 100: 5050},
    SumKind.ODD_SQUARE: {1: 1, 4: 16},
    SumKind.EVEN: {3: 12},
    SumKind.UPDOWN: {3: 9},          # 1+2+3+2+1
    SumKind.SQUARES: {4: 30},
    SumKind.CUBES: {3: 36},
    SumKind.FIB_SQUARES: {4: 15},    # 1+1+4+9 = f_4 f_5 = 3*5
    SumKind.ADJ_TRIANGULAR: {3: 16},  # 6 + 10
    SumKind.PALINDROME_ODD: {1: 5, 2: 13, 3: 25},
    SumKind.CUBE_LAYERS: {2: 8, 3: 27, 4: 64},
    SumKind.TRIANGULAR_BINOM: {5: 15},
}


class TestSumIdentities:
    @pytest.mark.parametrize("kind", list(SumKind))
    def test_hand_cases(self, kind):
        reports = sum_identity_sweep(kind, max(_HAND_CASES[kind]))
        for n, expected in _HAND_CASES[kind].items():
            report = reports[n - 1]
            assert report.params == (n,)
            assert report.passed
            assert report.lhs == expected

    @pytest.mark.parametrize("kind", list(SumKind))
    def test_sweep_matches_single_checks(self, kind):
        # Row n is the same whatever n the sweep runs to, and each row's
        # literal sum matches an independent one.
        reports = sum_identity_sweep(kind, 100)
        assert len(reports) == 100
        for n, swept in enumerate(reports, start=1):
            single = sum_identity_sweep(kind, n)[-1]
            assert swept.params == single.params == (n,)
            assert swept.lhs == single.lhs == literal_sum(kind.value, n)
            assert swept.rhs == single.rhs
            assert swept.passed and single.passed

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_empty_sweep(self, max_n):
        assert sum_identity_sweep(SumKind.EVEN, max_n) == []

    @pytest.mark.parametrize("kind", ["bogus", "even", None])
    def test_unknown_kind_is_a_domain_error(self, kind):
        # Refused before the sweep starts, so even an empty sweep refuses it.
        for max_n in (3, 0):
            with pytest.raises(DomainError, match="unknown sum kind"):
                sum_identity_sweep(kind, max_n)

    def test_palindrome_matches_listed_rows(self):
        # 1+3+1 = 1^2+2^2, 1+3+5+3+1 = 2^2+3^2, 1+3+5+7+5+3+1 = 3^2+4^2
        reports = sum_identity_sweep(SumKind.PALINDROME_ODD, 3)
        for k, total in ((1, 5), (2, 13), (3, 25)):
            assert reports[k - 1].lhs == total == k * k + (k + 1) ** 2

    def test_cube_layers_fit_int64_at_the_cap(self):
        # Every cube-layer partial sum is at most n^3, and the layers are
        # added in int64: raising the cap past this bound must fail here.
        assert SUM_MAX_N ** 3 < 2 ** 63

    @pytest.mark.parametrize("n", [1, 2, 3, SUM_MAX_N])
    def test_cube_layers_int64_count(self, n):
        report = sum_identity_sweep(SumKind.CUBE_LAYERS, n)[-1]
        assert type(report.lhs) is int
        assert report.lhs == literal_sum("cube_layers", n) == n ** 3
        assert report.passed

    def test_odd_square_at_1000(self):
        report = sum_identity_sweep(SumKind.ODD_SQUARE, 1000)[-1]
        assert report.lhs == 10 ** 6 and report.rhs == 10 ** 6

    def test_adjacent_triangulars_sum_to_square(self):
        for k, report in enumerate(
                sum_identity_sweep(SumKind.ADJ_TRIANGULAR, 299), start=1):
            assert report.passed
            assert report.rhs == (k + 1) ** 2


class TestBetweenness:
    def test_small_example_x(self):
        r = fib_betweenness_report(1, 2)
        x, _ = r.lhs
        assert x == 7  # f_3 + f_5 = 2 + 5
        assert x == fibonacci(6) - fibonacci(2)
        assert r.rhs[0] == (5, 8)
        assert r.passed

    def test_small_example_y(self):
        r = fib_betweenness_report(1, 2)
        _, y = r.lhs
        assert y == 4  # f_2 + f_4 = 1 + 3
        assert y == fibonacci(5) - fibonacci(1)
        assert r.rhs[1] == (3, 5)

    def test_telescoping_at_scale(self):
        r = fib_betweenness_report(3, 9)
        assert r.detail["telescoped"]
        assert r.lhs == (sum(fibonacci(i) for i in range(7, 20, 2)),
                         sum(fibonacci(i) for i in range(6, 19, 2)))

    def test_never_fibonacci(self):
        for n in range(2, 41):
            fib_set = {fibonacci(i) for i in range(1, 2 * n + 3)}
            for m in range(1, n):
                r = fib_betweenness_report(m, n)
                assert r.passed
                x, y = r.lhs
                assert x not in fib_set
                assert y not in fib_set

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fib_betweenness_report(2, 2)
        with pytest.raises(DomainError):
            fib_betweenness_report(0, 3)
