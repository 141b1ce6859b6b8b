import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from twoside import combinatorics
from twoside.combinatorics import (BinomKind, _conjugate,
                                   absorption_printed_minimal_witness,
                                   binom_identity_check, binomial,
                                   binomial_enumeration_crosscheck,
                                   colorings_report,
                                   partition_duality_reports,
                                   partitions_enumerate)
from twoside.exact_core import DomainError
from twoside.registry import SUITES, SuiteParams
from twoside.sums_fib import fibonacci
from oracles import (binom_identity_check_chain, binomial_multiplicative,
                     partition_conjugate_cells, partition_count,
                     partition_count_pentagonal, partition_duality_oracle,
                     partitions_descend)


@st.composite
def partitions(draw, max_n=20):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n, max_size=n))
    counts = Counter(bins)
    return tuple(sorted(counts.values(), reverse=True))


class TestBinomial:
    def test_edge_cases(self):
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1
        assert binomial(7, 8) == 0
        assert binomial(7, -1) == 0

    def test_small(self):
        assert binomial(4, 2) == 6

    def test_poker(self):
        assert binomial(52, 5) == 2598960

    def test_against_factorials(self):
        for n in range(0, 30):
            for k in range(0, n + 1):
                expected = (math.factorial(n)
                            // (math.factorial(k) * math.factorial(n - k)))
                assert binomial(n, k) == expected

    def test_negative_n(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)


class TestPascalTable:
    def test_agrees_with_oracle_exhaustively(self):
        rows = combinatorics._pascal_rows(120)
        for n in range(121):
            for k in range(-1, n + 2):
                expected = binomial_multiplicative(n, k)
                assert binomial(n, k) == expected
                assert combinatorics._at(rows[n], k) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=combinatorics.BINOM_MAX_N + 1)
           .flatmap(lambda n: st.tuples(st.just(n),
                                        st.integers(min_value=0,
                                                    max_value=n))))
    def test_agrees_with_oracle_up_to_cap(self, nk):
        n, k = nk
        expected = binomial_multiplicative(n, k)
        assert binomial(n, k) == expected
        assert combinatorics._pascal_rows(n)[n][k] == expected

    def test_rows_are_built_on_demand(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_PASCAL", [[1]])
        assert binom_identity_check(BinomKind.ROW_SUM, n=3).passed
        assert combinatorics._PASCAL == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1],
                                         [1, 4, 6, 4, 1]]

    @pytest.mark.parametrize("kind", list(BinomKind))
    def test_cap_refused_before_table_grows(self, kind, monkeypatch):
        monkeypatch.setattr(combinatorics, "_PASCAL", [[1]])
        cap = combinatorics.BINOM_MAX_N
        with pytest.raises(DomainError, match=str(cap)):
            binom_identity_check(kind, n=cap + 1, k=1, j=0, l=0)
        assert combinatorics._PASCAL == [[1]]

    def test_cap_is_allowed(self):
        cap = combinatorics.BINOM_MAX_N
        assert binom_identity_check(BinomKind.ROW_SUM, n=cap).passed
        assert binom_identity_check(BinomKind.SPLIT_J, n=cap, k=cap,
                                    j=cap // 2).passed


# Kinds whose second route is `binomial`; the others compare the table with
# 2**n, 3**n or `fibonacci`.
BINOMIAL_SIDE = {BinomKind.PASCAL, BinomKind.SQUARE_PASCAL, BinomKind.SPLIT_J,
                 BinomKind.HOCKEY_STICK, BinomKind.ABSORPTION_PRINTED,
                 BinomKind.ABSORPTION_STANDARD, BinomKind.COMMITTEE_PRODUCT}


def small_outcomes(kind: BinomKind) -> list[tuple]:
    """(params, passed) of every report of `kind` with n <= 8."""
    out = []
    for n in range(9):
        for k in range(n + 2):
            for extra in range(k + 1):
                try:
                    r = binom_identity_check(kind, n=n, k=k, j=extra, l=extra)
                except DomainError:
                    continue
                out.append((r.params, r.passed))
    return out


class TestBrokenRoutes:
    """One wrong value on either route flips a report: no kind evaluates
    both of its sides through the same route, where the error would cancel.
    ABSORPTION_PRINTED holds only at k = n/2, so its flip may go either
    way."""

    @pytest.mark.parametrize("kind", list(BinomKind))
    def test_table_entry_plus_one(self, kind, monkeypatch):
        before = small_outcomes(kind)
        rows = [list(row) for row in combinatorics._pascal_rows(9)]
        rows[3][2] += 1  # read by every kind at some n <= 8
        monkeypatch.setattr(combinatorics, "_PASCAL", rows)
        assert small_outcomes(kind) != before

    @pytest.mark.parametrize("kind", list(BinomKind))
    def test_binomial_plus_one(self, kind, monkeypatch):
        before = small_outcomes(kind)
        exact = combinatorics.binomial
        monkeypatch.setattr(combinatorics, "binomial",
                            lambda n, k: exact(n, k) + 1)
        assert (small_outcomes(kind) != before) == (kind in BINOMIAL_SIDE)


class TestTableDispatch:
    """Each kind's sides are found in a table; the old if-chain is the
    oracle."""

    @pytest.mark.parametrize("kind, params", [("pascal", {"n": 3, "k": 1}),
                                              (None, {"n": 3})],
                             ids=["pascal", "None"])
    def test_unknown_kind_refused_before_any_row(self, kind, params,
                                                 monkeypatch):
        monkeypatch.setattr(combinatorics, "_PASCAL", [[1]])
        with pytest.raises(DomainError, match="unknown binomial kind"):
            binom_identity_check(kind, **params)
        assert combinatorics._PASCAL == [[1]]

    @pytest.mark.parametrize("kind", list(BinomKind))
    def test_matches_if_chain_on_every_swept_point(self, kind, monkeypatch):
        calls = []

        def record(called_kind, **params):
            calls.append((called_kind, params))
            return binom_identity_check(called_kind, **params)

        monkeypatch.setattr(combinatorics, "binom_identity_check", record)
        # Each sweep at max_n <= 12 is a subset of its sweep at 12.
        SUITES[f"binom.{kind.value}"].runner(SuiteParams(max_n=12))
        assert calls and {k for k, _ in calls} == {kind}
        for _, params in calls:
            got = binom_identity_check(kind, **params)
            want = binom_identity_check_chain(kind, **params)
            assert ((got.params, got.lhs, got.rhs, got.passed)
                    == (want.params, want.lhs, want.rhs, want.passed))


class TestEnumerationCrosscheck:
    def test_five_choose_two(self):
        report = binomial_enumeration_crosscheck(5, 2)
        assert report.lhs == (10, 10) and report.rhs == 10

    def test_all_right_path(self):
        assert binomial_enumeration_crosscheck(9, 9).passed

    def test_six_choose_three(self):
        report = binomial_enumeration_crosscheck(6, 3)
        assert report.rhs == 20 and report.passed

    def test_cap_boundary(self):
        assert binomial_enumeration_crosscheck(22, 11).passed
        with pytest.raises(DomainError):
            binomial_enumeration_crosscheck(23, 2)

    def test_sweep_to_12(self):
        for n in range(13):
            for k in range(n + 1):
                assert binomial_enumeration_crosscheck(n, k).passed


class TestIdentities:
    def test_pascal_recurrence_wide(self):
        for n in range(0, 201, 7):
            for k in range(0, n + 2):
                assert binom_identity_check(BinomKind.PASCAL, n=n, k=k).passed

    def test_row_sum(self):
        report = binom_identity_check(BinomKind.ROW_SUM, n=10)
        assert report.lhs == 1024 == report.rhs

    def test_weighted_3n_base(self):
        report = binom_identity_check(BinomKind.WEIGHTED_3N, n=0)
        assert report.lhs == 1 == report.rhs

    @pytest.mark.parametrize("kind", [BinomKind.ROW_SUM, BinomKind.WEIGHTED_3N,
                                      BinomKind.DOUBLE_3N])
    def test_single_parameter_kinds(self, kind):
        for n in range(0, 61):
            assert binom_identity_check(kind, n=n).passed

    def test_square_pascal_and_hockey_stick(self):
        for n in range(2, 61):
            for k in range(2, n + 1):
                assert binom_identity_check(BinomKind.SQUARE_PASCAL,
                                            n=n, k=k).passed
        for n in range(0, 61):
            for k in range(0, n + 1):
                assert binom_identity_check(BinomKind.HOCKEY_STICK,
                                            n=n, k=k).passed

    def test_split_j(self):
        for n in range(0, 26):
            for k in range(0, n + 1):
                for j in range(0, k + 1):
                    assert binom_identity_check(BinomKind.SPLIT_J,
                                                n=n, k=k, j=j).passed

    def test_committee_product(self):
        for n in range(0, 61, 3):
            for k in range(0, n + 1):
                for l in range(0, k + 1):
                    assert binom_identity_check(BinomKind.COMMITTEE_PRODUCT,
                                                n=n, k=k, l=l).passed

    def test_absorption_printed_fails_at_3_1(self):
        report = binom_identity_check(BinomKind.ABSORPTION_PRINTED, n=3, k=1)
        assert not report.passed
        assert (report.lhs, report.rhs) == (6, 3)
        assert report.witness == (3, 1)

    def test_absorption_minimal_witness(self):
        assert absorption_printed_minimal_witness() == (3, 1)

    def test_absorption_standard(self):
        report = binom_identity_check(BinomKind.ABSORPTION_STANDARD, n=3, k=1)
        assert report.passed and report.lhs == 3
        for n in range(2, 61):
            for k in range(1, n):
                assert binom_identity_check(BinomKind.ABSORPTION_STANDARD,
                                            n=n, k=k).passed

    def test_fib_diagonal(self):
        assert binom_identity_check(BinomKind.FIB_DIAGONAL, n=1).lhs == 1
        report = binom_identity_check(BinomKind.FIB_DIAGONAL, n=5)
        assert report.lhs == 5  # 1 + 3 + 1
        assert binom_identity_check(BinomKind.FIB_DIAGONAL, n=30).lhs == 832040
        for n in range(1, 61):
            assert binom_identity_check(BinomKind.FIB_DIAGONAL, n=n).passed

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            binom_identity_check(BinomKind.SPLIT_J, n=4, k=2, j=3)


class TestColorings:
    """The report's lhs is the count and its rhs f_{n+2}; it passes when
    the count equals both f_{n+2} and sum_k C(n-k+1, k)."""

    def test_listed_values(self):
        assert colorings_report(1).lhs == 2
        assert colorings_report(2).lhs == 3
        assert colorings_report(5).lhs == 13

    def test_fib_and_binom_checks(self):
        for n in range(1, 19):
            report = colorings_report(n)
            assert report.passed and report.params == (n,)
            assert report.lhs == report.rhs == fibonacci(n + 2)

    def test_recurrence_from_counts(self):
        counts = {n: colorings_report(n).lhs for n in range(1, 19)}
        for n in range(3, 19):
            assert counts[n] == counts[n - 1] + counts[n - 2]

    def test_report_row(self):
        assert colorings_report(6).passed

    def test_binom_side_alone_failing_fails_the_report(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "binomial", lambda n, k: 0)
        report = colorings_report(6)
        assert report.lhs == report.rhs == 21
        assert not report.passed and report.witness == (6,)

    def test_cap(self):
        with pytest.raises(DomainError):
            colorings_report(31)

    @pytest.mark.parametrize("block", [None, 1, 16])
    def test_count_matches_brute_force(self, block, monkeypatch):
        # Small blocks split even short strings over many numpy blocks.
        if block is not None:
            monkeypatch.setattr(combinatorics, "_COLORING_BLOCK", block)
        for n in range(1, 17):
            brute = sum(1 for x in range(1 << n) if not x & (x >> 1))
            assert colorings_report(n).lhs == brute


class TestPartitions:
    def test_single(self):
        assert partitions_enumerate(1) == [(1,)]

    def test_four(self):
        parts = partitions_enumerate(4)
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_ten_has_42(self):
        assert len(partitions_enumerate(10)) == 42 == partition_count(10)

    def test_counts_against_pentagonal_oracle(self):
        for n in range(1, 36):
            assert len(partitions_enumerate(n)) == partition_count_pentagonal(n)
            assert partition_count(n) == partition_count_pentagonal(n)

    def test_no_duplicates_and_sorted(self):
        seen = partitions_enumerate(12)
        assert len(set(seen)) == len(seen)
        assert all(sum(p) == 12 for p in seen)

    def test_conjugate_examples(self):
        assert _conjugate((3, 1)) == (2, 1, 1)
        assert _conjugate((5,)) == (1,) * 5

    def test_tuples_match_oracle(self):
        # `check` lists n <= 25; ZS1's order is pinned up to the cap, 45.
        for n in [*range(1, 31), 45]:
            listed = partitions_descend(n)
            assert partitions_enumerate(n) == listed
            for p in listed:
                assert _conjugate(p) == partition_conjugate_cells(p)

    @settings(max_examples=200, deadline=None)
    @given(partitions())
    def test_conjugate_involution(self, p):
        assert _conjugate(_conjugate(p)) == p

    @settings(max_examples=100, deadline=None)
    @given(partitions())
    def test_conjugate_swaps_width_and_height(self, p):
        q = _conjugate(p)
        assert q[0] == len(p)
        assert len(q) == p[0]
        assert sum(q) == sum(p)


class TestDuality:
    def test_unconstrained(self):
        report = partition_duality_reports(6)[5]
        assert report.passed
        assert report.lhs == partition_count(6)

    def test_five_two(self):
        report = partition_duality_reports(5)[1]
        assert report.passed and report.lhs == 3

    def test_twelve_three(self):
        report = partition_duality_reports(12)[2]
        assert report.passed
        assert report.detail["bijection"] is True

    def test_sweep(self):
        for n in range(1, 16):
            reports = partition_duality_reports(n)
            assert [r.params for r in reports] == [(n, k)
                                                   for k in range(1, n + 1)]
            assert all(r.passed for r in reports)

    @pytest.mark.parametrize("index", range(22))
    def test_wrong_conjugate_fails_from_its_k(self, index, monkeypatch):
        # One partition of 8 is sent to the conjugate of the one listed
        # before it, a valid partition of 8 but not the right one.  The
        # one before usually has a larger largest part, so it is filed at a
        # later k, and until then no conjugate is repeated: only the set
        # comparison sees the wrong member.
        listed = partitions_enumerate(8)
        assert len(listed) == 22
        target = listed[index]
        conjugate = combinatorics._conjugate
        wrong = conjugate(listed[index - 1])
        monkeypatch.setattr(
            combinatorics, "_conjugate",
            lambda parts: wrong if parts == target else conjugate(parts))
        for report in partition_duality_reports(8):
            k = report.params[1]
            if k < target[0]:
                assert report.passed and report.detail["bijection"]
            else:
                assert report.detail["bijection"] is False
                assert not report.passed
                assert report.witness == (8, k)

    def test_reports_equal_oracle(self):
        reports = [r for n in range(1, 26) for r in partition_duality_reports(n)]
        assert len(reports) == 325
        assert reports == [r for n in range(1, 26)
                           for r in partition_duality_oracle(n)]
