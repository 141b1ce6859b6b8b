from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoside import probability_games
from twoside.exact_core import Bracket, rat_to_str
from twoside.registry import SUITES, SuiteParams
from twoside.report import (EXPECTED_FAIL, FAIL, PASS, WARN, IdentityReport,
                            render_value, report_check, row_status, rows)
from oracles import rat_to_str_fraction, render_value_isinstance


def _row(report: IdentityReport) -> dict:
    """The row of ``report`` in a suite "s" without case labels."""
    [row] = rows("s", [report], None, False)
    return row


class TestRowStatus:
    def test_table(self):
        assert row_status(True) == PASS
        assert row_status(False) == FAIL
        assert row_status(True, gate=WARN) == WARN
        assert row_status(False, gate=WARN) == FAIL
        assert row_status(False, expected_fail=True) == EXPECTED_FAIL
        assert row_status(True, expected_fail=True) == FAIL

    def test_failed_gate_fails_the_report_with_a_witness(self):
        report = report_check((3,), 1, 1, True, gate=FAIL)
        assert not report.passed
        assert report.witness == (3,)
        assert _row(report)["status"] == FAIL

    def test_warn_gate_kept_on_a_passing_report(self):
        report = report_check((3,), 1, 1, True, gate=WARN)
        assert report.witness is None
        assert _row(report)["status"] == WARN

    @given(st.booleans(), st.sampled_from([PASS, WARN, FAIL]),
           st.one_of(st.none(), st.tuples(st.integers())))
    def test_report_check_holds_the_witness_rule(self, passed, gate,
                                                 witness):
        report = report_check((3,), 1, 2, passed, gate=gate, witness=witness)
        assert report.passed == (passed and gate != FAIL)
        assert (report.witness is None) == report.passed
        if not report.passed:
            assert report.witness == (witness or (3,))
        assert report.gate == gate

    def test_unknown_gate_is_refused(self):
        with pytest.raises(ValueError, match="gate"):
            report_check((3,), 1, 1, True, gate="pass")


class TestDiceGate:
    # 6/11 over 10^4 trials: sigma is about 0.00498, the mean 5454.5 hits.
    @pytest.mark.parametrize("hits, status", [(5455, PASS), (5629, WARN),
                                              (0, FAIL)])
    def test_row_status_follows_the_gate(self, monkeypatch, hits, status):
        monkeypatch.setattr(probability_games, "monte_carlo_dice",
                            lambda trials, seed: hits)
        [row] = SUITES["prob.dice"].runner(SuiteParams(trials=10_000))
        assert row["status"] == status
        assert row["detail"] == {"mc": status}
        assert (row["witness"] is None) == (status != FAIL)


class TestRenderValue:
    def test_scalars(self):
        assert render_value(True) == "true"
        assert render_value(False) == "false"
        assert render_value(-12) == "-12"
        assert render_value(Fraction(6, 3)) == "2"
        assert render_value(Fraction(-1, 2)) == "-1/2"
        assert render_value((1, Fraction(1, 3))) == "(1, 1/3)"

    def test_int_past_the_digit_limit(self):
        assert render_value(10 ** 5000) == "1" + "0" * 5000


# Past the interpreter's 4300-digit str() limit, signed both ways.
_HUGE = st.builds(lambda digits, sign: sign * (10 ** digits - 7),
                  st.integers(4301, 4400), st.sampled_from([1, -1]))
_INTS = st.one_of(st.integers(), _HUGE)
_RATIONALS = st.one_of(
    st.booleans(), _INTS, st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.fractions(), st.builds(Fraction, _INTS, _INTS.filter(bool)))
_BRACKETS = st.lists(st.fractions(), min_size=2, max_size=2).map(
    lambda ends: Bracket(min(ends), max(ends)))
_FIELDS = st.recursive(
    st.one_of(_RATIONALS, _BRACKETS, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=6)


class TestRenderOracle:
    """The exact-type fast paths render as the isinstance chain does."""

    @settings(max_examples=300, deadline=None)
    @given(_FIELDS)
    def test_render_value(self, v):
        assert render_value(v) == render_value_isinstance(v)

    @settings(max_examples=300, deadline=None)
    @given(_RATIONALS)
    def test_rat_to_str(self, q):
        assert rat_to_str(q) == rat_to_str_fraction(q)

    def test_row_params_and_case_match_the_oracle(self):
        report = report_check((True, np.int64(-3), Fraction(-1, 2),
                               (1, Fraction(2, 4))), 1, 1, True)
        row = _row(report)
        assert row["params"] == ["true", "-3", "-1/2", "(1, 1/2)"]
        assert row["case"] == render_value_isinstance(report.params)


class TestRowSides:
    """Each side of a row reads as `render_value` of that side alone, also
    where the sides are equal but of different types, and past the
    4300-digit str() limit."""

    @pytest.mark.parametrize("report", [
        report_check((1,), True, 1, True),
        report_check((1,), 1, True, True),
        report_check((1,), Fraction(2), 2, True),
        report_check((1,), 2, Fraction(2), True),
        report_check((1,), Fraction(-3, 4), Fraction(-3, 4), True),
        report_check((1,), 5, 6, False),
        report_check((1,), Fraction(1, 3), Fraction(1, 2), False),
        report_check((1,), Bracket(0, 1), Fraction(1, 2), True),
        report_check((1,), Fraction(1, 2), Bracket(0, 1), True),
        report_check((1,), 10 ** 5000 - 7, 10 ** 5000 - 7, True),
        report_check((1,), -10 ** 4400, -10 ** 4400, True),
    ], ids=["true_1", "1_true", "fraction_int", "int_fraction",
            "equal_fractions", "failing_ints", "failing_fractions",
            "bracket_lhs", "bracket_rhs", "huge_int", "huge_negative_int"])
    def test_each_side_as_render_value(self, report):
        row = _row(report)
        assert row["lhs"] == render_value(report.lhs)
        assert row["rhs"] == render_value(report.rhs)


def test_coin_series_expected_fail_is_the_one_declared_case():
    rows = SUITES["prob.coin_series"].runner(SuiteParams(max_n=4))
    assert {r["case"]: r["status"] for r in rows} == {
        f"n={n},l_start={s}": EXPECTED_FAIL if (n, s) == (1, 1) else PASS
        for n in range(1, 5) for s in (0, 1)}
