from fractions import Fraction

import pytest

from twoside import probability_games
from twoside.registry import SUITES, SuiteParams
from twoside.report import (EXPECTED_FAIL, FAIL, PASS, WARN, IdentityReport,
                            render_value, report_check, row_status)


class TestRowStatus:
    def test_table(self):
        assert row_status(True) == PASS
        assert row_status(False) == FAIL
        assert row_status(True, gate=WARN) == WARN
        assert row_status(False, gate=WARN) == FAIL
        assert row_status(False, expected_fail=True) == EXPECTED_FAIL
        assert row_status(True, expected_fail=True) == FAIL

    def test_failed_gate_fails_the_report_with_a_witness(self):
        report = report_check("s", (3,), 1, 1, True, gate=FAIL)
        assert not report.passed
        assert report.witness == (3,)
        assert report.row()["status"] == FAIL

    def test_warn_gate_kept_on_a_passing_report(self):
        report = report_check("s", (3,), 1, 1, True, gate=WARN)
        assert report.witness is None
        assert report.row()["status"] == WARN

    def test_passing_report_cannot_carry_a_failed_gate(self):
        with pytest.raises(ValueError):
            IdentityReport("s", (3,), 1, 1, True, gate=FAIL)


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


def test_coin_series_expected_fail_is_the_one_declared_case():
    rows = SUITES["prob.coin_series"].runner(SuiteParams(max_n=4))
    assert {r["case"]: r["status"] for r in rows} == {
        f"n={n},l_start={s}": EXPECTED_FAIL if (n, s) == (1, 1) else PASS
        for n in range(1, 5) for s in (0, 1)}
