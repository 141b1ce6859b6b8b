import contextlib
import dataclasses
import hashlib
import io
import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from twoside import analysis_brackets as ab
from twoside import combinatorics
from twoside import divisors as dv
from twoside import euclid_checks, jordan_measure, lattice_pick, polyform
from twoside import sums_fib
from twoside import probability_games as prob
from twoside.cli import _json_rows, build_parser, main
from twoside.registry import SUITES, SWEEP_MAX_TRIALS, SuiteParams
from twoside.report import ROW_SCHEMA, rows as report_rows

# sha256 of `twoside check all --format json`; test_startup.py checks the same
# bytes from a fresh interpreter.
CHECK_ALL_JSON_SHA256 = (
    "0381536a92e297cea7f6c4b88a98ff1f12cf64f3edcd4c4054f3939e4bad0224")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for expected in ("sum.triangular", "binom.absorption_printed",
                         "partition.duality", "divisor.identity", "geom.ceva",
                         "prob.dice", "pick.formula", "riemann.x2"):
            assert expected in out

    def test_topic_tags_present(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        for tag in ("algebra", "sums", "divisors", "binomials", "partitions",
                    "series", "integration", "euclid", "lattice",
                    "probability"):
            assert tag in out


class TestCheck:
    def test_defaults_are_suite_params(self):
        args = build_parser().parse_args(["check", "all"])
        defaults = dataclasses.asdict(SuiteParams())
        assert {name: getattr(args, name) for name in defaults} == defaults

    def test_triangular_hundred_rows(self, capsys):
        code, out, _ = run_cli(capsys, "check", "sum.triangular",
                               "--max-n", "100")
        assert code == 0
        rows = [line for line in out.splitlines() if "PASS" in line]
        assert len(rows) == 100

    def test_absorption_printed_expected_fail(self, capsys):
        code, out, _ = run_cli(capsys, "check", "binom.absorption_printed")
        assert code == 0
        assert "EXPECTED-FAIL" in out
        assert "3 1" in out

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "sum.nonexistent")
        assert code == 2
        assert "unknown suite" in err

    def test_repeated_suite_exits_2_before_any_runner(self, capsys,
                                                      monkeypatch):
        ran = []
        for suite_id in ("sum.triangular", "sum.cubes"):
            suite = SUITES[suite_id]
            monkeypatch.setitem(SUITES, suite_id, dataclasses.replace(
                suite, runner=lambda p, s=suite_id: ran.append(s) or []))
        code, out, err = run_cli(capsys, "check", "sum.cubes",
                                 "sum.triangular", "sum.cubes",
                                 "sum.triangular", "sum.cubes", "--max-n", "2",
                                 "--format", "csv")
        assert code == 2
        assert out == "" and ran == []
        assert "more than once: sum.cubes, sum.triangular\n" in err

    def test_json_rows_validate_against_schema(self, capsys):
        code, out, _ = run_cli(capsys, "check", "sum.cubes", "--max-n", "7",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 7
        for row in rows:
            jsonschema.validate(row, ROW_SCHEMA)

    def test_rationals_rendered_as_fraction_strings(self, capsys):
        _, out, _ = run_cli(capsys, "check", "alg.mixture", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["case"] == "x=90/13"
        assert all("." not in row["lhs"] for row in rows)

    def test_multiple_suites(self, capsys):
        code, out, _ = run_cli(capsys, "check", "sum.even", "sum.squares",
                               "--max-n", "5")
        assert code == 0
        assert out.count("sum.even") == 5
        assert out.count("sum.squares") == 5

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "check", "geom.ceva", "--trials", "10")
        second = run_cli(capsys, "check", "geom.ceva", "--trials", "10")
        assert first == second

    def test_check_all_output_pinned(self, capsys, tmp_path):
        # The whole default run, byte for byte: a faster or smaller
        # implementation must leave every row exactly as it was.
        target = tmp_path / "all.json"
        code, _, _ = run_cli(capsys, "check", "all", "--format", "json",
                             "--output", str(target))
        assert code == 0
        rows = json.loads(target.read_text())
        assert len(rows) == 28323
        assert sum(r["status"] == "EXPECTED-FAIL" for r in rows) == 3
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            CHECK_ALL_JSON_SHA256)

    @pytest.mark.parametrize("fmt, digest", [
        ("table",
         "769acebd340b09dcdac314eb148afc5b767ef8547f3f20d2569533ceeee16d11"),
        ("csv",
         "21be56f2d025d3cdeec111c0eb05d349d24692d89816b7b9d1d53760ea17a377"),
    ], ids=["table", "csv"])
    def test_check_all_text_formats_pinned(self, fmt, digest, capsys,
                                           tmp_path):
        target = tmp_path / f"all.{fmt}"
        code, _, _ = run_cli(capsys, "check", "all", "--format", fmt,
                             "--output", str(target))
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_suites_that_check_nothing_exit_2(self, capsys):
        for argv, empty in (
                (["pick.formula", "--trials", "0"], "pick.formula"),
                (["power.sqrt2", "--digits", "-1"], "power.sqrt2"),
                (["pi.doubling", "--digits", "-7"], "pi.doubling"),
                (["prob.dice", "--trials", "0"], "prob.dice"),
                (["sum.even", "geom.ceva", "--trials", "0"], "geom.ceva")):
            code, out, err = run_cli(capsys, "check", *argv)
            assert code == 2
            assert out == ""
            assert empty in err and "sum.even" not in err

    def test_zero_max_n_names_each_empty_suite(self, capsys):
        code, out, err = run_cli(capsys, "check", "sum.even",
                                 "divisor.identity", "binom.colorings",
                                 "--max-n", "0")
        assert code == 2
        assert out == ""
        named = err.strip().split(": ", 1)[1].split(", ")
        assert named == ["sum.even", "divisor.identity", "binom.colorings"]

    def test_pythagoras_area_count_alone_failing_is_a_fail_row(
            self, capsys, monkeypatch):
        # The identity holds; only the sample's two area counts disagree.
        monkeypatch.setattr(polyform, "_PYTHAGORAS_SAMPLE",
                            (Fraction(3), Fraction(4), Fraction(6)))
        code, out, err = run_cli(capsys, "check", "alg.pythagoras_trapezoid")
        assert code == 1
        assert err == ""
        row = out.splitlines()[1].split()
        assert row[0] == "alg.pythagoras_trapezoid"
        assert row[-4:] == ["FAIL", "3", "4", "6"]

    def test_failing_ceva_witness_is_the_point_alone(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(euclid_checks, "ceva_product",
                            lambda *_: Fraction(2))
        code, out, err = run_cli(capsys, "check", "geom.ceva", "--trials",
                                 "1", "--format", "json")
        assert (code, err) == (1, "")
        [row] = json.loads(out)
        jsonschema.validate(row, ROW_SCHEMA)
        assert row["status"] == "FAIL"
        assert len(row["params"]) == 4
        assert row["witness"] == row["params"][3:]
        assert row["case"] == f"p={row['witness'][0]}"

    def test_wrong_conjugate_gives_duality_fail_rows(self, capsys,
                                                     monkeypatch):
        # (5, 3) is filed at k = 5 and sent to (2, 2, 1, 1, 1, 1), a
        # partition of 8 but not its conjugate (2, 2, 2, 1, 1); the wrong
        # member repeats the conjugate of (6, 2) only from k = 6.
        conjugate = combinatorics._conjugate
        monkeypatch.setattr(
            combinatorics, "_conjugate",
            lambda parts: (2, 2, 1, 1, 1, 1) if parts == (5, 3)
            else conjugate(parts))
        code, out, err = run_cli(capsys, "check", "partition.duality",
                                 "--max-n", "8", "--format", "json")
        assert (code, err) == (1, "")
        failed = [(row["case"], row["witness"], row["detail"])
                  for row in json.loads(out) if row["status"] != "PASS"]
        assert failed == [(f"n=8,k={k}", ["8", str(k)],
                           {"bijection": "false"}) for k in range(5, 9)]

    def test_failing_identity_witness_is_the_search_point(self, capsys,
                                                          monkeypatch):
        builtins = polyform.builtin_identities

        def broken():
            table = builtins()
            a, b, c = polyform.Var("a"), polyform.Var("b"), polyform.Var("c")
            table["distr"] = ((b + c) * a, b * a + c * a + a, ("a", "b", "c"))
            return table
        monkeypatch.setattr(polyform, "builtin_identities", broken)
        code, out, err = run_cli(capsys, "check", "alg.distr",
                                 "--format", "json")
        assert (code, err) == (1, "")
        [row] = json.loads(out)
        jsonschema.validate(row, ROW_SCHEMA)
        assert row["status"] == "FAIL"
        assert row["params"] == ["a", "b", "c"]
        # the first point of the search at which a != 0
        assert row["witness"] == ["1", "0", "0"]

    @pytest.mark.parametrize("params", [SuiteParams(),
                                        SuiteParams(max_n=6, trials=4)],
                             ids=["defaults", "tiny"])
    def test_every_row_names_its_suite(self, params):
        for suite_id, suite in SUITES.items():
            assert all(row["suite"] == suite_id
                       for row in suite.runner(params)), suite_id

    def test_check_all_with_no_trials_names_each_empty_suite(self, capsys):
        code, out, err = run_cli(capsys, "check", "all", "--trials", "0",
                                 "--max-n", "6")
        assert code == 2
        assert out == ""
        named = err.strip().split(": ", 1)[1].split(", ")
        assert named == ["geom.cauchy_schwarz", "geom.ceva",
                         "geom.ceva_converse", "pick.formula", "prob.dice"]


# The check_scaled benchmark workload's suites.
SCALED_SUITES = sorted(
    s for s in SUITES
    if s.startswith(("sum.", "divisor.", "riemann.", "series.", "geom.",
                     "alg.")) or s == "fib.betweenness")

# sha256 of the --format json output of each command, byte for byte.
PINNED_OUTPUTS = [
    (["list"],
     "805f790f5d3cce2fc407f4b15ac9db846870fb17435703fc232abfbd8117ce10"),
    (["divisors", "--n", "1000"],
     "968e501cf58ee6657a79e2c2d891413f18889186732f153cda10f04072dfa45c"),
    (["pick", "--seeds", "20"],
     "8a8b842809caa0f512ab918f589e42779a703ffa84aafaf6329288c329910d21"),
    (["prob", "dice", "--trials", "100000"],
     "2056df8b25f0a37fef0c2144cfb2535df985879cb1c552de793978a11d67691b"),
    (["prob", "coin", "--n", "2", "--trials", "10000"],
     "f566ec81157a81501c299ba0ee40fe3758e9f2890f3a0f5c0e22857d98446627"),
    (["converge", "pi", "--doublings", "8"],
     "583940bb3e95bbc23fe47c508be2cc964dc1feb5df2a9a5213929efbb04e406a"),
    # Both digests were recorded before the two ladders were rebuilt on
    # `swineshead_bracket` and the `geometric_series_sum` bracket.
    (["converge", "swineshead", "--doublings", "64"],
     "cf94241f9030fd0d013dbe4c15f51cdb40323d3656824f83ac7eca931974c966"),
    (["converge", "chocolate", "--doublings", "40"],
     "e978e70b03c9198be5f4c594648e97ca84a86c52894fd3ffd194415afa1e5f1f"),
    (["check", *SCALED_SUITES, "--max-n", "300", "--trials", "100"],
     "e6853d259a12703dc946d33149b66576d2bde425dc759af972d574902814de56"),
    (["jordan", "--region", "disk:1", "--tol", "1/20"],
     "3b71a6d78cffae686312fe921bc2bc78b8de4cb70ee673c3c632b8223ce18708"),
    (["jordan", "--region", "poly:0,0;3,1;2,3;-1,2", "--tol", "1/50"],
     "8da6a688a7d347b6867552143267bca058715868cfc2dd3916f8618ba45b5212"),
]


def _pin_id(argv: list[str]) -> str:
    """The command, or the game or ladder for `prob` and `converge` runs
    other than pi's."""
    if argv[0] == "prob" or argv[0] == "converge" and argv[1] != "pi":
        return argv[1]
    return argv[0]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS,
                         ids=[_pin_id(argv) for argv, _ in PINNED_OUTPUTS])
def test_output_pinned(argv, digest, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, *argv, "--format", "json",
                         "--output", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# 10^6-trial simulations: README's dice run and a coin run, sixteen
# Monte Carlo blocks each.
PINNED_MILLION_TRIALS = [
    (["prob", "dice", "--trials", "1000000", "--seed", "42", "--terms", "40"],
     "7f2a16cdfb3424b60745c3e97285ef4c6712263d8c45c4784b1995d19cf7dace"),
    (["prob", "coin", "--n", "2", "--trials", "1000000"],
     "63e7f8642cd98060bc29ab53fbb48213f501303fe7293a75104c881792cd853f"),
]


@pytest.mark.parametrize("argv, digest", PINNED_MILLION_TRIALS,
                         ids=["dice", "coin"])
def test_million_trials_pinned(argv, digest, capsys, tmp_path):
    test_output_pinned(argv, digest, capsys, tmp_path)


# The Euclid suites at 1000 trials, and the cube-layer stack, the harmonic
# bounds and the Fibonacci squares at n = 3000: the sizes of the
# check_scaled benchmark workload.
PINNED_SCALED = [
    (["check", "geom.ceva", "geom.ceva_converse", "geom.squares_fit",
      "--trials", "1000"],
     "8179eed684d257cbec91921159f1f4107129357a91578f68ac76136603944483"),
    (["check", "sum.cube_layers", "--max-n", "3000"],
     "c75b89420f483fd77171c3317e7bc76ed54570071ad0ed781ad81816eba06807"),
    (["check", "divisor.bounds", "sum.fib_squares", "--max-n", "3000"],
     "63781c9403f3d7337f68efd81354c60b24191a89eb78ae4ce594d3000a297993"),
    (["check", "pick.formula", "--trials", "1000"],
     "73c47f03d43339755ddeb972de493b7bc43c515d2c8220c26f650108e6a8063e"),
]


@pytest.mark.parametrize("argv, digest", PINNED_SCALED,
                         ids=["geom", "cube_layers", "bounds_fib_squares",
                              "pick"])
def test_scaled_suites_pinned(argv, digest, capsys, tmp_path):
    test_output_pinned(argv, digest, capsys, tmp_path)


class TestConverge:
    def test_pi_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "pi", "--doublings", "12",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("step,lo,hi,width")
        assert len(lines) == 14  # header + 13 rows
        widths = [Fraction(line.split(",")[3]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_tol_mode(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "sqrt2", "--tol", "1/50",
                               "--format", "csv")
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert Fraction(last.split(",")[3]) <= Fraction(1, 50)

    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(capsys, "converge", "nope")
        assert code == 2
        assert "unknown generator" in err

    def test_negative_doublings_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "converge", "pi", "--doublings", "-1")
        assert code == 2
        assert out == ""
        assert "--doublings" in err

    @pytest.mark.parametrize("doublings, code, lines", [
        (["--doublings", "8"], 0, 10), ([], 0, 10),
        (["--doublings", "9"], 2, 0), (["--doublings", "12"], 2, 0)])
    def test_power_ladder_caps_doublings(self, capsys, doublings, code,
                                         lines):
        # the power ladder has 9 brackets: N + 1 rows need N <= 8, which
        # is also its default
        code_, out, err = run_cli(capsys, "converge", "power", *doublings,
                                  "--format", "csv")
        assert code_ == code
        assert len(out.splitlines()) == lines  # header + N + 1 rows
        if code == 2:
            assert err.strip().splitlines() == [
                "--doublings is at most 8 on the power ladder"]

    @pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol=-1/10"]])
    def test_tolerance_not_positive_exit_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "converge", "pi", *tol)
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err

    def test_tol_not_reached_within_max_steps_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "converge", "sqrt2", "--tol",
                                 "1/1000000000000", "--doublings", "4",
                                 "--format", "csv")
        assert code == 1
        assert len(out.strip().splitlines()) == 6  # header + 5 rows
        assert len(err.strip().splitlines()) == 1
        assert "1/1000000000000" in err

    def test_tol_not_reached_when_ladder_ends_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "converge", "power", "--tol",
                                 "1/10000000000000000000", "--format", "csv")
        assert code == 1
        assert len(out.strip().splitlines()) == 10  # header + 9 digit rows
        assert len(err.strip().splitlines()) == 1
        assert "1/10000000000000000000" in err

    def test_tol_gives_up_after_200_brackets_by_default(self, capsys):
        code, out, err = run_cli(capsys, "converge", "sqrt2", "--tol",
                                 "1e-1000", "--format", "csv")
        assert code == 1
        assert len(out.splitlines()) == 201  # header + 199 + 1 rows
        assert "within 200 steps" in err

    def test_cap_accepts_its_boundary(self, capsys):
        code, out, err = run_cli(capsys, "converge", "sqrt2", "--doublings",
                                 str(ab.CONVERGE_MAX_STEPS - 1),
                                 "--format", "csv")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == ab.CONVERGE_MAX_STEPS + 1  # + header
        code, out, err = run_cli(capsys, "converge", "sqrt2", "--tol",
                                 "1/100", "--doublings",
                                 str(ab.CONVERGE_MAX_STEPS - 1))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv, message", [
        (["--doublings", "2000"],
         "--doublings is at most 1999 on the sqrt2 ladder"),
        (["--tol", "1/100", "--doublings", "2000"],
         "--doublings is at most 1999 on the sqrt2 ladder")])
    def test_cap_refused_before_any_ladder(self, capsys, monkeypatch, argv,
                                           message):
        def fail(*_):
            raise AssertionError("a ladder was built before the cap")
        monkeypatch.setattr(ab, "named_generator", fail)
        code, out, err = run_cli(capsys, "converge", "sqrt2", *argv)
        assert (code, out) == (2, "")
        assert err.strip().splitlines() == [message]


class TestDedicatedCommands:
    @pytest.mark.parametrize("argv", [
        ["divisors", "--n", "10001"],
        ["check", "divisor.bounds", "--max-n", "10001"],
        ["check", "all", "--max-n", "20000"],
    ], ids=["divisors", "bounds", "all"])
    def test_harmonic_cap_refused_before_any_work(self, argv, capsys,
                                                  monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("sieve or harmonic numbers started")
        for name in ("divisor_counts", "harmonic_numbers", "harmonic_number"):
            monkeypatch.setattr(dv, name, no_work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert str(dv.HARMONIC_MAX_N) in err

    def test_divisors(self, capsys):
        code, out, _ = run_cli(capsys, "divisors", "--n", "6",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["divisor_sum"] == "14"
        assert payload["floor_sum"] == "14"
        assert payload["harmonic"] == "49/20"
        assert payload["status"] == "PASS"

    def test_jordan_disk(self, capsys):
        code, out, _ = run_cli(capsys, "jordan", "--region", "disk:1",
                               "--tol", "1/2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("n,inner,outer,width")

    def test_jordan_bad_region(self, capsys):
        code, _, err = run_cli(capsys, "jordan", "--region", "blob:1")
        assert code == 2

    def test_jordan_zero_max_n_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "jordan", "--region", "disk:1",
                                 "--max-n", "0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "max_n" in err

    @pytest.mark.parametrize("argv, made", [
        (["jordan", "--region", "disk:1", "--tol", "1/1000000", "--max-n",
          "8"],
         ["n,inner,outer,width,inner_dec,outer_dec",
          "1,0,4,4,0.000000000000,4.000000000000",
          "2,1,4,3,1.000000000000,4.000000000000",
          "4,2,15/4,7/4,2.000000000000,3.750000000000",
          "8,41/16,7/2,15/16,2.562500000000,3.500000000000"]),
        (["converge", "sqrt2", "--tol", "1/1000000000000", "--doublings",
          "3"],
         ["step,lo,hi,width,lo_dec,hi_dec,width_dec",
          "0,1,2,1,1.000000000000000,2.000000000000000,1.000000000000000",
          "1,1,3/2,1/2,1.000000000000000,1.500000000000000,"
          "0.500000000000000",
          "2,5/4,3/2,1/4,1.250000000000000,1.500000000000000,"
          "0.250000000000000",
          "3,11/8,3/2,1/8,1.375000000000000,1.500000000000000,"
          "0.125000000000000"]),
    ], ids=["jordan", "converge"])
    def test_missed_tol_prints_rows_made_exits_1(self, capsys, argv, made):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out.splitlines() == made  # the header and the four rows
        assert len(err.strip().splitlines()) == 1
        assert "within 4 steps" in err

    def test_jordan_repeated_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "jordan", "--region",
                               "poly:0,0;0,0;1,0;0,1", "--tol", "1/4")
        assert code == 0
        assert out == run_cli(capsys, "jordan", "--region",
                              "poly:0,0;1,0;0,1", "--tol", "1/4")[1]
        assert out.splitlines()[-1].split()[:3] == ["32", "203/512",
                                                     "559/1024"]

    def test_jordan_malformed_numbers_exit_2(self, capsys):
        for spec in ("disk:abc", "poly:0,0;1"):
            code, _, err = run_cli(capsys, "jordan", "--region", spec)
            assert code == 2
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1

    def test_divisors_past_int_digit_limit(self, capsys):
        # H_10000 has more digits than str() renders by default.
        code, out, _ = run_cli(capsys, "divisors", "--n", "10000",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["status"] == "PASS"
        assert len(payload["harmonic"]) > 4300
        assert payload["harmonic_dec"] == "9.787606036044"

    def test_pick(self, capsys):
        code, out, _ = run_cli(capsys, "pick", "--seeds", "3", "--extent", "8",
                               "--seed", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(r["status"] == "PASS" for r in rows)

    def test_prob_dice(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "dice", "--trials", "5000",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["exact"] == "6/11"
        assert payload["status"] in ("PASS", "WARN")

    def test_prob_without_trials_exits_2(self, capsys):
        for game in ("dice", "coin"):
            code, out, err = run_cli(capsys, "prob", game, "--trials", "0")
            assert code == 2
            assert out == ""
            assert "--trials" in err

    def test_prob_negative_terms_exits_2(self, capsys):
        for argv in (["dice"], ["coin", "--n", "2"]):
            code, out, err = run_cli(capsys, "prob", *argv, "--terms", "-5")
            assert code == 2
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert "--terms" in err

    def test_prob_coin_terms_below_n_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "prob", "coin", "--n", "10",
                                 "--terms", "3", "--format", "json")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--terms must be at least --n = 10" in err
        code, out, _ = run_cli(capsys, "prob", "coin", "--n", "10",
                               "--terms", "10", "--trials", "100")
        assert code == 0

    def test_pick_box_too_small_exits_2(self, capsys):
        # 3x3 lattice points cannot hold the up-to-12 vertices drawn
        code, out, err = run_cli(capsys, "pick", "--extent", "1")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "9 lattice points" in err

    def test_pick_without_seeds_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "pick", "--seeds", "0")
        assert code == 2
        assert out == ""
        assert "--seeds" in err

    def test_prob_dice_and_check_share_one_report(self, capsys):
        report, _ = prob.dice_game(trials=500, terms=12, seed=7)
        params = SuiteParams(trials=500, terms=12, seed=7)
        [row] = SUITES["prob.dice"].runner(params)
        assert report_rows("prob.dice", [report], "dice", False) == [row]
        code, out, _ = run_cli(capsys, "prob", "dice", "--trials", "500",
                               "--terms", "12", "--seed", "7",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)[0]["status"] == row["status"]

    def test_prob_coin(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "coin", "--n", "2",
                               "--trials", "5000", "--format", "json")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["exact"] == "4/9"


# Every usage error README names: exit 2, nothing on stdout, and one
# message as it was raised, without a traceback or a prefix.
USAGE_ERRORS = [
    ["check", "sum.nonexistent"],
    ["check", "pick.formula", "--trials", "0"],
    ["check", "prob.dice", "--trials", "0"],
    ["converge", "nope"],
    ["converge", "pi", "--doublings", "-1"],
    ["converge", "power", "--doublings", "9"],
    ["converge", "pi", "--tol", "0"],
    ["converge", "pi", "--doublings", "2000"],
    ["converge", "sqrt2", "--tol", "1/100", "--doublings", "-1"],
    ["converge", "sqrt2", "--tol", "1/100", "--doublings", "2000"],
    ["divisors", "--n", "0"],
    ["divisors", "--n", "1000000000000"],
    ["divisors", "--n", "10001"],
    ["check", "divisor.identity", "--max-n", "1000000000000"],
    ["check", "divisor.bounds", "--max-n", "10001"],
    ["jordan", "--region", "blob:1"],
    ["jordan", "--region", "disk:1", "--max-n", "0"],
    ["jordan", "--region", "disk:1", "--tol", "0"],
    ["jordan", "--region", "disk:1000000", "--max-n", "4"],
    ["pick", "--seeds", "0"],
    ["pick", "--extent", "0"],
    ["pick", "--extent", "1"],
    ["pick", "--extent", "500"],
    ["pick", "--seeds", "1", "--extent", "100000"],
    ["pick", "--seeds", "10001"],
    ["prob", "dice", "--trials", "0"],
    ["prob", "dice", "--terms", "-1"],
    ["check", "prob.dice", "--terms", "-1"],
    ["prob", "coin", "--n", "10", "--terms", "3"],
    ["prob", "coin", "--n", "0"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_message_exits_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip()
    assert "Traceback" not in err
    assert not err.startswith("domain error")
    for flag in ("--terms", "--extent"):
        if flag in argv:
            assert flag in err
    if argv[-2] in ("--n", "--seeds"):  # a row's last flag is the one refused
        assert argv[-2] in err


# (suite, flag, the cap's name in the refusal, the largest accepted value)
SWEEP_CAPS = (
    [(s, "--max-n", "SUM_MAX_N", sums_fib.SUM_MAX_N)
     for s in sorted(SUITES) if s.startswith("sum.")]
    + [(s, "--trials", "SWEEP_MAX_TRIALS", SWEEP_MAX_TRIALS)
       for s in ("geom.ceva", "geom.ceva_converse", "geom.cauchy_schwarz",
                 "geom.squares_fit", "pick.formula")]
    + [("prob.dice", "--terms", "SERIES_MAX_TERMS", prob.SERIES_MAX_TERMS),
       ("prob.dice", "--trials", "MC_MAX_TRIALS", prob.MC_MAX_TRIALS),
       ("divisor.identity", "--max-n", "SIEVE_MAX_N", dv.SIEVE_MAX_N),
       ("divisor.bounds", "--max-n", "HARMONIC_MAX_N", dv.HARMONIC_MAX_N)])


def test_sweep_caps_are_the_declared_caps():
    # A cap declared on a suite without a row here has no refusal test.
    declared = {(s.suite_id, "--" + name.replace("_", "-"))
                for s in SUITES.values() for name in s.caps}
    assert {(suite, flag) for suite, flag, _, _ in SWEEP_CAPS} == declared


def _cap_ids(caps) -> list[str]:
    """Each cap's suite id, followed by its flag after the suite's first."""
    seen, ids = set(), []
    for suite, flag, _, _ in caps:
        ids.append(suite + flag if suite in seen else suite)
        seen.add(suite)
    return ids


def _stub_runners(monkeypatch) -> list[str]:
    """Replace every runner by one that records its call and passes."""
    called = []

    def runner(params, suite_id):
        called.append(suite_id)
        return [{"suite": suite_id, "case": "", "params": [], "lhs": "1",
                 "rhs": "1", "status": "PASS", "witness": None}]
    for suite_id, suite in SUITES.items():
        monkeypatch.setitem(SUITES, suite_id, dataclasses.replace(
            suite, runner=lambda params, i=suite_id: runner(params, i)))
    return called


class TestCapsBeforeWork:
    """A size cap exits 2 before any sampling, scan, sieve or suite runs."""

    @pytest.mark.parametrize("suite, flag, name, cap", SWEEP_CAPS,
                             ids=_cap_ids(SWEEP_CAPS))
    def test_sweep_cap_refused_before_any_runner(self, suite, flag, name, cap,
                                                 capsys, monkeypatch):
        called = _stub_runners(monkeypatch)
        code, out, err = run_cli(capsys, "check", "alg.mixture", suite, flag,
                                 str(cap + 1))
        assert (code, out, called) == (2, "", [])
        assert f"{name} = {cap}" in err

    @pytest.mark.parametrize("suite, flag, name, cap", SWEEP_CAPS,
                             ids=_cap_ids(SWEEP_CAPS))
    def test_sweep_cap_accepts_its_boundary(self, suite, flag, name, cap,
                                            capsys, monkeypatch):
        called = _stub_runners(monkeypatch)
        code, _, err = run_cli(capsys, "check", suite, flag, str(cap))
        assert (code, err, called) == (0, "", [suite])

    @pytest.mark.parametrize("game", ["dice", "coin"])
    def test_prob_refuses_terms_before_any_term(self, game, capsys,
                                                monkeypatch):
        def fail(*_):
            raise AssertionError("series or simulation work started")
        for name in ("geometric_series_sum", "coin_game_series_partial",
                     "monte_carlo_dice", "monte_carlo_coin"):
            monkeypatch.setattr(prob, name, fail)
        code, out, err = run_cli(capsys, "prob", game, "--terms",
                                 str(prob.SERIES_MAX_TERMS + 1))
        assert (code, out) == (2, "")
        assert f"SERIES_MAX_TERMS = {prob.SERIES_MAX_TERMS}" in err

    def test_check_refuses_negative_terms_before_any_runner(self, capsys,
                                                            monkeypatch):
        called = _stub_runners(monkeypatch)
        code, out, err = run_cli(capsys, "check", "alg.mixture", "prob.dice",
                                 "--terms", "-1")
        assert (code, out, called) == (2, "", [])
        assert "--terms" in err

    @pytest.mark.parametrize("game", ["dice", "coin"])
    def test_prob_refuses_trials_before_any_draw(self, game, capsys,
                                                 monkeypatch):
        def fail(*_):
            raise AssertionError("a simulation started before the cap")
        for name in ("monte_carlo_dice", "monte_carlo_coin"):
            monkeypatch.setattr(prob, name, fail)
        code, out, err = run_cli(capsys, "prob", game, "--trials",
                                 str(prob.MC_MAX_TRIALS + 1))
        assert (code, out) == (2, "")
        assert f"MC_MAX_TRIALS = {prob.MC_MAX_TRIALS}" in err

    def test_prob_accepts_terms_at_the_cap(self, capsys):
        code, out, err = run_cli(capsys, "prob", "dice", "--trials", "100",
                                 "--terms", str(prob.SERIES_MAX_TERMS),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["exact"] == "6/11"

    def test_prob_coin_accepts_terms_at_the_cap(self, capsys):
        code, out, err = run_cli(capsys, "prob", "coin", "--trials", "100",
                                 "--terms", str(prob.SERIES_MAX_TERMS),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)[0]["exact"] == "2/3"

    @pytest.mark.parametrize("argv", [
        ["check", "all", "--max-n", "20000"],
        ["check", "alg.mixture", "divisor.identity", "--max-n", "2000000"],
    ])
    def test_check_refuses_before_any_runner(self, argv, capsys,
                                             monkeypatch):
        called = []
        for suite_id, suite in SUITES.items():
            monkeypatch.setitem(SUITES, suite_id, dataclasses.replace(
                suite, runner=lambda params, i=suite_id: called.append(i)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, called) == (2, "", [])
        assert "capped" in err

    def test_pick_refuses_before_sampling(self, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("lattice work started before the cap")
        for name in ("SplitMix64", "interior_count", "pick_check",
                     "empty_triangulation"):
            monkeypatch.setattr(lattice_pick, name, fail)
        code, out, err = run_cli(capsys, "pick", "--seeds", "1",
                                 "--extent", "100000")
        assert (code, out) == (2, "")
        assert "LATTICE_MAX_POINTS = 1000000" in err

    def test_pick_refuses_seeds_before_sampling(self, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("a polygon was drawn before the cap")
        monkeypatch.setattr(lattice_pick, "random_lattice_polygon", fail)
        code, out, err = run_cli(capsys, "pick", "--seeds",
                                 str(SWEEP_MAX_TRIALS + 1))
        assert (code, out) == (2, "")
        assert f"SWEEP_MAX_TRIALS = {SWEEP_MAX_TRIALS}" in err
        assert "--seeds" in err

    @pytest.mark.parametrize("extent, message", [
        ("0", "--extent must be at least 1"),
        ("1", "cannot place 12 distinct vertices among the 9 lattice points "
              "of the box [-1, 1]^2 of --extent = 1"),
        ("500", "the box [-500, 500]^2 of --extent = 500 capped at "
                "LATTICE_MAX_POINTS = 1000000, not 1002001"),
    ])
    def test_pick_refuses_extent_before_sampling(self, extent, message,
                                                 capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("a polygon was drawn before the check")
        monkeypatch.setattr(lattice_pick, "SplitMix64", fail)
        code, out, err = run_cli(capsys, "pick", "--extent", extent)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_prob_coin_refuses_n_before_any_draw(self, n, capsys,
                                                 monkeypatch):
        def fail(*_):
            raise AssertionError("coin game work started before the check")
        for name in ("coin_game_exact", "coin_game_series_partial",
                     "monte_carlo_coin"):
            monkeypatch.setattr(prob, name, fail)
        code, out, err = run_cli(capsys, "prob", "coin", "--n", n)
        assert (code, out) == (2, "")
        assert "--n must be a positive integer" in err

    def test_jordan_refuses_before_any_row(self, capsys, monkeypatch):
        def fail(*_):
            raise AssertionError("a Jordan row was classified before the cap")
        for name in ("_disk_counts", "_poly_counts"):
            monkeypatch.setattr(jordan_measure, name, fail)
        code, out, err = run_cli(capsys, "jordan", "--region", "disk:1000000",
                                 "--max-n", "4")
        assert (code, out) == (2, "")
        assert "JORDAN_MAX_ROWS = 1000000" in err


class TestOutputPlumbing:
    def test_format_environment_variable_is_ignored(self, capsys,
                                                    monkeypatch):
        argvs = (["--format", "csv"], [])
        expected = [run_cli(capsys, "check", "sum.even", "--max-n", "3", *a)
                    for a in argvs]
        monkeypatch.setenv("TWOSIDE_FORMAT", "json")
        assert [run_cli(capsys, "check", "sum.even", "--max-n", "3", *a)
                for a in argvs] == expected
        assert expected[0][1].startswith("suite,case,")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run_cli(capsys, "check", "sum.even", "--max-n", "3",
                               "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())) == 3

    def test_unwritable_output_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "check", "sum.even", "--max-n", "3",
                               "--output", "/nonexistent/dir/rows.txt")
        assert code == 3
        assert "i/o error" in err


# --- the JSON writer ---------------------------------------------------------

def _stdlib_json(rows) -> str:
    return json.dumps(rows, indent=2) + "\n"


_JSON_CHARS = st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\xe9\u20ac\U0001f600')
_JSON_TEXT = st.text(st.one_of(st.characters(), _JSON_CHARS), max_size=6)
# Every value a command puts in a row.
_JSON_VALUES = st.one_of(
    st.none(), st.integers(), _JSON_TEXT, st.lists(_JSON_TEXT, max_size=3),
    st.dictionaries(_JSON_TEXT, _JSON_TEXT, max_size=3))
_JSON_ROWS = st.lists(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5),
                      max_size=4)


class TestJsonRows:
    """The check writer's bytes are exactly the stdlib's indent-2 bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_ROWS)
    def test_matches_stdlib(self, rows):
        assert "".join(_json_rows(rows)) == _stdlib_json(rows)

    @pytest.mark.parametrize("rows", [
        [{"suite": "s", "detail": {}}],
        [{"suite": "s", "params": [], "witness": None}],
        [],
    ], ids=["empty_dict", "empty_list", "no_rows"])
    def test_dict_fields_match_stdlib(self, rows):
        assert "".join(_json_rows(rows)) == _stdlib_json(rows)

    @pytest.mark.parametrize(
        "value", [0.5, True, ["a", ["b"]], ["a", 1], {"k": None}, {1: "a"}],
        ids=["float", "bool", "nested_list", "list_int", "dict_none",
             "dict_int_key"])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError, match="at 'value'$"):
            "".join(_json_rows([{"suite": "s", "value": value}]))

    def test_check_all_never_reaches_the_stdlib_encoder(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        target = tmp_path / "all.json"
        code, _, _ = run_cli(capsys, "check", "all", "--format", "json",
                             "--output", str(target))
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            CHECK_ALL_JSON_SHA256)

    def test_matches_stdlib_on_check_rows(self):
        params = SuiteParams(max_n=6, trials=4)
        rows = [row for suite_id in sorted(SUITES)
                for row in SUITES[suite_id].runner(params)]
        assert {"lhs_enclosure", "detail"} <= {k for r in rows for k in r}
        assert "".join(_json_rows(rows)) == _stdlib_json(rows)


# --- argv fuzzing ------------------------------------------------------------

def _flag(name, values):
    """[name, value] or nothing; the value is a str for argparse."""
    return st.one_of(st.just([]),
                     values.map(lambda v: [name, str(v)]))


def _sized(name, values):
    """[name, value]: a size flag is always given, since its default is
    large."""
    return values.map(lambda v: [name, str(v)])


_SEEDS = st.integers(-5, 2 ** 70)
_FORMATS = st.sampled_from(["table", "json", "csv", "xml"])
_RATIONALS = st.sampled_from(["1/10", "1/1000", "1/10^6", "1", "2", "0",
                              "-1/3", "1/0", "1e-3", "abc", "0.5", ""])
_REGIONS = st.sampled_from([
    "disk:1", "disk:2/3", "disk:1,-1,3/2", "disk:0", "disk:-1", "disk:a",
    "disk:1,2", "poly:0,0;3,1;2,3;-1,2", "poly:0,0;1,0;0,1",
    "poly:0,0;0,0;1,0;0,1", "poly:0,0;1,1;2,2", "poly:0,0;1,1",
    "poly:", "bogus", ""])


def _argv(command, positional, *flags):
    return st.tuples(st.just([command]), positional, *flags).map(
        lambda parts: [token for part in parts for token in part])


_CHECK_IDS = st.lists(st.sampled_from(sorted(SUITES) + ["all", "no.such"]),
                      min_size=1, max_size=3)

ARGVS = st.one_of(
    _argv("check", _CHECK_IDS,
          _sized("--max-n", st.integers(-2, 20)),
          _sized("--trials", st.integers(-2, 20)),
          _flag("--terms", st.integers(-2, 40)),
          _flag("--digits", st.integers(-2, 6)),
          _flag("--seed", _SEEDS), _flag("--format", _FORMATS)),
    _argv("list", st.just([]), _flag("--format", _FORMATS)),
    _argv("converge",
          st.sampled_from(["sqrt2", "pi", "power", "nthroot", "bogus"])
          .map(lambda g: [g]),
          _flag("--tol", _RATIONALS),
          _flag("--doublings", st.integers(-2, 8)),
          _flag("--format", _FORMATS)),
    _argv("divisors", st.integers(-3, 3000).map(lambda n: ["--n", str(n)]),
          _flag("--format", _FORMATS)),
    _argv("jordan", _REGIONS.map(lambda r: ["--region", r]),
          _flag("--tol", _RATIONALS), _sized("--max-n", st.integers(-2, 20)),
          _flag("--format", _FORMATS)),
    _argv("pick", st.just([]), _sized("--seeds", st.integers(-1, 3)),
          _flag("--extent", st.integers(-1, 8)), _flag("--seed", _SEEDS),
          _flag("--format", _FORMATS)),
    _argv("prob", st.sampled_from([["dice"], ["coin"], ["craps"]]),
          _flag("--n", st.integers(-2, 12)),
          _flag("--terms", st.integers(-2, 40)),
          _sized("--trials", st.integers(-2, 20)), _flag("--seed", _SEEDS),
          _flag("--format", _FORMATS)),
    st.lists(st.sampled_from(["check", "list", "--max-n", "-1", "x", "--help",
                              "prob", "--format", "json", "--bogus"]),
             max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_argv_fuzz_exits_cleanly(argv):
    """Every small invocation ends with exit 0-3 and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
