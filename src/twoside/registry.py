"""Static table of check suites addressable from the CLI.

Every suite id maps to a runner that yields report rows; adding a new
verified fact means adding one registry entry.  Expected failures (shipped
misprints kept on display) are labeled here so the CLI can count them as
passing when they fail exactly as predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import analysis_brackets as ab
from . import combinatorics as comb
from . import divisors as dv
from . import euclid_checks as euclid
from . import lattice_pick as lattice
from . import polyform
from . import probability_games as prob
from . import sums_fib
from .exact_core import rat_to_str
from .report import EXPECTED_FAIL, FAIL, PASS, IdentityReport, render_value
from .rng import SplitMix64


@dataclass(frozen=True)
class SuiteParams:
    max_n: int = 200
    seed: int = 42
    trials: int = 100
    terms: int = 40
    digits: int = 6
    tol: Fraction = Fraction(1, 100)


@dataclass(frozen=True)
class Suite:
    suite_id: str
    tag: str
    runner: Callable[[SuiteParams], list[dict]]
    expected_fail: bool = False


def _rows(reports: Iterable[IdentityReport], expected_fail: bool = False,
          case: Callable[[IdentityReport], str] | None = None) -> list[dict]:
    out = []
    for r in reports:
        label = case(r) if case else None
        out.append(r.row(case=label, expected_fail=expected_fail))
    return out


# --- algebra ---------------------------------------------------------------------

def _alg_runner(name: str):
    def run(_: SuiteParams) -> list[dict]:
        lhs, rhs, vs = polyform.builtin_identities()[name]
        return _rows([polyform.identity_check(lhs, rhs, vs, suite=name)])
    return run


def _pythagoras_runner(_: SuiteParams) -> list[dict]:
    return _rows([polyform.pythagoras_rearrangement_check()])


def _pythagoras_printed_runner(_: SuiteParams) -> list[dict]:
    return _rows([polyform.pythagoras_printed_check()], expected_fail=True)


def _incircle_runner(params: SuiteParams) -> list[dict]:
    reports = [polyform.incircle_tangent_symbolic()]
    rng = SplitMix64(params.seed)
    cases = [(Fraction(3), Fraction(4), Fraction(5), Fraction(2)),
             (Fraction(5), Fraction(5), Fraction(6), Fraction(3))]
    while len(cases) < max(2, min(params.trials, 50)):
        a = Fraction(rng.below(20) + 2, rng.below(3) + 1)
        b = Fraction(rng.below(20) + 2, rng.below(3) + 1)
        c = Fraction(rng.below(20) + 2, rng.below(3) + 1)
        ce = Fraction(rng.below(9) + 1, rng.below(3) + 1)
        if a + b > c and b + c > a and c + a > b:
            cases.append((a, b, c, ce))
    reports += [polyform.incircle_tangent_check(*case) for case in cases]
    return _rows(reports)


def _mixture_runner(_: SuiteParams) -> list[dict]:
    rows = []
    cases = [
        (Fraction(13, 10), Fraction(8, 10), Fraction(15), Fraction(10)),
        (Fraction(1), Fraction(0), Fraction(5), Fraction(25)),
        (Fraction(1), Fraction(1), Fraction(10), Fraction(20)),
    ]
    for m1, m2, c2, c_mix in cases:
        x = polyform.mixture_concentration(m1, m2, c2, c_mix)
        solute_split = m1 * x + m2 * c2
        solute_mix = (m1 + m2) * c_mix
        report = IdentityReport("alg.mixture", (m1, m2, c2, c_mix),
                                solute_split, solute_mix,
                                solute_split == solute_mix,
                                detail={"x": x})
        rows.append(report.row(case=f"x={rat_to_str(x)}"))
    return rows


# --- sums and Fibonacci ------------------------------------------------------------

def _sum_runner(kind: sums_fib.SumKind):
    def run(params: SuiteParams) -> list[dict]:
        return _rows(sums_fib.sum_identity_sweep(kind, params.max_n),
                     case=lambda r: f"n={r.params[0]}")
    return run


def _betweenness_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 40)
    reports = [sums_fib.fib_betweenness_report(m, n)
               for n in range(2, bound + 1) for m in range(1, n)]
    return _rows(reports, case=lambda r: f"m={r.params[0]},n={r.params[1]}")


# --- divisors ----------------------------------------------------------------------

def _divisor_identity_runner(params: SuiteParams) -> list[dict]:
    table = dv.divisor_counts(params.max_n)
    prefix = table.prefix_sums()
    reports = []
    for n in range(1, params.max_n + 1):
        reports.append(IdentityReport("divisor.identity", (n,), prefix[n],
                                      dv.floor_sum(n),
                                      prefix[n] == dv.floor_sum(n),
                                      None if prefix[n] == dv.floor_sum(n)
                                      else (n,)))
    return _rows(reports, case=lambda r: f"n={r.params[0]}")


def _divisor_bounds_runner(params: SuiteParams) -> list[dict]:
    table = dv.divisor_counts(params.max_n)
    harmonics = dv.harmonic_numbers(params.max_n)
    rows = []
    for n in range(1, params.max_n + 1):
        report = dv.divisor_average_bounds(n, table, harmonics[n])
        rows.append(IdentityReport(
            "divisor.bounds", (n,),
            f"{rat_to_str(report.lower)} < {rat_to_str(report.avg)}",
            f"<= {rat_to_str(report.upper)}",
            report.passed, None if report.passed else (n,),
        ).row(case=f"n={n}"))
    return rows


# --- binomials ----------------------------------------------------------------------

def _binom_single_runner(kind: comb.BinomKind, cap: int):
    def run(params: SuiteParams) -> list[dict]:
        bound = min(params.max_n, cap)
        start = 1 if kind is comb.BinomKind.FIB_DIAGONAL else 0
        reports = [comb.binom_identity_check(kind, n=n)
                   for n in range(start, bound + 1)]
        return _rows(reports, case=lambda r: f"n={r.params[0]}")
    return run


def _binom_nk_runner(kind: comb.BinomKind, cap: int, k_lo=lambda n: 0,
                     k_hi=lambda n: n):
    def run(params: SuiteParams) -> list[dict]:
        bound = min(params.max_n, cap)
        reports = []
        for n in range(1, bound + 1):
            for k in range(k_lo(n), k_hi(n) + 1):
                reports.append(comb.binom_identity_check(kind, n=n, k=k))
        return _rows(reports,
                     case=lambda r: f"n={r.params[0]},k={r.params[1]}")
    return run


def _split_j_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 25)
    reports = []
    for n in range(0, bound + 1):
        for k in range(0, n + 1):
            for j in range(0, k + 1):
                reports.append(comb.binom_identity_check(
                    comb.BinomKind.SPLIT_J, n=n, k=k, j=j))
    return _rows(reports, case=lambda r: "n={},k={},j={}".format(*r.params))


def _committee_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 40)
    reports = []
    for n in range(0, bound + 1):
        for k in range(0, n + 1):
            for l in range(0, k + 1):
                reports.append(comb.binom_identity_check(
                    comb.BinomKind.COMMITTEE_PRODUCT, n=n, k=k, l=l))
    return _rows(reports, case=lambda r: "n={},k={},l={}".format(*r.params))


def _absorption_printed_runner(_: SuiteParams) -> list[dict]:
    report = comb.binom_identity_check(comb.BinomKind.ABSORPTION_PRINTED,
                                       n=3, k=1)
    minimal = comb.absorption_printed_minimal_witness()
    report = IdentityReport(report.suite, report.params, report.lhs,
                            report.rhs, report.passed, report.witness,
                            {"minimal_witness": minimal})
    return _rows([report], expected_fail=True)


def _crosscheck_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 15)
    reports = [comb.binomial_enumeration_crosscheck(n, k)
               for n in range(bound + 1) for k in range(n + 1)]
    return _rows(reports, case=lambda r: f"n={r.params[0]},k={r.params[1]}")


def _colorings_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 30)
    reports = [comb.colorings_report(n) for n in range(1, bound + 1)]
    return _rows(reports, case=lambda r: f"n={r.params[0]}")


def _duality_runner(params: SuiteParams) -> list[dict]:
    bound = min(params.max_n, 25)
    reports = [r for n in range(1, bound + 1)
               for r in comb.partition_duality_reports(n)]
    return _rows(reports, case=lambda r: f"n={r.params[0]},k={r.params[1]}")


# --- series and brackets --------------------------------------------------------------

def _chocolate_runner(params: SuiteParams) -> list[dict]:
    rows = []
    for n in range(0, min(params.max_n, 40) + 1):
        g = ab.geometric_series_sum(1, Fraction(1, 10), n)
        passed = (g.closed == Fraction(10, 9)
                  and g.tail_bracket.contains(g.closed))
        rows.append(IdentityReport("series.chocolate", (n,), g.tail_bracket,
                                   g.closed, passed,
                                   None if passed else (n,)).row(case=f"N={n}"))
    return rows


def _cake_runner(params: SuiteParams) -> list[dict]:
    rows = []
    for n in range(0, min(params.max_n, 40) + 1):
        g = ab.geometric_series_sum(Fraction(1, 2), Fraction(1, 2), n)
        passed = g.closed == 1 and g.tail_bracket.contains(g.closed)
        rows.append(IdentityReport("series.cake", (n,), g.tail_bracket,
                                   g.closed, passed,
                                   None if passed else (n,)).row(case=f"N={n}"))
    return rows


def _swineshead_runner(params: SuiteParams) -> list[dict]:
    rows = []
    for n in range(0, min(params.max_n, 64) + 1):
        s = ab.swineshead_check(n)
        rows.append(IdentityReport("series.swineshead", (n,), s.partial,
                                   s.closed_partial, s.passed,
                                   None if s.passed else (n,)).row(case=f"N={n}"))
    return rows


def _rows_runner(params: SuiteParams) -> list[dict]:
    reports = [ab.rows_rearrangement_check(n)
               for n in range(1, min(params.max_n, 40) + 1)]
    return _rows(reports, case=lambda r: f"N={r.params[0]}")


def _riemann_runner(exponent: int, target: Fraction):
    def run(params: SuiteParams) -> list[dict]:
        f = ab.MonomialIntegrand(Fraction(1), exponent, Fraction(1))
        rows = []
        for n in range(1, min(params.max_n, 1024) + 1):
            bracket = ab.riemann_bracket(f, n)
            width_ok = bracket.width == f.coefficient / n
            passed = bracket.contains(target) and width_ok
            rows.append(IdentityReport(f"riemann.x{exponent}", (n,), bracket,
                                       target, passed,
                                       None if passed else (n,)).row(case=f"n={n}"))
        return rows
    return run


def _power_runner(params: SuiteParams) -> list[dict]:
    rows = []
    previous = None
    for digits in range(0, min(params.digits, 8) + 1):
        bracket = ab.real_power_bracket(2, digits)
        nested = previous is None or previous.contains_bracket(bracket)
        rows.append(IdentityReport("power.sqrt2", (digits,), bracket,
                                   "nested refinement", nested,
                                   None if nested else (digits,)).row(
                                       case=f"digits={digits}"))
        previous = bracket
    return rows


def _pi_runner(params: SuiteParams) -> list[dict]:
    levels = ab.pi_bracket_sequence(min(params.digits + 6, 12),
                                    Fraction(1, 10 ** 12))
    rows = []
    previous = None
    for level, bracket in enumerate(levels):
        nested = previous is None or previous.contains_bracket(bracket)
        rows.append(IdentityReport("pi.doubling", (level,), bracket,
                                   "nested refinement", nested,
                                   None if nested else (level,)).row(
                                       case=f"doublings={level}"))
        previous = bracket
    return rows


def _limit_runner(_: SuiteParams) -> list[dict]:
    result = ab.squeeze_limit(ab.nth_root_sequence(), Fraction(1, 10), 500)
    passed = Fraction(5) <= result.bracket.lo and result.bracket.hi <= Fraction(51, 10)
    return [IdentityReport("limit.nthroot", (result.steps,), result.bracket,
                           "within [5, 5.1]", passed,
                           None if passed else (result.steps,)).row(
                               case=f"steps={result.steps}")]


# --- euclid -------------------------------------------------------------------------

def _random_triangle(rng: SplitMix64):
    while True:
        pts = [(Fraction(rng.below(19)) - 9, Fraction(rng.below(19)) - 9)
               for _ in range(3)]
        area2 = ((pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
                 - (pts[1][1] - pts[0][1]) * (pts[2][0] - pts[0][0]))
        if area2 != 0:
            return pts


def _ceva_runner(params: SuiteParams) -> list[dict]:
    rng = SplitMix64(params.seed)
    reports = []
    for _ in range(params.trials):
        a, b, c = _random_triangle(rng)
        wa, wb, wc = (rng.below(9) + 1 for _ in range(3))
        total = wa + wb + wc
        p = ((wa * a[0] + wb * b[0] + wc * c[0]) / total,
             (wa * a[1] + wb * b[1] + wc * c[1]) / total)
        reports.append(euclid.ceva_product_report(a, b, c, p))
    return _rows(reports, case=lambda r: f"p={render_value(r.params[3])}")


def _ceva_converse_runner(params: SuiteParams) -> list[dict]:
    rng = SplitMix64(params.seed)
    reports = []
    for _ in range(params.trials):
        a, b, c = _random_triangle(rng)
        r1 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
        r2 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
        cfg = euclid.CevaConfig(a, b, c, (r1, r2, 1 / (r1 * r2)))
        reports.append(euclid.ceva_converse_check(cfg))
    return _rows(reports, case=lambda r: "r=({},{},{})".format(
        *(rat_to_str(x) for x in r.params)))


def _squares_runner(params: SuiteParams) -> list[dict]:
    rng = SplitMix64(params.seed)
    reports = [euclid.squares_fit_report(1, 2), euclid.squares_fit_report(3, 5)]
    for _ in range(params.trials):
        a = Fraction(rng.below(30) + 1, rng.below(9) + 1)
        b = Fraction(rng.below(30) + 1, rng.below(9) + 1)
        reports.append(euclid.squares_fit_report(a, b))
    return _rows(reports, case=lambda r: "a={},b={}".format(
        *(rat_to_str(x) for x in r.params)))


def _cauchy_runner(params: SuiteParams) -> list[dict]:
    rng = SplitMix64(params.seed)
    reports = []
    for _ in range(params.trials):
        vals = [Fraction(rng.below(41) - 20, rng.below(9) + 1)
                for _ in range(4)]
        reports.append(polyform.cauchy_schwarz_check(*vals))
    return _rows(reports, case=lambda r: "a=({},{}),b=({},{})".format(
        *(rat_to_str(x) for x in r.params)))


# --- lattice ------------------------------------------------------------------------

def _pick_runner(params: SuiteParams) -> list[dict]:
    reports = []
    for seed in range(params.trials):
        poly = lattice.random_lattice_polygon(params.seed + seed, 20)
        reports.append(lattice.pick_check(poly))
    return _rows(reports, case=lambda r: f"vertices={len(r.params)}")


# --- probability ---------------------------------------------------------------------

def _dice_runner(params: SuiteParams) -> list[dict]:
    game = prob.dice_game(terms=params.terms, trials=params.trials,
                          seed=params.seed)
    passed = game.exact == Fraction(6, 11) and game.consistent()
    mc_status = game.monte_carlo.status if game.monte_carlo else PASS
    row = IdentityReport("prob.dice", (params.terms,), game.exact,
                         game.series_bracket, passed,
                         None if passed else (params.terms,),
                         {"mc": mc_status}).row(case="dice")
    if row["status"] == PASS and mc_status != PASS:
        row["status"] = mc_status
    return [row]


def _coin_runner(params: SuiteParams) -> list[dict]:
    reports = []
    for n in range(1, min(params.max_n, 12) + 1):
        dp = prob.coin_game_exact(n)
        closed = prob.coin_game_closed_form(n)
        reports.append(IdentityReport("prob.coin", (n,), dp, closed,
                                      dp == closed, None if dp == closed
                                      else (n,)))
    return _rows(reports, case=lambda r: f"n={r.params[0]}")


def _coin_series_runner(params: SuiteParams) -> list[dict]:
    rows = []
    for n in range(1, min(params.max_n, 12) + 1):
        report = prob.coin_series_index_report(n)
        for l_start, matches in sorted(report.matches.items()):
            expected_match = l_start == 0 or n != 1
            if matches == expected_match:
                status = PASS if matches else EXPECTED_FAIL
            else:
                status = FAIL
            rows.append({
                "suite": "prob.coin_series",
                "case": f"n={n},l_start={l_start}",
                "params": [str(n), str(l_start)],
                "lhs": str(report.brackets[l_start]),
                "rhs": rat_to_str(report.exact),
                "status": status,
                "witness": None if matches else [str(n), str(l_start)],
            })
    return rows


# --- the table -----------------------------------------------------------------------

def _build() -> dict[str, Suite]:
    suites: list[Suite] = []
    for name in polyform.builtin_identities():
        suites.append(Suite(name, "algebra", _alg_runner(name)))
    suites += [
        Suite("alg.pythagoras_trapezoid", "algebra", _pythagoras_runner),
        Suite("alg.pythagoras_printed", "algebra", _pythagoras_printed_runner,
              expected_fail=True),
        Suite("alg.incircle_tangent", "euclid", _incircle_runner),
        Suite("alg.mixture", "algebra", _mixture_runner),
    ]
    for kind in sums_fib.SumKind:
        suites.append(Suite(f"sum.{kind.value}", "sums", _sum_runner(kind)))
    suites += [
        Suite("fib.betweenness", "fibonacci", _betweenness_runner),
        Suite("divisor.identity", "divisors", _divisor_identity_runner),
        Suite("divisor.bounds", "divisors", _divisor_bounds_runner),
        Suite("binom.pascal", "binomials",
              _binom_nk_runner(comb.BinomKind.PASCAL, 60,
                               k_hi=lambda n: n + 1)),
        Suite("binom.square_pascal", "binomials",
              _binom_nk_runner(comb.BinomKind.SQUARE_PASCAL, 60,
                               k_lo=lambda n: 2)),
        Suite("binom.split_j", "binomials", _split_j_runner),
        Suite("binom.row_sum", "binomials",
              _binom_single_runner(comb.BinomKind.ROW_SUM, 60)),
        Suite("binom.weighted_3n", "binomials",
              _binom_single_runner(comb.BinomKind.WEIGHTED_3N, 60)),
        Suite("binom.double_3n", "binomials",
              _binom_single_runner(comb.BinomKind.DOUBLE_3N, 60)),
        Suite("binom.fib_diagonal", "binomials",
              _binom_single_runner(comb.BinomKind.FIB_DIAGONAL, 60)),
        Suite("binom.hockey_stick", "binomials",
              _binom_nk_runner(comb.BinomKind.HOCKEY_STICK, 60)),
        Suite("binom.absorption_printed", "binomials",
              _absorption_printed_runner, expected_fail=True),
        Suite("binom.absorption_standard", "binomials",
              _binom_nk_runner(comb.BinomKind.ABSORPTION_STANDARD, 60,
                               k_lo=lambda n: 1, k_hi=lambda n: n - 1)),
        Suite("binom.committee_product", "binomials", _committee_runner),
        Suite("binom.crosscheck", "binomials", _crosscheck_runner),
        Suite("binom.colorings", "binomials", _colorings_runner),
        Suite("partition.duality", "partitions", _duality_runner),
        Suite("series.chocolate", "series", _chocolate_runner),
        Suite("series.cake", "series", _cake_runner),
        Suite("series.swineshead", "series", _swineshead_runner),
        Suite("series.rows", "series", _rows_runner),
        Suite("riemann.x2", "integration",
              _riemann_runner(2, Fraction(1, 3))),
        Suite("riemann.x3", "integration",
              _riemann_runner(3, Fraction(1, 4))),
        Suite("power.sqrt2", "powers", _power_runner),
        Suite("pi.doubling", "circle", _pi_runner),
        Suite("limit.nthroot", "limits", _limit_runner),
        Suite("geom.ceva", "euclid", _ceva_runner),
        Suite("geom.ceva_converse", "euclid", _ceva_converse_runner),
        Suite("geom.squares_fit", "euclid", _squares_runner),
        Suite("geom.cauchy_schwarz", "euclid", _cauchy_runner),
        Suite("pick.formula", "lattice", _pick_runner),
        Suite("prob.dice", "probability", _dice_runner),
        Suite("prob.coin", "probability", _coin_runner),
        Suite("prob.coin_series", "probability", _coin_series_runner),
    ]
    table = {s.suite_id: s for s in suites}
    if len(table) != len(suites):
        raise RuntimeError("duplicate suite id in registry")
    return table


SUITES: dict[str, Suite] = _build()


def run_suite(suite_id: str, params: SuiteParams) -> list[dict]:
    return SUITES[suite_id].runner(params)
