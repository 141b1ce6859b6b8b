"""Static table of check suites addressable from the CLI.

A suite is declared by one `_suite` call:

- its id and topic tag;
- a **sweep**: a function of `SuiteParams` that yields the suite's
  `IdentityReport`s.  It calls the checker modules through their module
  attribute at run time (``comb.colorings_report(n)``), so a wrapper
  installed on that attribute sees every call;
- a **case label** for each row: a format string filled with the report's
  rendered parameters (``"n={0},k={1}"``), or a function of the report.
  Without one the row shows the parameter tuple;
- **expected-fail**, stated once: ``True`` when every row is a shipped
  misprint kept on display, or the set of case labels that are;
- **caps**, for a suite whose work has a size cap: a map from each capped
  `SuiteParams` field to its `exact_core.Cap`.  `check` refuses the caps
  of every selected suite, naming the field's flag, before the first
  runner starts.

Each declaration hands its reports and its own id to `report.rows`, the
one path from reports to rows, so a row's suite is the declaration that
ran it and this module is the only one that knows suite ids.
`report.row_status` gives every row its status, so an expected failure
that fails as predicted counts as passing and one that passes is a FAIL.
Adding a new verified fact means adding one declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Mapping

from . import analysis_brackets as ab
from . import combinatorics as comb
from . import divisors as dv
from . import euclid_checks as euclid
from . import lattice_pick as lattice
from . import polyform
from . import probability_games as prob
from . import sums_fib
from .exact_core import Bracket, Cap, rat_to_str
from .report import Case, IdentityReport, report_check, report_equal, rows
from .rng import SplitMix64


@dataclass(frozen=True)
class SuiteParams:
    max_n: int = 200
    seed: int = 42
    trials: int = 100
    terms: int = 40
    digits: int = 6


#: Most trials of a suite that makes one row per trial.  At this cap
#: `check pick.formula` takes about 3 s and each `geom.*` suite about 0.6 s.
SWEEP_MAX_TRIALS = 10 ** 4
SWEEP_TRIALS_CAP = Cap("SWEEP_MAX_TRIALS", SWEEP_MAX_TRIALS)
_TRIALS_CAPS = {"trials": SWEEP_TRIALS_CAP}


@dataclass(frozen=True)
class Suite:
    suite_id: str
    tag: str
    runner: Callable[[SuiteParams], list[dict]]
    expected_fail: bool | frozenset[str]
    caps: Mapping[str, Cap]


Sweep = Callable[[SuiteParams], Iterable[IdentityReport]]


def _suite(suite_id: str, tag: str, sweep: Sweep, case: Case = None,
           expected_fail: bool | frozenset[str] = False,
           caps: Mapping[str, Cap] | None = None) -> Suite:
    def run(params: SuiteParams) -> list[dict]:
        return rows(suite_id, sweep(params), case, expected_fail)
    return Suite(suite_id, tag, run, expected_fail, caps or {})


# --- algebra ---------------------------------------------------------------------

def _identity(name: str) -> Sweep:
    return lambda _: [
        polyform.identity_check(*polyform.builtin_identity(name))]


def _incircle(params: SuiteParams):
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
    return reports + [polyform.incircle_tangent_check(*case) for case in cases]


_MIXTURES = (
    (Fraction(13, 10), Fraction(8, 10), Fraction(15), Fraction(10)),
    (Fraction(1), Fraction(0), Fraction(5), Fraction(25)),
    (Fraction(1), Fraction(1), Fraction(10), Fraction(20)),
)


def _mixture(_: SuiteParams):
    """The solved concentration x balances the dissolved mass exactly."""
    for m1, m2, c2, c_mix in _MIXTURES:
        x = polyform.mixture_concentration(m1, m2, c2, c_mix)
        yield report_equal((m1, m2, c2, c_mix), m1 * x + m2 * c2,
                           (m1 + m2) * c_mix, {"x": x})


# --- divisors ----------------------------------------------------------------------

def _divisor_identity(params: SuiteParams):
    if params.max_n < 1:  # nothing to sieve: `check` names the empty suite
        return
    table = dv.divisor_counts(params.max_n)
    for n in range(1, params.max_n + 1):
        yield dv.divisor_identity_check(n, table)


def _divisor_bounds(params: SuiteParams):
    if params.max_n < 1:
        return
    table = dv.divisor_counts(params.max_n)
    harmonics = dv.harmonic_numbers(params.max_n)
    for n in range(1, params.max_n + 1):
        b = dv.divisor_average_bounds(n, table, harmonics[n])
        # H_n = p/q and H_n - 1 = (p - q)/q share the lowest-terms
        # denominator, as gcd(p - q, q) = gcd(p, q) = 1, so its thousand-odd
        # digits are rendered once; H_1 = 1 has none.  Each cell is one
        # f-string: joining "p/q" first made a 1-3 KB string per row that
        # was freed at once and left holes between the rows.
        q = b.upper.denominator
        over = "" if q == 1 else "/" + rat_to_str(q)
        lhs = f"{rat_to_str(b.lower.numerator)}{over} < {rat_to_str(b.avg)}"
        rhs = f"<= {rat_to_str(b.upper.numerator)}{over}"
        yield report_check((n,), lhs, rhs, b.passed)


# --- binomials ----------------------------------------------------------------------

def _binom_n(kind: comb.BinomKind, start: int = 0) -> Sweep:
    return lambda p: (comb.binom_identity_check(kind, n=n)
                      for n in range(start, min(p.max_n, 60) + 1))


def _binom_nk(kind: comb.BinomKind, k_lo=lambda n: 0,
              k_hi=lambda n: n) -> Sweep:
    return lambda p: (comb.binom_identity_check(kind, n=n, k=k)
                      for n in range(1, min(p.max_n, 60) + 1)
                      for k in range(k_lo(n), k_hi(n) + 1))


def _binom_nk3(kind: comb.BinomKind, cap: int, third: str) -> Sweep:
    """Every 0 <= third <= k <= n <= cap."""
    return lambda p: (comb.binom_identity_check(kind, n=n, k=k, **{third: j})
                      for n in range(min(p.max_n, cap) + 1)
                      for k in range(n + 1) for j in range(k + 1))


def _absorption_printed(_: SuiteParams):
    report = comb.binom_identity_check(comb.BinomKind.ABSORPTION_PRINTED,
                                       n=3, k=1)
    minimal = comb.absorption_printed_minimal_witness()
    return [report_check(report.params, report.lhs, report.rhs, report.passed,
                         {"minimal_witness": minimal})]


# --- series and brackets --------------------------------------------------------------

def _geometric(suite_id: str, a: Fraction, r: Fraction,
               total: Fraction) -> Suite:
    """a + ar + ar^2 + ...: the closed form is `total` and the tail bracket
    through term N contains it."""
    def sweep(params: SuiteParams):
        closed = a / (1 - r)
        for n in range(min(params.max_n, 40) + 1):
            bracket = ab.geometric_series_sum(a, r, n)
            yield report_check((n,), bracket, closed,
                               closed == total and bracket.contains(closed))
    return _suite(suite_id, "series", sweep, "N={0}")


def _riemann(exponent: int) -> Suite:
    """The Darboux bracket of x^exponent on [0, 1] with n strips contains
    the exact integral and has width 1/n."""
    def sweep(params: SuiteParams):
        f = ab.MonomialIntegrand(Fraction(1), exponent, Fraction(1))
        target = f.exact_integral()
        for n in range(1, min(params.max_n, 1024) + 1):
            bracket = ab.riemann_bracket(f, n)
            yield report_check((n,), bracket, target,
                               bracket.contains(target)
                               and bracket.width == f.coefficient / n)
    return _suite(f"riemann.x{exponent}", "integration", sweep, "n={0}")


def _nested(suite_id: str, tag: str,
            levels: Callable[[SuiteParams], Iterable[Bracket]],
            case: str) -> Suite:
    """Each level's bracket lies inside the one before."""
    def sweep(params: SuiteParams):
        previous = None
        for level, bracket in enumerate(levels(params)):
            yield report_check((level,), bracket, "nested refinement",
                               previous is None
                               or previous.contains_bracket(bracket))
            previous = bracket
    return _suite(suite_id, tag, sweep, case)


def _limit(_: SuiteParams):
    brackets = list(ab.refine(ab.named_generator("nthroot"), Fraction(1, 10),
                              500))
    last = brackets[-1]
    within = Fraction(5) <= last.lo and last.hi <= Fraction(51, 10)
    return [report_check((len(brackets),), last, "within [5, 5.1]", within)]


# --- euclid -------------------------------------------------------------------------

def _random_triangle(rng: SplitMix64):
    while True:
        pts = [(rng.below(19) - 9, rng.below(19) - 9) for _ in range(3)]
        area2 = ((pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1])
                 - (pts[1][1] - pts[0][1]) * (pts[2][0] - pts[0][0]))
        if area2 != 0:
            return pts


def _ceva(params: SuiteParams):
    rng = SplitMix64(params.seed)
    for _ in range(params.trials):
        a, b, c = _random_triangle(rng)
        wa, wb, wc = (rng.below(9) + 1 for _ in range(3))
        total = wa + wb + wc
        p = (Fraction(wa * a[0] + wb * b[0] + wc * c[0], total),
             Fraction(wa * a[1] + wb * b[1] + wc * c[1], total))
        yield euclid.ceva_product_report(a, b, c, p)


def _ceva_converse(params: SuiteParams):
    rng = SplitMix64(params.seed)
    for _ in range(params.trials):
        a, b, c = _random_triangle(rng)
        r1 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
        r2 = Fraction(rng.below(9) + 1, rng.below(9) + 1)
        yield euclid.ceva_converse_check(
            euclid.CevaConfig(a, b, c, (r1, r2, 1 / (r1 * r2))))


def _squares(params: SuiteParams):
    rng = SplitMix64(params.seed)
    yield euclid.squares_fit_report(1, 2)
    yield euclid.squares_fit_report(3, 5)
    for _ in range(params.trials):
        a = Fraction(rng.below(30) + 1, rng.below(9) + 1)
        b = Fraction(rng.below(30) + 1, rng.below(9) + 1)
        yield euclid.squares_fit_report(a, b)


def _cauchy(params: SuiteParams):
    rng = SplitMix64(params.seed)
    for _ in range(params.trials):
        yield polyform.cauchy_schwarz_check(
            *(Fraction(rng.below(41) - 20, rng.below(9) + 1)
              for _ in range(4)))


# --- probability ---------------------------------------------------------------------

def _dice(params: SuiteParams):
    """No report without a simulation: it is one of the three routes."""
    if params.trials < 1:
        return []
    report, _ = prob.dice_game(terms=params.terms, trials=params.trials,
                               seed=params.seed)
    return [report]


# --- the table -----------------------------------------------------------------------

def _build() -> dict[str, Suite]:
    B = comb.BinomKind
    suites = [_suite(f"alg.{name}", "algebra", _identity(name))
              for name in polyform.BUILTIN_IDENTITIES]
    suites += [
        _suite("alg.pythagoras_trapezoid", "algebra",
               lambda _: [polyform.pythagoras_rearrangement_check()]),
        _suite("alg.pythagoras_printed", "algebra",
               lambda _: [polyform.pythagoras_printed_check()],
               expected_fail=True),
        _suite("alg.incircle_tangent", "euclid", _incircle),
        _suite("alg.mixture", "algebra", _mixture,
               lambda r: f"x={rat_to_str(r.detail['x'])}"),
    ]
    suites += [_suite(f"sum.{kind.value}", "sums",
                      lambda p, kind=kind: sums_fib.sum_identity_sweep(
                          kind, p.max_n), "n={0}",
                      caps={"max_n": sums_fib.SUM_CAP})
               for kind in sums_fib.SumKind]
    suites += [
        _suite("fib.betweenness", "fibonacci",
               lambda p: (sums_fib.fib_betweenness_report(m, n)
                          for n in range(2, min(p.max_n, 40) + 1)
                          for m in range(1, n)), "m={0},n={1}"),
        _suite("divisor.identity", "divisors", _divisor_identity, "n={0}",
               caps={"max_n": dv.SIEVE_CAP}),
        _suite("divisor.bounds", "divisors", _divisor_bounds, "n={0}",
               caps={"max_n": dv.HARMONIC_CAP}),
        _suite("binom.pascal", "binomials",
               _binom_nk(B.PASCAL, k_hi=lambda n: n + 1), "n={0},k={1}"),
        _suite("binom.square_pascal", "binomials",
               _binom_nk(B.SQUARE_PASCAL, k_lo=lambda n: 2), "n={0},k={1}"),
        _suite("binom.split_j", "binomials", _binom_nk3(B.SPLIT_J, 25, "j"),
               "n={0},k={1},j={2}"),
        _suite("binom.row_sum", "binomials", _binom_n(B.ROW_SUM), "n={0}"),
        _suite("binom.weighted_3n", "binomials", _binom_n(B.WEIGHTED_3N),
               "n={0}"),
        _suite("binom.double_3n", "binomials", _binom_n(B.DOUBLE_3N), "n={0}"),
        _suite("binom.fib_diagonal", "binomials",
               _binom_n(B.FIB_DIAGONAL, start=1), "n={0}"),
        _suite("binom.hockey_stick", "binomials", _binom_nk(B.HOCKEY_STICK),
               "n={0},k={1}"),
        _suite("binom.absorption_printed", "binomials", _absorption_printed,
               expected_fail=True),
        _suite("binom.absorption_standard", "binomials",
               _binom_nk(B.ABSORPTION_STANDARD, k_lo=lambda n: 1,
                         k_hi=lambda n: n - 1), "n={0},k={1}"),
        _suite("binom.committee_product", "binomials",
               _binom_nk3(B.COMMITTEE_PRODUCT, 40, "l"), "n={0},k={1},l={2}"),
        _suite("binom.crosscheck", "binomials",
               lambda p: (comb.binomial_enumeration_crosscheck(n, k)
                          for n in range(min(p.max_n, 15) + 1)
                          for k in range(n + 1)), "n={0},k={1}"),
        _suite("binom.colorings", "binomials",
               lambda p: (comb.colorings_report(n)
                          for n in range(1, min(p.max_n, 30) + 1)), "n={0}"),
        _suite("partition.duality", "partitions",
               lambda p: (r for n in range(1, min(p.max_n, 25) + 1)
                          for r in comb.partition_duality_reports(n)),
               "n={0},k={1}"),
        _geometric("series.chocolate", Fraction(1), Fraction(1, 10),
                   Fraction(10, 9)),
        _geometric("series.cake", Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        _suite("series.swineshead", "series",
               lambda p: map(ab.swineshead_check, range(min(p.max_n, 64) + 1)),
               "N={0}"),
        _suite("series.rows", "series",
               lambda p: (ab.rows_rearrangement_check(n)
                          for n in range(1, min(p.max_n, 40) + 1)), "N={0}"),
        _riemann(2),
        _riemann(3),
        _nested("power.sqrt2", "powers",
                lambda p: islice(ab.named_generator("power"),
                                 max(0, p.digits + 1)),
                "digits={0}"),
        _nested("pi.doubling", "circle",
                lambda p: ab.pi_bracket_sequence(min(p.digits + 6, 12),
                                                 Fraction(1, 10 ** 12))
                if p.digits >= -6 else (),
                "doublings={0}"),
        _suite("limit.nthroot", "limits", _limit, "steps={0}"),
        _suite("geom.ceva", "euclid", _ceva, "p={3}", caps=_TRIALS_CAPS),
        _suite("geom.ceva_converse", "euclid", _ceva_converse,
               "r=({0},{1},{2})", caps=_TRIALS_CAPS),
        _suite("geom.squares_fit", "euclid", _squares, "a={0},b={1}",
               caps=_TRIALS_CAPS),
        _suite("geom.cauchy_schwarz", "euclid", _cauchy,
               "a=({0},{1}),b=({2},{3})", caps=_TRIALS_CAPS),
        _suite("pick.formula", "lattice",
               lambda p: (lattice.pick_check(
                   lattice.random_lattice_polygon(p.seed + seed, 20))
                          for seed in range(p.trials)),
               lambda r: f"vertices={len(r.params)}", caps=_TRIALS_CAPS),
        _suite("prob.dice", "probability", _dice, "dice",
               caps={"terms": prob.SERIES_TERMS_CAP,
                     "trials": prob.MC_TRIALS_CAP}),
        _suite("prob.coin", "probability",
               lambda p: (report_equal((n,), prob.coin_game_exact(n),
                                       prob.coin_game_closed_form(n))
                          for n in range(1, min(p.max_n, 12) + 1)), "n={0}"),
        # The printed series starts at L = 1 and so drops the L = 0 term,
        # which is nonzero only for the first head.
        _suite("prob.coin_series", "probability",
               lambda p: (r for n in range(1, min(p.max_n, 12) + 1)
                          for r in prob.coin_series_index_reports(n)),
               "n={0},l_start={1}",
               expected_fail=frozenset({"n=1,l_start=1"})),
    ]
    table = {s.suite_id: s for s in suites}
    if len(table) != len(suites):
        raise RuntimeError("duplicate suite id in registry")
    return table


SUITES: dict[str, Suite] = _build()
