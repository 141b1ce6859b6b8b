"""Per-layer spans for the traced run, and the per-layer metrics they give.

The program is not edited: while a traced pass runs, the functions named in
`WRAPPED` are replaced by span-recording wrappers in every `twoside` module
that binds them, and restored afterwards.  Registry runners and `cli.main`
get their spans from the workloads themselves.

Layer times are raw seconds; trace.overhead_share compares the normalised
walls of traced and untraced passes.  Which end-to-end metric each layer metric
should move, and where (wall, p50 and p90 stand for wall_norm_s,
item_p50_norm_ms and item_p90_norm_ms):

  combinatorics.*_s            wall, p90 on check_all
  registry.*, cli.*            wall on check_all and check_scaled, and
                               p50 on check_all
  sums_fib, divisors.sweep_s, euclid_checks, polyform,
  analysis_brackets.series_s   wall on check_scaled
  lattice_pick.*               wall, p90 on lattice_grid
  jordan_measure.*             wall on lattice_grid
  exact_core.*, analysis_brackets.power_s/pi_s, divisors.sieve_s/
  floor_sum_s/bounds_s, probability_games.*   wall on numeric
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
from fractions import Fraction

from stats import percentile_with_tail

EXACT_BITS_DEFAULT = 1 << 14


def _root_observe(ts):
    exact_bits = getattr(ts.exact_core, "_EXACT_BITS", EXACT_BITS_DEFAULT)

    def observe(span, args, kwargs, result):
        q, k = Fraction(args[0]), args[1]
        hi = result.hi
        bits = max(k * hi.numerator.bit_length() + q.denominator.bit_length(),
                   k * hi.denominator.bit_length() + q.numerator.bit_length())
        span.attrs["path"] = "dyadic" if bits > exact_bits else "exact"
        width = result.width
        # Both starting brackets have width 1; each bisection halves it.
        span.attrs["steps"] = (0 if width == 0 else
                               (width.denominator // width.numerator)
                               .bit_length() - 1)
    return observe


def _jordan_observe(ts):
    disk = ts.jordan_measure.Disk

    def observe(span, args, kwargs, result):
        region, n = args[0], args[1]
        x0, y0, x1, y1 = region.bounding_box()
        span.attrs["kind"] = "disk" if isinstance(region, disk) else "poly"
        span.attrs["rows"] = math.ceil((y1 - y0) * n)
    return observe


def _triangulation_observe(ts):
    def observe(span, args, kwargs, result):
        span.attrs["triangles"] = result.count
        span.attrs["rescan_points"] = sum(
            (max(x for x, _ in t) - min(x for x, _ in t) + 1)
            * (max(y for _, y in t) - min(y for _, y in t) + 1)
            for t in result.triangles)
    return observe


def _mc_observe(ts):
    def observe(span, args, kwargs, result):
        # monte_carlo_dice(trials, seed) / monte_carlo_coin(n, trials, seed)
        span.attrs["trials"] = args[-2]
        span.attrs["hits"] = result
    return observe


#: (module, function names, span name, observer factory)
WRAPPED = [
    ("exact_core", ["root_bracket"], "exact_core.root_bracket", _root_observe),
    ("analysis_brackets", ["real_power_bracket"], "analysis_brackets.power",
     None),
    ("analysis_brackets", ["pi_bracket_sequence"], "analysis_brackets.pi",
     None),
    ("analysis_brackets", ["geometric_series_sum", "swineshead_check",
                           "rows_rearrangement_check", "riemann_bracket"],
     "analysis_brackets.series", None),
    ("combinatorics", ["colorings_report"], "combinatorics.colorings", None),
    ("combinatorics", ["partition_duality_check"], "combinatorics.duality",
     None),
    ("combinatorics", ["binom_identity_check",
                       "binomial_enumeration_crosscheck"],
     "combinatorics.binom", None),
    ("sums_fib", ["sum_identity_sweep", "fib_betweenness_report"],
     "sums_fib", None),
    ("divisors", ["divisor_counts"], "divisors.sieve", None),
    ("divisors", ["floor_sum"], "divisors.floor_sum", None),
    ("divisors", ["divisor_average_bounds", "harmonic_numbers"],
     "divisors.bounds", None),
    ("euclid_checks", ["ceva_product_report", "ceva_converse_check",
                       "squares_fit_report"], "euclid_checks", None),
    ("polyform", ["identity_check", "pythagoras_rearrangement_check",
                  "pythagoras_printed_check", "incircle_tangent_check",
                  "incircle_tangent_symbolic", "cauchy_schwarz_check",
                  "mixture_concentration"], "polyform", None),
    ("jordan_measure", ["jordan_bracket"], "jordan_measure.bracket",
     _jordan_observe),
    ("lattice_pick", ["random_lattice_polygon"], "lattice_pick.generate",
     None),
    ("lattice_pick", ["pick_check"], "lattice_pick.pick_check", None),
    ("lattice_pick", ["empty_triangulation"], "lattice_pick.triangulate",
     _triangulation_observe),
    ("probability_games", ["monte_carlo_dice", "monte_carlo_coin"],
     "probability_games.mc", _mc_observe),
    ("probability_games", ["absorbing_chain_solve", "coin_game_exact",
                           "dice_series_bracket", "coin_series_tail_bracket"],
     "probability_games.exact", None),
]


@contextlib.contextmanager
def installed(ts, tracer):
    """Wrap every `WRAPPED` function wherever a twoside module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "twoside"
                                     or name.startswith("twoside."))]
    patched = []
    for module_name, names, span_name, observer in WRAPPED:
        home = getattr(ts, module_name)
        observe = observer(ts) if observer else None
        for fn_name in names:
            original = getattr(home, fn_name, None)
            if original is None:
                print(f"trace: twoside.{module_name}.{fn_name} not found; "
                      f"its layer metric reads 0", file=sys.stderr)
                continue
            wrapper = tracer.wrap(original, span_name, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# --- metrics --------------------------------------------------------------------

#: name -> unit.  Seconds are busy time per traced pass (median over traced
#: passes); counts come from the first traced pass and repeat exactly.
PER_LAYER = {
    "combinatorics.colorings_s": "s",
    "combinatorics.duality_s": "s",
    "combinatorics.binom_s": "s",
    "registry.runner_s": "s",
    "registry.rows": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "sums_fib.busy_s": "s",
    "divisors.sweep_s": "s",
    "euclid_checks.busy_s": "s",
    "polyform.busy_s": "s",
    "analysis_brackets.series_s": "s",
    "lattice_pick.generate_s": "s",
    "lattice_pick.pick_check_s": "s",
    "lattice_pick.triangulate_s": "s",
    "lattice_pick.polygon_p90_ms": "ms",
    "lattice_pick.triangles": "count",
    "lattice_pick.rescan_points": "count",
    "jordan_measure.disk_s": "s",
    "jordan_measure.poly_s": "s",
    "jordan_measure.rows": "count",
    "jordan_measure.rows_per_s": "1/s",
    "exact_core.root_dyadic_s": "s",
    "exact_core.root_exact_s": "s",
    "exact_core.root_calls": "count",
    "exact_core.bisection_steps": "count",
    "analysis_brackets.power_s": "s",
    "analysis_brackets.pi_s": "s",
    "divisors.sieve_s": "s",
    "divisors.floor_sum_s": "s",
    "divisors.bounds_s": "s",
    "probability_games.mc_s": "s",
    "probability_games.mc_trials_per_s": "1/s",
    "probability_games.mc_hits": "count",
    "probability_games.exact_s": "s",
    "trace.overhead_share": "share",
}

#: metric -> (span name, optional attribute filter) for plain busy times.
BUSY = {
    "combinatorics.colorings_s": ("combinatorics.colorings", None),
    "combinatorics.duality_s": ("combinatorics.duality", None),
    "combinatorics.binom_s": ("combinatorics.binom", None),
    "registry.runner_s": ("registry.runner", None),
    "sums_fib.busy_s": ("sums_fib", None),
    "divisors.sweep_s": ("registry.runner",
                         lambda s: s.attrs["item"].startswith("divisor.")),
    "euclid_checks.busy_s": ("euclid_checks", None),
    "polyform.busy_s": ("polyform", None),
    "analysis_brackets.series_s": ("analysis_brackets.series", None),
    "lattice_pick.generate_s": ("lattice_pick.generate", None),
    "lattice_pick.pick_check_s": ("lattice_pick.pick_check", None),
    "lattice_pick.triangulate_s": ("lattice_pick.triangulate", None),
    "jordan_measure.disk_s": ("jordan_measure.bracket",
                              lambda s: s.attrs["kind"] == "disk"),
    "jordan_measure.poly_s": ("jordan_measure.bracket",
                              lambda s: s.attrs["kind"] == "poly"),
    "exact_core.root_dyadic_s": ("exact_core.root_bracket",
                                 lambda s: s.attrs["path"] == "dyadic"),
    "exact_core.root_exact_s": ("exact_core.root_bracket",
                                lambda s: s.attrs["path"] == "exact"),
    "analysis_brackets.power_s": ("analysis_brackets.power", None),
    "analysis_brackets.pi_s": ("analysis_brackets.pi", None),
    "divisors.sieve_s": ("divisors.sieve", None),
    "divisors.floor_sum_s": ("divisors.floor_sum", None),
    "divisors.bounds_s": ("divisors.bounds", None),
    "probability_games.mc_s": ("probability_games.mc", None),
    "probability_games.exact_s": ("probability_games.exact", None),
}

#: metric -> (span name, attribute summed) for exact counts.
COUNTS = {
    "registry.rows": ("registry.runner", "rows"),
    "cli.bytes_out": ("cli.main", "bytes"),
    "lattice_pick.triangles": ("lattice_pick.triangulate", "triangles"),
    "lattice_pick.rescan_points": ("lattice_pick.triangulate",
                                   "rescan_points"),
    "jordan_measure.rows": ("jordan_measure.bracket", "rows"),
    "exact_core.root_calls": ("exact_core.root_bracket", None),
    "exact_core.bisection_steps": ("exact_core.root_bracket", "steps"),
    "probability_games.mc_hits": ("probability_games.mc", "hits"),
}


def _busy(named, by_id, name, keep) -> float:
    """Time in spans called `name`, counting nested ones of that name once."""
    total = 0.0
    for s in named.get(name, ()):
        if keep is not None and not keep(s):
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != name:
            parent = by_id[parent].parent
        if parent is None:
            total += s.duration
    return total


def pass_metrics(spans, self_times) -> dict[str, float]:
    """Layer metrics of one traced pass from its spans."""
    by_id = {s.id: s for s in spans}
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
    out = {m: _busy(named, by_id, name, keep)
           for m, (name, keep) in BUSY.items()}
    for m, (name, attr) in COUNTS.items():
        out[m] = sum(1 if attr is None else s.attrs.get(attr, 0)
                     for s in named.get(name, ()))
    out["cli.self_s"] = sum(self_times[s.id] for s in named.get("cli.main", ()))
    jordan_s = out["jordan_measure.disk_s"] + out["jordan_measure.poly_s"]
    out["jordan_measure.rows_per_s"] = (out["jordan_measure.rows"] / jordan_s
                                        if jordan_s else 0.0)
    mc_trials = sum(s.attrs["trials"]
                    for s in named.get("probability_games.mc", ()))
    out["probability_games.mc_trials_per_s"] = (
        mc_trials / out["probability_games.mc_s"]
        if out["probability_games.mc_s"] else 0.0)
    return out


def summarize(per_pass: list[dict], polygon_ms: list[float],
              traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Medians of times and rates over traced passes; counts from the first."""
    out = {}
    for m in PER_LAYER:
        if m in COUNTS:
            out[m] = per_pass[0][m]
        elif m in per_pass[0]:
            out[m] = statistics.median(p[m] for p in per_pass)
    out["lattice_pick.polygon_p90_ms"] = (
        percentile_with_tail(polygon_ms, 0.9)[0] if polygon_ms else 0.0)
    out["trace.overhead_share"] = (statistics.median(traced_walls)
                                   / statistics.median(plain_walls) - 1)
    return out
