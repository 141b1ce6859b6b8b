"""Command-line entry point: run suites, emit reports, return CI exit codes.

Each subcommand returns its rows; `main` alone emits them and maps the
outcome to an exit code: 0 when every row passes (expected failures that
fail as predicted count as passing), 1 on any unexpected failure or a
missed tolerance, 2 on usage errors, 3 on I/O failures.  With a fixed
seed all output is byte-identical between runs; decimals are renderings
of the exact strings next to them, never inputs to any comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from . import analysis_brackets as ab
from . import divisors as dv
from . import jordan_measure as jm
from . import lattice_pick as lattice
from . import probability_games as prob
from .exact_core import DomainError, NonConvergenceError, rat_from_str, \
    rat_to_decimal, rat_to_str
from .registry import SUITES, SWEEP_TRIALS_CAP, SuiteParams
from .report import FAIL, row_status

_FORMATS = ("table", "json", "csv")


def _cell(value) -> str:
    """A table or csv cell: lists joined by spaces, None left empty."""
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(value)
    return str(value)


def _fmt_table(rows: list[dict], columns: list[str]) -> Iterator[str]:
    lines = [columns, *([_cell(r.get(c)) for c in columns] for r in rows)]
    widths = [max(map(len, col)) for col in zip(*lines)]
    for line in lines:
        yield "  ".join(map(str.ljust, line, widths)) + "\n"


def _csv_field(s: str) -> str:
    if "," in s or '"' in s or "\n" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _fmt_csv(rows: list[dict], columns: list[str]) -> Iterator[str]:
    yield ",".join(columns) + "\n"
    for r in rows:
        yield ",".join([_csv_field(_cell(r.get(c))) for c in columns]) + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _json_rows(rows: list[dict]) -> Iterator[str]:
    """``json.dumps(rows, indent=2) + "\\n"``, one row per chunk.

    A row is a dict with str keys whose values are str, int, None, a list
    of str or a dict of str to str; any other value is a TypeError.  With
    an indent the stdlib encoder runs in pure Python and holds every chunk
    of the whole document in one list; writing the chunks as they come
    keeps no copy of the whole document in memory.  The items of a list or
    dict field are not type-checked here: ``encode_basestring_ascii``
    itself refuses anything but a str, and its TypeError is raised again
    naming the field's key.
    """
    keys: dict[str, str] = {}     # each key encoded once, with its ": "
    sep = "[\n  "
    for row in rows:
        fields = []
        for k, v in row.items():
            key = keys.get(k)
            if key is None:
                if type(k) is not str:
                    raise TypeError(f"a row key must be a str, not {k!r}")
                key = keys[k] = _encode_str(k) + ": "
            cls = type(v)
            try:
                if cls is str:
                    fields.append(key + _encode_str(v))
                elif v is None:
                    fields.append(key + "null")
                elif cls is int:
                    fields.append(key + int.__repr__(v))
                elif cls is list:
                    fields.append(key + (
                        "[\n      " + ",\n      ".join(map(_encode_str, v))
                        + "\n    ]" if v else "[]"))
                elif cls is dict:
                    fields.append(key + ("{\n      " + ",\n      ".join(
                        [_encode_str(x) + ": " + _encode_str(y)
                         for x, y in v.items()]) + "\n    }" if v else "{}"))
                else:
                    raise TypeError(f"{cls.__name__} is not a row value")
            except TypeError as exc:
                raise TypeError(f"a row cannot hold {v!r} at {k!r}") from exc
        yield sep + ("{\n    " + ",\n    ".join(fields) + "\n  }"
                     if fields else "{}")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path) -> None:
    """Write the rows chunk by chunk to ``out_path``, or to stdout."""
    if fmt == "json":
        chunks = _json_rows(rows)
    elif fmt == "csv":
        chunks = _fmt_csv(rows, columns)
    else:
        chunks = _fmt_table(rows, columns)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# A command returns (rows, columns) or raises DomainError on a usage error.
Rows = tuple[Iterable[dict], list[str]]


def _flag(name: str) -> str:
    """The `check` flag that sets the `SuiteParams` field `name`."""
    return "--" + name.replace("_", "-")


def _cmd_check(args) -> Rows:
    ids = sorted(SUITES) if args.suites == ["all"] else args.suites
    unknown = [s for s in ids if s not in SUITES]
    if unknown:
        raise DomainError(f"unknown suite id(s): {', '.join(unknown)}\n"
                          "run 'twoside list' for the available ids")
    repeated = [s for i, s in enumerate(ids) if s in ids[:i]]
    if repeated:
        raise DomainError("suite id(s) given more than once: "
                          + ", ".join(dict.fromkeys(repeated)))
    params = SuiteParams(max_n=args.max_n, seed=args.seed, trials=args.trials,
                         terms=args.terms, digits=args.digits)
    for suite_id in ids:    # every cap is refused before any suite runs
        for name, cap in SUITES[suite_id].caps.items():
            cap.require(getattr(params, name), _flag(name))
    rows: list[dict] = []
    empty = []
    for suite_id in ids:
        suite_rows = SUITES[suite_id].runner(params)
        if not suite_rows:
            empty.append(suite_id)
        rows.extend(suite_rows)
    if empty:
        raise DomainError("nothing to check at these parameters in: "
                          + ", ".join(empty))
    return rows, ["suite", "case", "lhs", "rhs", "status", "witness"]


def _cmd_list(args) -> Rows:
    rows = [{"suite": s.suite_id, "tag": s.tag,
             "expected_fail": "yes" if s.expected_fail is True else ""}
            for s in sorted(SUITES.values(), key=lambda s: s.suite_id)]
    return rows, ["suite", "tag", "expected_fail"]


def _tol(text: str) -> Fraction:
    """The `--tol` rational, refused unless positive."""
    try:
        tol = rat_from_str(text)
    except DomainError as exc:
        raise DomainError(f"--tol: {exc}") from exc
    if tol <= 0:
        raise DomainError(f"--tol must be positive, not {rat_to_str(tol)}")
    return tol


def _cmd_converge(args) -> Rows:
    rungs = ab.LADDER_RUNGS.get(args.generator, ab.CONVERGE_MAX_STEPS)
    doublings = args.doublings
    if doublings is None:
        doublings = min(12 if args.tol is None else 199, rungs - 1)
    if doublings < 0:
        raise DomainError("--doublings must be non-negative")
    if doublings >= rungs:
        raise DomainError(f"--doublings is at most {rungs - 1} on the "
                          f"{args.generator} ladder")
    gen = ab.named_generator(args.generator)
    if args.tol is None:
        gen = islice(gen, doublings + 1)
    else:
        gen = ab.refine(gen, _tol(args.tol), doublings + 1)
    # A generator, so the rows made before a missed tolerance reach `main`.
    rows = ({"step": step,
             "lo": rat_to_str(b.lo),
             "hi": rat_to_str(b.hi),
             "width": rat_to_str(b.width),
             "lo_dec": rat_to_decimal(b.lo, 15),
             "hi_dec": rat_to_decimal(b.hi, 15),
             "width_dec": rat_to_decimal(b.width, 15)}
            for step, b in enumerate(gen))
    return rows, ["step", "lo", "hi", "width", "lo_dec", "hi_dec", "width_dec"]


def _cmd_divisors(args) -> Rows:
    n = args.n
    if n < 1:
        raise DomainError("--n must be a positive integer")
    dv.HARMONIC_CAP.require(n, "--n")
    table = dv.divisor_counts(n)
    report = dv.divisor_average_bounds(n, table)
    identity = dv.divisor_identity_check(n, table)
    row = {
        "n": n,
        "divisor_sum": rat_to_str(identity.lhs),
        "floor_sum": rat_to_str(identity.rhs),
        "harmonic_minus_1": rat_to_str(report.lower),
        "avg": rat_to_str(report.avg),
        "harmonic": rat_to_str(report.upper),
        "harmonic_minus_1_dec": rat_to_decimal(report.lower, 12),
        "avg_dec": rat_to_decimal(report.avg, 12),
        "harmonic_dec": rat_to_decimal(report.upper, 12),
        "status": row_status(identity.passed and report.passed),
    }
    return [row], list(row)


def _cmd_jordan(args) -> Rows:
    try:
        region = jm.parse_region(args.region)
    except DomainError as exc:
        raise DomainError(f"--region: {exc}") from exc
    tol = _tol(args.tol)
    jm.require_ladder(region, args.max_n, "--max-n")
    ladder = jm.jordan_refine(region, tol, args.max_n)
    # A generator, so the rows made before a missed tolerance reach `main`.
    rows = ({"n": n,
             "inner": rat_to_str(b.lo),
             "outer": rat_to_str(b.hi),
             "width": rat_to_str(b.width),
             "inner_dec": rat_to_decimal(b.lo, 12),
             "outer_dec": rat_to_decimal(b.hi, 12)}
            for n, b in ladder)
    return rows, ["n", "inner", "outer", "width", "inner_dec", "outer_dec"]


def _cmd_pick(args) -> Rows:
    if args.seeds < 1:
        raise DomainError("--seeds must be positive")
    SWEEP_TRIALS_CAP.require(args.seeds, "--seeds")
    lattice.require_extent(args.extent, "--extent")
    rows = []
    for i in range(args.seeds):
        poly = lattice.random_lattice_polygon(args.seed + i, args.extent)
        report = lattice.pick_check(poly)
        tri = lattice.empty_triangulation(poly)
        rows.append({
            "seed": args.seed + i,
            "vertices": json.dumps(list(poly.vertices)),
            "area": rat_to_str(report.lhs),
            "boundary": tri.boundary,
            "interior": tri.interior,
            "triangles": tri.count,
            "status": row_status(report.passed and tri.passed),
        })
    return rows, ["seed", "vertices", "area", "boundary", "interior",
                  "triangles", "status"]


def _cmd_prob(args) -> Rows:
    if args.trials < 1:
        raise DomainError("--trials must be positive: the simulation is one "
                          "of the three routes")
    prob.SERIES_TERMS_CAP.require(args.terms, "--terms")
    if args.game == "coin" and args.n < 1:
        raise DomainError("--n must be a positive integer: the coin game "
                          "ends at the n-th head")
    if args.game == "coin" and args.terms < args.n:
        raise DomainError(f"--terms must be at least --n = {args.n}: the coin "
                          f"series bounds its tail only from the n-th term on")
    prob.MC_TRIALS_CAP.require(args.trials, "--trials")
    if args.game == "coin":
        prob.COIN_TRIAL_HEADS_CAP.require(args.trials * args.n,
                                          "--trials * --n")
    if args.game == "dice":
        report, mc = prob.dice_game(terms=args.terms, trials=args.trials,
                                    seed=args.seed)
    else:
        report, mc = prob.coin_game(args.n, terms=args.terms,
                                    trials=args.trials, seed=args.seed)
    exact, series = report.lhs, report.rhs
    payload = {
        "game": args.game if args.game == "dice" else f"coin(n={args.n})",
        "exact": rat_to_str(exact),
        "exact_dec": rat_to_decimal(exact, 12),
        "series_lo": rat_to_str(series.lo),
        "series_hi": rat_to_str(series.hi),
        "series_width": rat_to_str(series.width),
        "status": row_status(report.passed, gate=report.gate),
        "trials": mc.trials,
        "hits": mc.hits,
        "estimate": rat_to_str(mc.estimate),
        "estimate_dec": rat_to_decimal(mc.estimate, 12),
        "deviation": rat_to_str(mc.deviation),
        "three_sigma_hi": rat_to_str(mc.three_sigma.hi),
        "mc_status": mc.status,
    }
    return [payload], list(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoside",
        description="exact two-way verification suites and enclosure tables")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default="table")
    common.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="run one or more check suites")
    p_check.add_argument("suites", nargs="+",
                         help="suite ids (see 'list'), or 'all'")
    for field in dataclasses.fields(SuiteParams):
        p_check.add_argument(_flag(field.name), type=int,
                             default=field.default)
    p_check.set_defaults(run=_cmd_check)

    sub.add_parser("list", parents=[common],
                   help="print all suite ids with topic tags"
                   ).set_defaults(run=_cmd_list)

    p_conv = sub.add_parser("converge", parents=[common],
                            help="emit (step, lo, hi, width) refinement rows")
    p_conv.add_argument("generator", help=f"one of {ab.GENERATOR_NAMES}")
    p_conv.add_argument("--tol", default=None,
                        help="stop at the first bracket of width <= this "
                             "rational, e.g. 1/100")
    last = ", ".join(f"{name} {rungs - 1}"
                     for name, rungs in ab.LADDER_RUNGS.items())
    p_conv.add_argument("--doublings", type=int, default=None,
                        help="emit at most N + 1 brackets, exactly N + 1 "
                             "without --tol (default 12, or 199 with --tol; "
                             f"at most {ab.CONVERGE_MAX_STEPS - 1}); a ladder "
                             "that ends caps N at, and defaults it to, its "
                             f"last step: {last}")
    p_conv.set_defaults(run=_cmd_converge)

    p_div = sub.add_parser("divisors", parents=[common],
                           help="divisor identity and bounds at n")
    p_div.add_argument("--n", type=int, required=True)
    p_div.set_defaults(run=_cmd_divisors)

    p_jord = sub.add_parser("jordan", parents=[common],
                            help="grid-area refinement table")
    p_jord.add_argument("--region", required=True,
                        help='"disk:R", "disk:CX,CY,R" or "poly:X,Y;X,Y;..."')
    p_jord.add_argument("--tol", default="1/100")
    p_jord.add_argument("--max-n", type=int, default=1 << 12, dest="max_n")
    p_jord.set_defaults(run=_cmd_jordan)

    p_pick = sub.add_parser("pick", parents=[common],
                            help="random lattice polygon suite")
    p_pick.add_argument("--seeds", type=int, default=200)
    p_pick.add_argument("--extent", type=int, default=20)
    p_pick.add_argument("--seed", type=int, default=42)
    p_pick.set_defaults(run=_cmd_pick)

    p_prob = sub.add_parser("prob", parents=[common],
                            help="game probabilities three ways")
    p_prob.add_argument("game", choices=["dice", "coin"])
    p_prob.add_argument("--n", type=int, default=1)
    p_prob.add_argument("--trials", type=int, default=10_000)
    p_prob.add_argument("--terms", type=int, default=40)
    p_prob.add_argument("--seed", type=int, default=42)
    p_prob.set_defaults(run=_cmd_prob)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rows: list[dict] = []
    missed = False
    try:
        try:
            produced, columns = args.run(args)
            rows.extend(produced)
        except NonConvergenceError as exc:
            print(exc, file=sys.stderr)
            missed = True
        if rows:
            _emit(rows, columns, args.format, args.output)
    except DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 1 if missed or any(r.get("status") == FAIL for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
