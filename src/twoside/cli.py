"""Command-line entry point: run suites, emit reports, return CI exit codes.

Exit codes: 0 when every row passes (expected failures that fail as
predicted count as passing), 1 on any unexpected failure, 2 on usage
errors, 3 on I/O failures.  With a fixed seed all output is byte-identical
between runs; decimals are renderings of the exact strings next to them,
never inputs to any comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import analysis_brackets as ab
from . import divisors as dv
from . import jordan_measure as jm
from . import lattice_pick as lattice
from . import probability_games as prob
from .exact_core import DomainError, NonConvergenceError, rat_from_str, \
    rat_to_decimal, rat_to_str
from .registry import SUITES, SuiteParams
from .report import EXPECTED_FAIL, FAIL, PASS, WARN, row_status

#: JSON shape of one check row; the check subcommand emits arrays of these.
ROW_SCHEMA = {
    "type": "object",
    "required": ["suite", "case", "params", "lhs", "rhs", "status", "witness"],
    "properties": {
        "suite": {"type": "string"},
        "case": {"type": "string"},
        "params": {"type": "array", "items": {"type": "string"}},
        "lhs": {"type": "string"},
        "rhs": {"type": "string"},
        "status": {"enum": [PASS, FAIL, EXPECTED_FAIL, WARN]},
        "witness": {"type": ["array", "null"], "items": {"type": "string"}},
        "detail": {"type": "object"},
        "lhs_enclosure": {"$ref": "#/$defs/bracket"},
        "rhs_enclosure": {"$ref": "#/$defs/bracket"},
    },
    "$defs": {
        "bracket": {
            "type": "object",
            "required": ["lo", "hi", "width"],
            "properties": {"lo": {"type": "string"},
                           "hi": {"type": "string"},
                           "width": {"type": "string"}},
        },
    },
}


def _fmt_table(rows: list[dict], columns: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows))
              if rows else len(c) for c in columns}
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines) + "\n"


def _fmt_csv(rows: list[dict], columns: list[str]) -> str:
    def escape(v) -> str:
        s = str(v)
        if any(ch in s for ch in ",\"\n"):
            return '"' + s.replace('"', '""') + '"'
        return s
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(escape(r.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=str) + "\n"
    elif fmt == "csv":
        text = _fmt_csv(rows, columns)
    else:
        text = _fmt_table(rows, columns)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_row(row: dict) -> dict:
    flat = dict(row)
    flat["params"] = " ".join(row["params"])
    flat["witness"] = "" if row["witness"] is None else " ".join(row["witness"])
    if "detail" in flat:
        flat["detail"] = " ".join(f"{k}={v}" for k, v in row["detail"].items())
    return flat


def _exit_code(rows: list[dict]) -> int:
    return 0 if all(r["status"] != FAIL for r in rows) else 1


def _cmd_check(args) -> int:
    ids = list(args.suites)
    if ids == ["all"]:
        ids = sorted(SUITES)
    unknown = [s for s in ids if s not in SUITES]
    if unknown:
        print(f"unknown suite id(s): {', '.join(unknown)}", file=sys.stderr)
        print("run 'twoside list' for the available ids", file=sys.stderr)
        return 2
    params = SuiteParams(max_n=args.max_n, seed=args.seed, trials=args.trials,
                         terms=args.terms, digits=args.digits)
    rows: list[dict] = []
    empty = []
    for suite_id in ids:
        suite_rows = SUITES[suite_id].runner(params)
        if not suite_rows:
            empty.append(suite_id)
        rows.extend(suite_rows)
    if empty:
        print(f"nothing to check at these parameters in: {', '.join(empty)}",
              file=sys.stderr)
        return 2
    columns = ["suite", "case", "lhs", "rhs", "status", "witness"]
    _emit([_flatten_row(r) for r in rows] if args.format != "json" else rows,
          columns, args.format, args.output)
    return _exit_code(rows)


def _cmd_list(args) -> int:
    rows = [{"suite": s.suite_id, "tag": s.tag,
             "expected_fail": "yes" if s.expected_fail is True else ""}
            for s in sorted(SUITES.values(), key=lambda s: s.suite_id)]
    _emit(rows, ["suite", "tag", "expected_fail"], args.format, args.output)
    return 0


def _cmd_converge(args) -> int:
    try:
        gen = ab.named_generator(args.generator)
    except DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.doublings < 0:
        print("--doublings must be non-negative", file=sys.stderr)
        return 2
    if args.max_steps < 1:
        print("--max-steps must be positive", file=sys.stderr)
        return 2
    if args.tol is None:
        gen = islice(gen, args.doublings + 1)
    else:
        gen = ab.refine(gen, rat_from_str(args.tol), args.max_steps)
    rows = []
    code = 0
    try:
        for step, bracket in enumerate(gen):
            rows.append(_bracket_row(step, bracket))
    except NonConvergenceError as exc:
        print(exc, file=sys.stderr)
        code = 1
    _emit(rows, _BRACKET_COLUMNS, args.format, args.output)
    return code


_BRACKET_COLUMNS = ["step", "lo", "hi", "width", "lo_dec", "hi_dec",
                    "width_dec"]


def _bracket_row(step: int, bracket) -> dict:
    return {
        "step": step,
        "lo": rat_to_str(bracket.lo),
        "hi": rat_to_str(bracket.hi),
        "width": rat_to_str(bracket.width),
        "lo_dec": rat_to_decimal(bracket.lo, 15),
        "hi_dec": rat_to_decimal(bracket.hi, 15),
        "width_dec": rat_to_decimal(bracket.width, 15),
    }


def _cmd_divisors(args) -> int:
    n = args.n
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
    _emit([row], list(row.keys()), args.format, args.output)
    return _exit_code([row])


def _cmd_jordan(args) -> int:
    try:
        region = jm.parse_region(args.region)
    except DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    tol = rat_from_str(args.tol)
    try:
        result = jm.jordan_refine(region, tol, args.max_n)
    except NonConvergenceError as exc:
        print(exc, file=sys.stderr)
        return 1
    rows = [{
        "n": n,
        "inner": rat_to_str(b.lo),
        "outer": rat_to_str(b.hi),
        "width": rat_to_str(b.width),
        "inner_dec": rat_to_decimal(b.lo, 12),
        "outer_dec": rat_to_decimal(b.hi, 12),
    } for n, b in result.steps]
    _emit(rows, ["n", "inner", "outer", "width", "inner_dec", "outer_dec"],
          args.format, args.output)
    return 0


def _cmd_pick(args) -> int:
    if args.seeds < 1:
        print("--seeds must be positive", file=sys.stderr)
        return 2
    rows = []
    for i in range(args.seeds):
        poly = lattice.random_lattice_polygon(args.seed + i, args.extent)
        report = lattice.pick_check(poly)
        tri = lattice.empty_triangulation(poly)
        ok = report.passed and tri.count_check and tri.area_check \
            and tri.all_empty and tri.all_half_area
        rows.append({
            "seed": args.seed + i,
            "vertices": json.dumps(list(poly.vertices)),
            "area": rat_to_str(report.lhs),
            "boundary": tri.boundary,
            "interior": tri.interior,
            "triangles": tri.count,
            "status": row_status(ok),
        })
    _emit(rows, ["seed", "vertices", "area", "boundary", "interior",
                 "triangles", "status"], args.format, args.output)
    return _exit_code(rows)


def _cmd_prob(args) -> int:
    if args.trials < 1:
        print("--trials must be positive: the simulation is one of the "
              "three routes", file=sys.stderr)
        return 2
    if args.terms < 0:
        print("--terms must be non-negative: it counts series terms",
              file=sys.stderr)
        return 2
    if args.game == "coin" and args.terms < args.n:
        print(f"--terms must be at least --n = {args.n}: the coin series "
              f"bounds its tail only from the n-th term on", file=sys.stderr)
        return 2
    if args.game == "dice":
        game = prob.dice_game(terms=args.terms, trials=args.trials,
                              seed=args.seed)
    else:
        game = prob.coin_game(args.n, terms=args.terms, trials=args.trials,
                              seed=args.seed)
    mc = game.monte_carlo
    payload = {
        "game": args.game if args.game == "dice" else f"coin(n={args.n})",
        "exact": rat_to_str(game.exact),
        "exact_dec": rat_to_decimal(game.exact, 12),
        "series_lo": rat_to_str(game.series_bracket.lo),
        "series_hi": rat_to_str(game.series_bracket.hi),
        "series_width": rat_to_str(game.series_bracket.width),
        "status": game.report(f"prob.{args.game}", (args.terms,)).status(),
        "trials": mc.trials,
        "hits": mc.hits,
        "estimate": rat_to_str(mc.estimate),
        "estimate_dec": rat_to_decimal(mc.estimate, 12),
        "deviation": rat_to_str(mc.deviation),
        "three_sigma_hi": rat_to_str(mc.three_sigma.hi),
        "mc_status": mc.status,
    }
    _emit([payload], list(payload.keys()), args.format, args.output)
    return _exit_code([payload])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoside",
        description="exact two-way verification suites and enclosure tables")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")
    common.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="run one or more check suites")
    p_check.add_argument("suites", nargs="+",
                         help="suite ids (see 'list'), or 'all'")
    p_check.add_argument("--max-n", type=int, default=200, dest="max_n")
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--terms", type=int, default=40)
    p_check.add_argument("--digits", type=int, default=6)

    p_list = sub.add_parser("list", parents=[common],
                            help="print all suite ids with topic tags")

    p_conv = sub.add_parser("converge", parents=[common],
                            help="emit (step, lo, hi, width) refinement rows")
    p_conv.add_argument("generator", help=f"one of {ab.GENERATOR_NAMES}")
    group = p_conv.add_mutually_exclusive_group()
    group.add_argument("--tol", default=None,
                       help="refine until width <= this rational, e.g. 1/100")
    group.add_argument("--doublings", type=int, default=12,
                       help="emit exactly this many refinement steps + 1")
    p_conv.add_argument("--max-steps", type=int, default=200, dest="max_steps")

    p_div = sub.add_parser("divisors", parents=[common],
                           help="divisor identity and bounds at n")
    p_div.add_argument("--n", type=int, required=True)

    p_jord = sub.add_parser("jordan", parents=[common],
                            help="grid-area refinement table")
    p_jord.add_argument("--region", required=True,
                        help='"disk:R", "disk:CX,CY,R" or "poly:X,Y;X,Y;..."')
    p_jord.add_argument("--tol", default="1/100")
    p_jord.add_argument("--max-n", type=int, default=1 << 12, dest="max_n")

    p_pick = sub.add_parser("pick", parents=[common],
                            help="random lattice polygon suite")
    p_pick.add_argument("--seeds", type=int, default=200)
    p_pick.add_argument("--extent", type=int, default=20)
    p_pick.add_argument("--seed", type=int, default=42)

    p_prob = sub.add_parser("prob", parents=[common],
                            help="game probabilities three ways")
    p_prob.add_argument("game", choices=["dice", "coin"])
    p_prob.add_argument("--n", type=int, default=1)
    p_prob.add_argument("--trials", type=int, default=10_000)
    p_prob.add_argument("--terms", type=int, default=40)
    p_prob.add_argument("--seed", type=int, default=42)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "list": _cmd_list,
    "converge": _cmd_converge,
    "divisors": _cmd_divisors,
    "jordan": _cmd_jordan,
    "pick": _cmd_pick,
    "prob": _cmd_prob,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_format = os.environ.get("TWOSIDE_FORMAT")
    if env_format:
        if env_format not in ("table", "json", "csv"):
            print(f"TWOSIDE_FORMAT must be table, json or csv, "
                  f"not {env_format!r}", file=sys.stderr)
            return 2
        args.format = env_format
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
