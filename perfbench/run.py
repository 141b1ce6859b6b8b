"""Benchmark for twoside: one workload per process, one closed-loop caller.

    python3 perfbench/run.py --workload check_all --seed 1 --seconds 30 --trace 0

Runs passes of the workload until the next one would end after --seconds,
checks every result, and prints one JSON object as the last stdout line.
With --trace 0 it reports the end-to-end metrics, every time normalised by
a reference kernel run next to it (calibrate.py); the raw times go to
stderr.  With --trace 1 it
alternates traced and untraced passes over the same inputs and reports the
per-layer metrics (see layers.py), writing every span to .bench_out/.
A human-readable summary with sample counts goes to stderr, and the pass
walls and setup samples to .bench_out/result_<workload>_seed<n>_trace<t>.json.

The program is imported from src/ of the checkout this file sits in; without
it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import layers
from stats import percentile_with_tail
from spans import Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ["exact_core", "report", "rng", "polyform", "sums_fib", "divisors",
           "combinatorics", "analysis_brackets", "jordan_measure",
           "lattice_pick", "euclid_checks", "probability_games", "registry",
           "cli"]
SETUP_REPEATS = {"full": 5, "tiny": 2}
# At least three passes, so that a pass of check_all (about 10 s) gives the
# same item count and percentile positions in every run.
MIN_PASSES = 3
# Setup is timed from a fresh interpreter's first statement; the reference
# kernel runs three times afterwards, so that it cannot warm the imports.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import twoside.cli
twoside.cli.build_parser()
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import calibrate
kernel = []
for _ in range(3):
    k0 = time.perf_counter()
    calibrate.kernel()
    kernel.append(time.perf_counter() - k0)
print(t1 - t0, sorted(kernel)[1])
"""

# Times are normalised by the reference kernel (see calibrate.py): raw
# times on this shared host moved 20-40% between runs of the same code.
END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "checks_per_norm_s": "1/s",
              "item_p90_norm_ms": "ms", "peak_rss_mb": "MB",
              "verified_share": "share"}
# Printed to stderr only and not gated: the raw figures, and the item median.
# The pooled median of numeric's items falls where one kind of item (about
# 15 ms) ends and the next (about 22 ms) begins, so it can move by half
# from one run to the next without any change in the program.
UNGATED = {"item_p50_norm_ms": "ms", "setup_raw_s": "s", "wall_s": "s",
           "checks_per_s": "1/s", "item_p90_ms": "ms"}


def load_program():
    """Import twoside from this checkout's src/, or exit 1."""
    if not (SRC / "twoside" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program at {SRC / 'twoside'}")
    sys.path.insert(0, str(SRC))
    import twoside
    if Path(twoside.__file__).resolve().parent != SRC / "twoside":
        sys.exit(f"benchmark: imported twoside from {twoside.__file__}, "
                 f"not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"twoside.{name}")
    return twoside


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Import twoside, build SUITES and the parser in fresh interpreters.

    Returns the raw seconds and the same normalised by the median of the
    three kernel runs that follow in each interpreter.
    """
    code = SETUP_CODE.format(src=str(SRC), bench=str(Path(__file__).parent))
    raw, norm = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, kernel = map(float, done.stdout.split())
        raw.append(seconds)
        norm.append(seconds * calibrate.REF_S / kernel)
    return raw, norm


def run_passes(ts, workload, tracer, seconds: float, trace: bool):
    """Closed loop: pass after pass until the next would overrun --seconds."""
    passes, traced_ranges, durations = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 0
        index = k // 2 if trace else k
        gc.collect()
        t0 = time.perf_counter()
        tracer.enabled = traced
        first_span = len(tracer.spans)
        if traced:
            with layers.installed(ts, tracer):
                result = workload.run_pass(index)
            traced_ranges.append((first_span, len(tracer.spans)))
        else:
            result = workload.run_pass(index)
        passes.append((traced, result))
        durations.append(time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_PASSES and elapsed + statistics.mean(durations) > seconds:
            return passes, traced_ranges


def end_to_end(passes, setup, setup_norm, attempted, failed):
    walls = [r.wall for _, r in passes]
    norm_ms = [it.norm * 1000 for _, r in passes for it in r.items]
    raw_ms = [it.seconds * 1000 for _, r in passes for it in r.items]
    p50, q50 = percentile_with_tail(norm_ms, 0.5)
    p90, q90 = percentile_with_tail(norm_ms, 0.9)
    values = {
        "setup_s": statistics.median(setup_norm),
        "wall_norm_s": statistics.median(r.norm_wall for _, r in passes),
        "checks_per_norm_s": statistics.median(r.checks / r.norm_wall
                                               for _, r in passes),
        "item_p50_norm_ms": p50,
        "item_p90_norm_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "verified_share": (attempted - failed) / attempted,
        "setup_raw_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "checks_per_s": statistics.median(r.checks / r.wall
                                          for _, r in passes),
        "item_p90_ms": percentile_with_tail(raw_ms, 0.9)[0],
    }
    per_pass = f"median of {len(walls)} passes"
    samples = {"setup_s": f"median of {len(setup)} interpreters, normalised",
               "wall_norm_s": per_pass, "checks_per_norm_s": per_pass,
               "item_p50_norm_ms": f"p{100 * q50:.1f} of {len(norm_ms)} items",
               "item_p90_norm_ms": f"p{100 * q90:.1f} of {len(norm_ms)} items",
               "peak_rss_mb": "maximum resident set of this process",
               "verified_share": f"{attempted - failed} of {attempted} items",
               "setup_raw_s": f"median of {len(setup)} interpreters, raw",
               "wall_s": f"{per_pass}, raw",
               "checks_per_s": f"{per_pass}, raw",
               "item_p90_ms": f"p{100 * q90:.1f} of {len(raw_ms)} items, raw"}
    return values, samples


def per_layer(passes, traced_ranges, tracer):
    per_pass, polygon_ms = [], []
    for lo, hi in traced_ranges:
        spans = tracer.spans[lo:hi]
        per_pass.append(layers.pass_metrics(spans, self_times(spans)))
        polygon_ms += [s.duration * 1000 for s in spans
                       if s.name == "bench.item" and s.attrs["item"] == "polygon"]
    traced = [r.norm_wall for t, r in passes if t]
    plain = [r.norm_wall for t, r in passes if not t]
    values = layers.summarize(per_pass, polygon_ms, traced, plain)
    samples = {m: f"{len(traced)} traced, {len(plain)} untraced passes"
               for m in values}
    return values, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the workload small, for the self-test")
    args = parser.parse_args(argv)

    ts = load_program()
    os.environ.pop("TWOSIDE_FORMAT", None)   # the benchmark chooses --format
    OUT.mkdir(exist_ok=True)
    setup, setup_norm = measure_setup(SETUP_REPEATS[args.size])
    tracer = Tracer(False)
    workload = WORKLOADS[args.workload](ts, args.seed, args.size, OUT, tracer)
    passes, traced_ranges = run_passes(ts, workload, tracer, args.seconds,
                                       bool(args.trace))

    attempted = sum(len(r.items) for _, r in passes)
    failed = sum(not it.ok for _, r in passes for it in r.items)
    if args.trace:
        values, samples = per_layer(passes, traced_ranges, tracer)
        units = layers.PER_LAYER
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    else:
        values, samples = end_to_end(passes, setup, setup_norm, attempted,
                                     failed)
        units = END_TO_END
    details = {"pass_walls": [r.wall for _, r in passes],
               "pass_norm_walls": [r.norm_wall for _, r in passes],
               "items": [[[it.label, it.seconds, it.norm, it.ok]
                          for it in r.items] for _, r in passes],
               "traced_passes": [t for t, _ in passes],
               "setup_samples": setup, "setup_norm_samples": setup_norm,
               "samples": samples}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    shown = units if args.trace else {**units, **UNGATED}
    for name, unit in shown.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}"
              f"  ({samples[name]})", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
