"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads numeric --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out .bench_out/spread.json

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential, one
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write every result here")
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"machine": machine(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, details = {}, {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            runs[seed] = json.loads(done.stdout.strip().splitlines()[-1])
            details[seed] = json.loads((
                ROOT / ".bench_out" / f"result_{workload}_seed{seed}"
                f"_trace{args.trace}.json").read_text(encoding="utf-8"))
            del details[seed]["items"]
            details[seed]["elapsed_s"] = time.perf_counter() - t0
            print(f"{workload} seed {seed}: correct={runs[seed]['correct']} "
                  f"attempted={runs[seed]['attempted']} "
                  f"elapsed={details[seed]['elapsed_s']:.1f}s", flush=True)
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs.values()]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "unit": m["unit"],
                                  "bound": m.get("bound")}
            bound = m.get("bound")
            flag = "" if bound is None else (
                "ok" if spread < bound / 3 else
                "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {m['name']:34s} median {median:12.6g} {m['unit']:6s} "
                  f"spread {spread:7.4f}"
                  + ("" if bound is None else f"  bound {bound}  {flag}"),
                  flush=True)
        # Pass-to-pass: (slowest - fastest) / median pass within each run.
        within = [(max(w) - min(w)) / statistics.median(w)
                  for w in (d["pass_walls"] for d in details.values())]
        print(f"  pass-to-pass range within a run: median "
              f"{statistics.median(within):.4f}, max {max(within):.4f}")
        report["workloads"][workload] = {
            "summary": summary,
            "pass_to_pass_range": {"median": statistics.median(within),
                                   "max": max(within)},
            "runs": runs, "details": details}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
