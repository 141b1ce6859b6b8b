"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric and a traced run every per-layer metric, each with the unit that
BENCHMARK.json names; that two traced runs with one seed give identical
counts; and that a traced run writes spans whose parents exist.  It also
checks BENCHMARK.json against the limits of its format, and that the
benchmark fails without printing a result when the program is missing.
Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def run(spec, workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_spec(spec) -> list[str]:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append("BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                                 "higher"):
                errors.append(f"metric {m['name']}")
    errors += [f"name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        errors.append("duplicate names")
    errors += [f"why of {w['name']}" for w in spec["workloads"]
               if len(w["why"]) > 200 or "\n" in w["why"]]
    errors += [f"bound of {m['name']}" for m in spec["end_to_end"]
               if not 0 < m["bound"] <= 0.25]
    return errors


def check_result(result, metrics) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"failed {result['failed']} of {result['attempted']}")
    got = result["metrics"]
    for m in metrics:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']}: {entry}")
    extra = set(got) - {m["name"] for m in metrics}
    if extra:
        errors.append(f"unlisted metrics {sorted(extra)}")
    return errors


def check_spans(path: Path) -> list[str]:
    spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    ids = {s[0] for s in spans}
    children = [s for s in spans if s[1] is not None]
    if not children:
        return [f"{path.name}: no span has a parent"]
    if any(s[1] not in ids for s in children):
        return [f"{path.name}: a parent id is missing"]
    if any(s[4] < s[3] for s in spans):
        return [f"{path.name}: a span ends before it starts"]
    return []


def check_without_program(spec) -> list[str]:
    """With only BENCHMARK.json and the benchmark's files, no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload",
         spec["workloads"][0]["name"], "--seed", str(SEED), "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return ["a checkout without the program still printed a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_spec(spec) + check_without_program(spec)
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "bytes")]
    for w in spec["workloads"]:
        name = w["name"]
        found = check_result(run(spec, name, 0), spec["end_to_end"])
        first, second = run(spec, name, 1), run(spec, name, 1)
        found += check_result(first, spec["per_layer"])
        found += [f"count {c} differs: {first['metrics'][c]['value']} vs "
                  f"{second['metrics'][c]['value']}" for c in counts
                  if first["metrics"][c] != second["metrics"][c]]
        found += check_spans(ROOT / ".bench_out" / f"trace_{name}_seed{SEED}.json")
        print(f"{name}: {'ok' if not found else '; '.join(found)}")
        errors += [f"{name}: {e}" for e in found]
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
