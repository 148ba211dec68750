#!/usr/bin/env python3
"""Self-test of the DCFB benchmark at tiny windows (about a minute).

    python3 perfbench/tests/selftest.py

Runs perfbench/run.py --tiny on every workload, untraced and traced,
and checks:
  - each run exits 0 and ends in the result JSON line (exactly
    correct/attempted/failed/metrics, attempted >= 1, failed == 0);
  - every metric BENCHMARK.json names for the mode is emitted with its
    unit, and nothing else;
  - the traced run's set-up + warm + measure accounts for the cell wall
    it times (the profiler misses only per-cell bookkeeping);
  - grid_parallel's cells equal grid_serial's where profile, preset,
    windows and seed agree (jobs 3 vs jobs 1);
  - model.* metrics repeat exactly when a run is repeated with its seed.
Exits non-zero on the first failed check.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench-selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402  every workload, gated or not


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL {what}")
        sys.exit(1)


def run(workload, trace, seed=7):
    report = WORK_DIR / f"{workload}-{trace}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--tiny",
         "--report", str(report)],
        capture_output=True, text=True, cwd=ROOT, check=False)
    check(proc.returncode == 0,
          f"{workload} trace {trace} exited {proc.returncode}: "
          f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(line)}")
    check(line["correct"] and line["failed"] == 0 and
          line["attempted"] >= 1, f"{workload}: {line['failed']} failed")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    check(set(line["metrics"]) == {m["name"] for m in wanted},
          f"{workload} trace {trace}: metric names differ from "
          "BENCHMARK.json")
    for m in wanted:
        got = line["metrics"][m["name"]]
        check(got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)),
              f"{workload}: {m['name']} = {got}")
    return line, json.loads(report.read_text())


def main():
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    docs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, doc = run(workload, trace)
            docs[(workload, trace)] = (line, doc)
            print(f"selftest: {workload} trace {trace} ok "
                  f"({line['attempted']} cells)")

    # The profiler's set-up/warm/measure split covers the cell wall.
    for workload in WORKLOADS:
        acc = docs[(workload, 1)][1]["accounting"]
        if acc["profiled_s"] == 0:  # cache_replay passes do not simulate
            continue
        share = acc["profiled_s"] / acc["cell_wall_s"]
        check(0.85 <= share <= 1.0, f"{workload}: profiled {share:.3f} "
              "of traced cell wall")
        print(f"selftest: {workload} profiler accounts for "
              f"{share:.1%} of cell wall")

    # Parallel cells equal serial cells.
    serial = docs[("grid_serial", 0)][1]["cell_digests"]
    parallel = docs[("grid_parallel", 0)][1]["cell_digests"]
    shared = set(serial) & set(parallel)
    check(len(shared) == 21, f"{len(shared)} shared cells, want 21")
    for cell in sorted(shared):
        check(serial[cell] == parallel[cell], f"{cell}: jobs 3 != jobs 1")
    print(f"selftest: {len(shared)} grid_parallel cells equal grid_serial")

    # Model metrics repeat exactly for a seed.
    again, _ = run("grid_serial", 1)
    first = docs[("grid_serial", 1)][0]["metrics"]
    for name, m in first.items():
        if name.startswith("model."):
            check(again["metrics"][name] == m, f"{name} did not repeat")
    print("selftest: model.* metrics repeat for the seed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
