#!/usr/bin/env python3
"""The DCFB benchmark: one command, every metric by name, unit and count.

    python3 perfbench/run.py --workload grid_serial --seed 42 \\
        --seconds 20 --trace 0

Builds perfbench/ (the dcfb library plus the dcfb_perfbench binary)
into .bench_build/perfbench on first use, runs one workload, and prints
provenance, a metric table, and as the last line one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  --workload all runs every workload in turn.  The
exit code is non-zero when any correctness check fails, when a metric
named in BENCHMARK.json is missing, or when the sources are absent.
perfbench/README.md maps each metric to its layer and workload.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD / "dcfb_perfbench"
WORKLOADS = ["grid_serial", "long_window", "grid_parallel", "cache_replay"]
BUILD_JOBS = "3"


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build (a no-op when fresh)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no dcfb sources under {ROOT / 'src'}; run from a full "
            "checkout", 2)
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS])
    with open(log, "w", encoding="utf-8") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False).returncode != 0:
                tail = log.read_text(encoding="utf-8").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed; see " + str(log))


def provenance():
    """Machine context (scripts/machine_context.py) and git describe."""
    sys.path.insert(0, str(ROOT / "scripts"))
    sys.dont_write_bytecode = True  # leave scripts/ as checked out
    try:
        import machine_context  # pylint: disable=import-outside-toplevel
        machine = machine_context.collect()
    except ImportError:
        machine = {"cpu_model": "unknown", "cores": 0, "governor": "unknown"}
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        describe = "unknown (not a git checkout)"
    return {**machine, "git_describe": describe}


def paper_errors(metrics, workload):
    """model.paper_err.<preset>: measured gmean speedup over the paper's
    number, minus one.  Only grid_parallel holds the 7-profile gmeans the
    paper reports; every other workload reads 0 (not comparable)."""
    table = json.loads((HERE / "paper_reference.json").read_text())
    out = {}
    for ref in table["speedups"]:
        name = "model.paper_err." + ref["preset"]
        value = 0.0
        if workload == "grid_parallel":
            measured = metrics["model.speedup." + ref["preset"]]["value"]
            value = measured / ref["value"] - 1.0
        out[name] = {"value": value, "unit": "ratio", "n": 1,
                     "paper": ref["value"], "source": ref["source"]}
    return out


def run_one(args, workload, spec):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", str(ROOT / "tests" / "golden"),
           "--work-dir", str(WORK / workload)]
    if args.tiny:
        cmd.append("--tiny")
    # Set-up and checks take well under two minutes on top of the passes.
    timeout = 130 + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die(f"{workload}: dcfb_perfbench did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        print(proc.stderr[-4000:], file=sys.stderr)
        die(f"{workload}: dcfb_perfbench exited {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:  # model.* metrics come with the traced run
        doc["metrics"].update(paper_errors(doc["metrics"], workload))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"{workload}: metric {m['name']} missing or not in "
                f"{m['unit']}")
        selected[m["name"]] = got
    doc["selected"] = selected
    doc["machine"] = provenance()
    return doc


def print_report(doc, trace):
    p, mc = doc["provenance"], doc["machine"]
    print(f"== {doc['workload']}  seed {doc['seed']}  "
          f"{'traced (per-layer)' if trace else 'untraced (end-to-end)'}")
    print(f"   machine: {mc['cpu_model']}, nproc {mc['cores']}, "
          f"governor {mc['governor']}")
    print(f"   build:   {p['build_type']} [{p['build_flags']}], "
          f"git {mc['git_describe']}")
    print(f"   run:     {p['cells']} cells, {p['passes']} passes, "
          f"{p['jobs']} thread(s), windows {p['warm_cycles']} warm / "
          f"{p['measure_cycles']} measure cycles, functional warmup "
          f"{p['functional_warm_instrs']} instrs, {p['setup_reps']} set-ups")
    print(f"   {'metric':<34} {'value':>16} {'unit':<9} samples")
    for name, m in doc["selected"].items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.1f} of cells)"
        if "paper" in m:
            extra = f"  (paper {m['paper']}: {m['source']})"
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']:<9} "
              f"{m['n']}{extra}")
    if trace:
        print("   note: model.* are simulated counters of a model that is "
              "not validated against hardware; the paper is the only "
              "reference.  0 marks a preset the workload does not run.")
    print(f"   cells attempted {doc['attempted']}, failed {doc['failed']}")
    for f in doc["failures"]:
        print(f"   FAILED: {f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: short windows, one pass")
    ap.add_argument("--report", help="also write the full report here")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("no BENCHMARK.json at the checkout root", 2)
    spec = json.loads(spec_path.read_text())
    build()

    names = WORKLOADS if args.workload == "all" else [args.workload]
    docs = [run_one(args, w, spec) for w in names]
    for doc in docs:
        print_report(doc, args.trace)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(docs if len(docs) > 1 else docs[0], f, indent=1)

    prefix = len(docs) > 1
    result = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            (d["workload"] + "." if prefix else "") + n:
                {"value": m["value"], "unit": m["unit"]}
            for d in docs for n, m in d["selected"].items()},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and result["attempted"] > 0 else 1)


if __name__ == "__main__":
    main()
