#!/usr/bin/env python3
"""Regenerate the golden-result corpus under tests/golden/.

The corpus pins the simulator's RunResult for sixteen (workload, preset)
cells (see tests/golden_cells.h); tests/test_golden.cpp asserts that
re-simulating each cell reproduces its committed JSON byte for byte.

Regeneration is deliberately guarded: it REFUSES to run over a dirty
git tree, so new goldens can only ever appear in a commit whose diff
shows exactly which counters changed -- accepting new results is a
reviewed decision, never a side effect of a local build.  After
regenerating it prints the key delta of every golden file against
HEAD: keys added (with their values), keys removed, and keys whose
value changed.

Usage:
  scripts/update_golden.py [--build-dir build/release] [--force-build]
"""

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run(cmd, **kwargs):
    print("  $", " ".join(str(c) for c in cmd))
    return subprocess.run(cmd, check=True, cwd=REPO, **kwargs)


def dirty_paths():
    out = subprocess.run(
        ["git", "status", "--porcelain"],
        cwd=REPO, check=True, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.strip()]


def flatten(doc):
    """One (section, key) -> value entry per reported field."""
    out = {}
    for section, value in doc.items():
        if isinstance(value, dict):
            for key, v in value.items():
                out[(section, key)] = v
        else:
            out[(section, "")] = value
    return out


def load_head(rel):
    res = subprocess.run(["git", "show", f"HEAD:{rel}"], cwd=REPO,
                         capture_output=True, text=True)
    return json.loads(res.stdout) if res.returncode == 0 else {}


def print_key_delta(corpus):
    """Print, per golden file, the keys added, removed and changed
    against HEAD, then the totals."""
    def name(k):
        return f"{k[0]}.{k[1]}" if k[1] else k[0]

    def show(v):
        return json.dumps(v, sort_keys=True)

    totals = [0, 0, 0]
    print("\nkey delta against HEAD:")
    head_files = subprocess.run(
        ["git", "ls-files", corpus], cwd=REPO, check=True,
        capture_output=True, text=True).stdout.split()
    files = sorted({pathlib.Path(f).name for f in head_files
                    if f.endswith(".json")} |
                   {p.name for p in (REPO / corpus).glob("*.json")})
    for fname in files:
        rel = f"{corpus}/{fname}"
        path = REPO / rel
        old = flatten(load_head(rel))
        new = flatten(json.loads(path.read_text())) if path.exists() else {}
        added = sorted(k for k in new if k not in old)
        removed = sorted(k for k in old if k not in new)
        changed = sorted(k for k in new if k in old and new[k] != old[k])
        totals = [totals[0] + len(added), totals[1] + len(removed),
                  totals[2] + len(changed)]
        print(f"  {fname}: {len(added)} added, {len(removed)} removed, "
              f"{len(changed)} changed")
        for k in added:
            print(f"    + {name(k)} = {show(new[k])}")
        for k in removed:
            print(f"    - {name(k)} (was {show(old[k])})")
        for k in changed:
            print(f"    ~ {name(k)}: {show(old[k])} -> {show(new[k])}")
    print(f"  total: {totals[0]} added, {totals[1]} removed, "
          f"{totals[2]} changed")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build/release",
                    help="CMake build directory (default: build/release)")
    ap.add_argument("--force-build", action="store_true",
                    help="configure the build directory if it is missing")
    args = ap.parse_args()

    dirty = dirty_paths()
    if dirty:
        print("refusing to regenerate goldens over a dirty git tree:",
              file=sys.stderr)
        for line in dirty:
            print("  " + line, file=sys.stderr)
        print("commit or stash first, so the corpus diff stands alone.",
              file=sys.stderr)
        return 1

    build = REPO / args.build_dir
    if not (build / "CMakeCache.txt").exists():
        if not args.force_build:
            print(f"no build at {build}; run cmake there or pass "
                  "--force-build", file=sys.stderr)
            return 1
        run(["cmake", "-S", ".", "-B", str(build), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"])

    run(["cmake", "--build", str(build), "--target", "dcfb-golden"])
    run([str(build / "bin" / "dcfb-golden"), "tests/golden"])

    print_key_delta("tests/golden")
    changed = dirty_paths()
    if changed:
        print("\ncorpus changed; review and commit:")
        for line in changed:
            print("  " + line)
    else:
        print("\ncorpus unchanged: results are bit-identical.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
