#!/usr/bin/env python3
"""Regenerate the golden-result corpus under tests/golden/.

The corpus pins the simulator's RunResult for sixteen (workload, preset)
cells (see tests/golden_cells.h); tests/test_golden.cpp asserts that
re-simulating each cell reproduces its committed JSON byte for byte.

Regeneration is deliberately guarded: it REFUSES to run over a dirty
git tree, so new goldens can only ever appear in a commit whose diff
shows exactly which counters changed -- accepting new results is a
reviewed decision, never a side effect of a local build.

Usage:
  scripts/update_golden.py [--build-dir build/release] [--force-build]
"""

import argparse
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
