#!/usr/bin/env python3
"""Builds the host-cost benchmark from source and runs one workload.

    python3 perfbench/run.py --workload queue_deep --seed 1 --seconds 55 --trace 0

Run from the repository root. The build goes to .bench_build/ (CMake,
RelWithDebInfo); build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, without a result, when the
simulator's sources are missing or the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler scratch files stay inside the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit():
    # Git must not look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build()
    cmd = [str(BUILD / "perfbench"), *sys.argv[1:],
           "--spec-dir", str(HERE / "specs"), "--commit", commit()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
