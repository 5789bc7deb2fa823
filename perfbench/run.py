#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the perfbench binary from source (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative
to the repository root), runs the self-test of the benchmark's own
measurement logic, then runs one workload. The binary's stdout is passed
through: its last line is the JSON result. Build output goes to stderr.
Journals, span traces and result records go to .perfbench/ at the root.

Exits non-zero without printing a result when the repository sources are
missing, the build fails or the self-test fails; exits non-zero after
printing a result with "correct": false when an output check fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build both targets; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not (ROOT / needed).exists():
            log(f"repository source {needed} not found next to perfbench/")
            return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    if not build(build_dir):
        return 3
    if subprocess.run([str(build_dir / "perfbench_selftest")]).returncode != 0:
        log("self-test of the measurement logic failed")
        return 4

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", str(ROOT / ".perfbench")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 5


if __name__ == "__main__":
    sys.exit(main())
