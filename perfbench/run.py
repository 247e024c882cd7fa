#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload home-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. The first run configures and builds the
router libraries and the benchmark binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. The binary prints a report and, as its last line,
the result object; results files and span dumps go to .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("home-steady", "flow-churn", "fleet-live")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no router sources next to perfbench/ (expected src/CMakeLists.txt)")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; never let git
    # search parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ,
                                      GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run(binary, workload, seed, seconds, trace, sha):
    """Runs the binary once; returns its exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace,
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--git-sha", sha]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload untraced, then traced")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", choices=("0", "1"),
                    help="required unless --workload all")
    args = ap.parse_args()
    if args.workload != "all" and args.trace is None:
        ap.error("--trace is required for a single workload")

    binary = build()
    if binary is None:
        return 1
    sha = git_sha()
    if args.workload != "all":
        return run(binary, args.workload, args.seed, args.seconds, args.trace, sha)
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            status = max(status, run(binary, workload, args.seed, args.seconds,
                                     trace, sha))
    return status


if __name__ == "__main__":
    sys.exit(main())
