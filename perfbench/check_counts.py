#!/usr/bin/env python3
"""The benchmark's own test: its deterministic work counts repeat exactly.

    python3 perfbench/check_counts.py [--seed 7] [--seconds 2]

Runs the traced run of every workload twice with one seed and fails unless
every per-layer count (allocations, loop events, hwdb inserts, channel
messages, FlowMods, packet-ins, ...; units count, B and ratio) and the
recorded state and fingerprint digests are identical. Wall-clock figures
(units ns and %) are exempt. Exit code 0 on success.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("home-steady", "flow-churn", "fleet-live")
DETERMINISTIC_UNITS = ("count", "B", "ratio")


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload}: run failed ({out.returncode})\n{out.stdout[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace1.json")
    with open(path) as f:
        notes = json.load(f)["notes"]
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] in DETERMINISTIC_UNITS}
    digests = {k: v for k, v in notes.items() if k.endswith("digest")}
    return counts, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    failures = 0
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        for kind, a, b in (("count", first[0], second[0]),
                           ("digest", first[1], second[1])):
            differing = sorted(k for k in a if a[k] != b.get(k))
            if differing:
                failures += 1
                print(f"FAIL {workload}: {kind}s differ between runs: {differing}")
        print(f"{workload}: {len(first[0])} counts, digests {first[1]} "
              f"{'repeat' if first == second else 'DIFFER'}")
    print("PASS" if failures == 0 else "FAIL")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
