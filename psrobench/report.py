"""Run every workload, each in a fresh process, and print all metrics by
name with their units, plus each workload's operation counts, solution
quality and output hashes.

Run from the repository root:

    python3 psrobench/report.py --seed 0 --seconds 30            # end to end
    python3 psrobench/report.py --seed 0 --seconds 30 --trace 1  # per layer

Exits non-zero if any workload reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(name: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=os.path.dirname(HERE),
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    all_correct = True
    for name in workloads.WORKLOADS:
        details, result = run_workload(name, args.seed, args.seconds,
                                       args.trace)
        all_correct &= result["correct"]
        print(f"== {name}  seed {args.seed}  reps {details['reps']}  "
              f"ops {details['ops']}  ops_failed {details['ops_failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:42s} {entry['value']:>16.6g} {entry['unit']}")
        wall = statistics.median(details["rep_seconds"])
        print(f"   {'run_s, wall time, not scaled':42s} {wall:>16.6g} s")
        for key in ("exploitability_final", "meta_gap_max"):
            if details[key] is not None:
                print(f"   {key:42s} {details[key]:>16.6g} utility")
        for key, digest in details["hashes"].items():
            print(f"   sha256 {key:35s} {digest}")
        for problem in details["problems"]:
            print(f"   FAILED {problem}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
