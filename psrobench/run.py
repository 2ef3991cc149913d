"""PSRO loop benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 psrobench/run.py --workload exact_leduc --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the run's details: output hashes, solution quality,
every failed check and the machine it ran on. See psrobench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread: every run is a single closed loop over small matrices,
# where extra threads add contention noise rather than speed.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget; at least one repetition")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gamepop", "__init__.py")):
        print(f"psrobench: no gamepop sources under {src}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:  # before numpy is first imported
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import bench

    details, result = bench.measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
