"""Benchmark entry point: run one coronawalk workload and print its metrics.

    python3 perfbench/run.py --workload corona_ladder --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines before
it (starting with "#") give the environment fingerprint, sample counts and
each metric with its unit. Spans and a copy of the result go to
.perfbench_out/. Exits non-zero, without a result line, when the library
cannot be imported or an input is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("corona_ladder", "pgst_scan", "pst_certify", "cli_figures")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        import coronawalk  # noqa: F401  (fails here, not mid-run, without the library)
        import harness
    except ImportError as exc:
        print(f"error: cannot import the benchmark or coronawalk: {exc}", file=sys.stderr)
        return 2
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
