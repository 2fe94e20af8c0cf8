"""ttriem benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload operator_r5 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it record the environment,
sample counts and tail percentiles.  The exit code is 0 only when every
operation passed its correctness check.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("operator_r20", "operator_r5", "completion")

# One BLAS thread: each call is a chain of small contractions where BLAS
# threading adds more noise than speed, and it leaves the second core of a
# two-core machine to the rest of the system.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_library(root):
    """Import ttriem from ``root/src``; exit with an error if it is not there."""
    src = root / "src"
    if not (src / "ttriem" / "__init__.py").is_file():
        sys.exit(f"error: no ttriem sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import ttriem

    if Path(ttriem.__file__).resolve().parent != (src / "ttriem").resolve():
        sys.exit(f"error: imported ttriem from {ttriem.__file__}, not from {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes: every operation runs in milliseconds")
    p.add_argument("--setup-only", action="store_true",
                   help="make one cold set-up and print its probe-relative seconds "
                        "(the set-up measurement runs this in fresh processes)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    import_library(ROOT)
    import harness

    if args.setup_only:
        print(harness.cold_setup(args, harness.SpeedProbe())[0])
        return 0
    result, lines = harness.run(args)
    for tag, payload in lines:
        print(tag, payload if isinstance(payload, str) else json.dumps(payload))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
