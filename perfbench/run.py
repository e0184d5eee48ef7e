"""Benchmark of the eigenform-lab pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 30 --trace 0

Workloads: ``solve-large``, ``wide-boundary``, ``cli-corpus`` (see
``harness.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones; timings are gated in reference units (see
``reference.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The library
is imported from ``src/`` of the checkout; without it the run exits non-zero.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "eigenform_lab" / "__init__.py"
WORKLOADS = ("solve-large", "wide-boundary", "cli-corpus")
# One BLAS thread: the matrices have at most a few hundred rows, and a second
# spinning BLAS thread on a 2-vCPU host doubled CPU time without lowering wall
# time.  The library's own thread pool keeps its default.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main() -> None:
    args = parse_args()
    if not PACKAGE_INIT.is_file():
        sys.exit(f"error: {PACKAGE_INIT.relative_to(ROOT)} is missing; run from a full checkout")
    os.environ.update(BLAS_THREADS)  # before numpy loads; set-up children inherit it
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import eigenform_lab

    if Path(eigenform_lab.__file__).resolve() != PACKAGE_INIT:
        sys.exit(f"error: eigenform_lab was imported from {eigenform_lab.__file__}, not the checkout")
    import harness

    harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
