"""Run one ferfuse benchmark workload and print its result.

    python3 bench/run.py --workload paper_width --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; ferfuse is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans recorded around calls into each module.
Scratch files and span dumps go to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_width", "ablate_grid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "ablate_grid":
        # Grid workers are threads; one BLAS thread each keeps
        # workers x BLAS threads within the core count. BLAS reads these
        # when numpy is first imported, below.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "ferfuse" / "__init__.py").is_file():
        print(f"error: no ferfuse sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    result = workloads.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
