"""Benchmark of the elball pipeline: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload ppi-200 --seed 1 --seconds 20 --trace 0

Run from a source checkout: the library is imported from ``src/`` beside
this directory, and inputs, checkpoints and the trace go to
``.perfbench_out/<workload>/``. The run prints one line per output check
and per metric, then, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
It exits 0 once it has printed that line, and 2 when the sources are
missing.
``--small`` runs the same code paths at a size that takes seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ppi-200", "ppi-1000", "el-mixed")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "elball" / "__init__.py").is_file():
        print(f"perfbench: no elball sources at {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import pipeline

    out = ROOT / ".perfbench_out" / args.workload
    correct, attempted, failed, metrics, checks, unscaled = pipeline.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.small, out
    )
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    for name, value in unscaled.items():
        print(f"{name} = {value:.6g} s (not scaled)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
