"""Benchmark command: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload knord-mti --seed 1 --seconds 10 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it starting with ``#`` carry the run's metadata. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("knord-mti", "knors-lloyd", "serve-mixed")

#: BLAS/OpenMP pool size, fixed so runs do not depend on how many
#: cores the host happens to offer (never more than it has).
THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> int:
    """Fix the thread pools; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    n = min(THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def metadata(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import measure
    from perfbench.workloads import build

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    try:
        print("# meta " + json.dumps(metadata(threads)), flush=True)
        result = measure(
            build(args.workload), args.seed, args.seconds,
            bool(args.trace), workdir, spans if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        print(f"# spans {spans.relative_to(ROOT)}")
    print(f"# error_rate {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
