"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-512 --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports ``bse`` from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit, the
environment, the input-property shares and any failed check.  Work files go
to ``.perfbench_work/<workload>/`` and are removed at the end, except the
spans of a traced run and ``result.json``.

The BLAS thread count is pinned, before numpy is imported, to the number of
usable cores capped at 2: outputs are byte-identical only at a fixed thread
count, and timings depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> tuple[int, int]:
    """Set the BLAS thread count; returns (threads, usable cores)."""
    if "numpy" in sys.modules:
        raise RuntimeError("the BLAS thread count must be pinned before numpy loads")
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, MAX_BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads, nproc


def environment(threads: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": threads, "nproc": nproc, "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "python": platform.python_version()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bse" / "__init__.py").is_file():
        print(f"error: no bse sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    threads, nproc = pin_blas_threads()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bse
    import harness
    import_s = time.perf_counter() - t0
    if Path(bse.__file__).resolve().parent != SRC / "bse":
        print(f"error: bse was imported from {bse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(threads, nproc)
    workdir = ROOT / ".perfbench_work" / args.workload
    result = harness.measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), workdir, import_s)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, **result.info}
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_frac = {info['fail_frac']!r} ({result.failed} of {result.attempted})")
    tail = info["latency_tail"]
    print(f"latency tail: p{tail['percentile']:.1f} of {tail['samples']} problems")
    for message in info["failures"]:
        print(f"FAILED {message}")
    if info["missing_spans"]:
        print(f"MISSING spans: {', '.join(info['missing_spans'])}")
    print(json.dumps(info))
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps({**summary, "info": info}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
