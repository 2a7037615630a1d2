"""Print every end-to-end and per-layer metric of the benchmark by name.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload (default: those in BENCHMARK.json) it runs ``run.py`` once
with tracing off and once with tracing on, each in its own process, and
prints one line per metric with its unit.  It exits with 1 when a check
failed, a span was missing or a run did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; any workload run.py knows")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: run failed (exit {proc.returncode})\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            for name, metric in result["metrics"].items():
                print(f"{workload:16s} {name:40s} {metric['value']:<24.10g} {metric['unit']}")
            print(f"{workload:16s} {'fail_frac':40s} {info['fail_frac']:<24.10g} "
                  f"({result['failed']} of {result['attempted']})")
            if trace == 0:
                tail = info["latency_tail"]
                print(f"{workload:16s} {'latency_tail_s is':40s} p{tail['percentile']:.1f} "
                      f"of {tail['samples']} problems")
                print(f"{workload:16s} {'env':40s} {json.dumps(info['env'])}")
            for message in info["failures"]:
                print(f"{workload:16s} FAILED {message}")
            if info["missing_spans"]:
                print(f"{workload:16s} MISSING {', '.join(info['missing_spans'])}")
            ok = ok and result["correct"] and not info["missing_spans"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
