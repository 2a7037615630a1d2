"""The four workloads: what one problem runs, and how its output is checked.

Every workload drives ``bse`` through public entry points only: the command
line in-process through ``bse.cli.main``, or the package's public functions.
Calls go through the module attribute at call time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bse
import bse.cli

import checks
from inputs import PROPERTIES, Input


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    #: (n, input property) of each input in one cycle; every input is
    #: solved twice in a row, so byte-identity can be checked.
    slots: tuple[tuple[int, str], ...]
    #: Whether the program receives its inputs as Matrix Market files.
    files: bool
    #: Runs one problem (timed).  Returns a record for ``check``.
    run: Callable[[Input, Path], dict]
    #: Checks a record (untimed).  Returns (failures, accuracy figures).
    check: Callable[[dict, checks.Reference], tuple[list[str], dict]]
    #: The bytes that must be identical across solves of one input.
    identity: Callable[[dict], bytes]


def _cli(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return bse.cli.main(argv)


# -- bse solve / bse solve-real --------------------------------------------

def _run_solve(command: str, *flags: str):
    def run(inp: Input, out: Path) -> dict:
        rc = _cli([command, "--a", str(inp.a_path), "--b", str(inp.b_path),
                   "--out", str(out), *flags])
        return {"rc": [rc], "out": out, "vectors": "--emit-vectors" in flags}
    return run


def _check_solve(rec: dict, ref: checks.Reference):
    return checks.solve_artifacts(rec["out"], ref, rec["vectors"])


def _identity_solve(rec: dict) -> bytes:
    return (rec["out"] / "eigenvalues.csv").read_bytes()


# -- bse compare + bse tda ---------------------------------------------------

def _run_compare_tda(inp: Input, out: Path) -> dict:
    rc = [_cli(["compare", "--a", str(inp.a_path), "--b", str(inp.b_path),
                "--out", str(out / "compare")]),
          _cli(["tda", "--a", str(inp.a_path), "--out", str(out / "tda"),
                "--emit-vectors"])]
    return {"rc": rc, "out": out}


def _check_compare_tda(rec: dict, ref: checks.Reference):
    bad, figures = checks.compare_artifacts(rec["out"] / "compare", ref)
    tda_bad, tda_figures = checks.tda_artifacts(rec["out"] / "tda", ref)
    return bad + tda_bad, {**figures, **tda_figures}


def _identity_compare_tda(rec: dict) -> bytes:
    return ((rec["out"] / "compare" / "comparison.csv").read_bytes()
            + (rec["out"] / "tda" / "eigenvalues.csv").read_bytes())


# -- library calls -----------------------------------------------------------

def _run_library(inp: Input, out: Path) -> dict:
    op = inp.op
    report = bse.validate(op)
    if not report.ok:
        return {"rc": [3]}
    pos = bse.solve_complex(op)
    full = bse.expand_full(op, pos)
    r1, r2 = bse.residual_metrics(op, full)
    return {"rc": [0], "lam": np.array(full.lam), "r1": r1, "r2": r2}


def _check_library(rec: dict, ref: checks.Reference):
    bad = checks.residuals(rec["r1"], rec["r2"]) + checks.spectrum(rec["lam"], ref)
    return bad, {"r1": rec["r1"], "r2": rec["r2"]}


def _identity_library(rec: dict) -> bytes:
    return rec["lam"].tobytes()


# BENCHMARK.json gates solve-512 and compare-tda-256 only.  The two
# Python-loop-bound workloads swung by 30-45 % with the load of a shared host,
# so they are run by name, not gated.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="solve-512",
        why="bse solve --emit-vectors on complex n=512 files: the headline size, "
            "dominated by skew Householder reduction and the two apply_q calls",
        kind="complex", slots=((512, "generic"),), files=True,
        run=_run_solve("solve", "--emit-vectors"), check=_check_solve,
        identity=_identity_solve),
    Workload(
        name="batch-small",
        why="library validate, solve_complex, expand_full, residual_metrics on "
            "n=32..128 with all four input properties: Python-loop bisection "
            "and inverse iteration dominate, Householder work is small",
        kind="complex",
        # n=96 appears twice so that the median falls inside one size class
        # instead of on the boundary between two, where it would jump.
        slots=tuple((n, prop) for prop in PROPERTIES for n in (32, 64, 96, 96, 128)),
        files=False, run=_run_library, check=_check_library,
        identity=_identity_library),
    Workload(
        name="compare-tda-256",
        why="bse compare plus bse tda --emit-vectors on complex n=256: symmetric "
            "reduction of the doubled oracle, values-only bisection, Hermitian "
            "inverse iteration",
        kind="complex", slots=((256, "generic"),), files=True,
        run=_run_compare_tda, check=_check_compare_tda,
        identity=_identity_compare_tda),
    Workload(
        name="real-128",
        why="bse solve-real on real n=128 files: the one-sided Jacobi SVD takes "
            "most of the time",
        kind="real", slots=((128, "generic"),), files=True,
        run=_run_solve("solve-real"), check=_check_solve,
        identity=_identity_solve),
)}
