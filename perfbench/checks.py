"""Correctness checks applied to every problem after the timed region.

The checks read the program's artifacts with their own parsers, so a
corrupted file counts against the program instead of being read back by the
code that wrote it.  Each function returns a list of failure messages; an
empty list means the problem passed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Bound on both residuals r1 and r2.
RESIDUAL_MAX = 5e-14

#: Eigenvalues must match the reference within this multiple of |H|_2.
EIGEN_RTOL = 1e-12


@dataclass(frozen=True)
class Reference:
    """Dense LAPACK reference for one input, computed outside the timed
    region.  |H|_2 equals |Omega|_2 because H = diag(I, -I) Omega."""

    lam: np.ndarray          # eigenvalues of H, real parts, descending
    norm_h: float            # |H|_2
    tda: np.ndarray          # eigenvalues of A, descending
    norm_a: float            # |A|_2
    eigvals_s: float         # seconds numpy.linalg.eigvals(H) took


def reference(inp) -> Reference:
    h = inp.h()
    t0 = time.perf_counter()
    ev = np.linalg.eigvals(h)
    eigvals_s = time.perf_counter() - t0
    tda = np.linalg.eigvalsh(inp.a)[::-1]
    return Reference(lam=np.sort(ev.real)[::-1],
                     norm_h=float(np.max(np.abs(np.linalg.eigvalsh(inp.omega())))),
                     tda=tda, norm_a=float(np.max(np.abs(tda))),
                     eigvals_s=eigvals_s)


def read_column_csv(path: Path, header: str) -> list[list[str]]:
    """Rows of a comma-separated file whose first line must be ``header``."""
    rows = Path(path).read_text().splitlines()
    if not rows or rows[0] != header:
        raise ValueError(f"{Path(path).name}: expected header {header!r}")
    return [row.split(",") for row in rows[1:]]


def read_eigenvalues(path: Path) -> np.ndarray:
    return np.array([float(row[0]) for row in read_column_csv(path, "lambda")])


def residuals(r1: float, r2: float) -> list[str]:
    bad = [f"{name}={value:.3e} exceeds {RESIDUAL_MAX:g}"
           for name, value in (("r1", r1), ("r2", r2))
           if not value <= RESIDUAL_MAX]
    return bad


def close_to(values: np.ndarray, ref: np.ndarray, scale: float, label: str) -> list[str]:
    """Sorted ``values`` within EIGEN_RTOL * scale of the sorted reference."""
    if values.shape != ref.shape:
        return [f"{label}: {values.size} values, expected {ref.size}"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite value"]
    dev = float(np.max(np.abs(np.sort(values)[::-1] - ref))) if ref.size else 0.0
    if not dev <= EIGEN_RTOL * scale:
        return [f"{label}: deviation {dev:.3e} from the reference exceeds "
                f"{EIGEN_RTOL:g} * {scale:.3e}"]
    return []


def spectrum(lam: np.ndarray, ref: Reference, label: str = "eigenvalues") -> list[str]:
    """Full 2n spectrum: close to the reference, and exactly +/- paired."""
    bad = close_to(lam, ref.lam, ref.norm_h, label)
    desc = np.sort(lam)[::-1]
    if not np.array_equal(desc, -desc[::-1]):
        bad.append(f"{label}: the +/- pairing is not exact")
    return bad


def solve_artifacts(out: Path, ref: Reference, vectors: bool) -> tuple[list[str], dict]:
    """Artifacts of ``bse solve`` or ``bse solve-real``; ``vectors`` when it
    ran with --emit-vectors."""
    metrics = json.loads((out / "metrics.json").read_text())
    bad = residuals(metrics["r1"], metrics["r2"])
    bad += spectrum(read_eigenvalues(out / "eigenvalues.csv"), ref)
    if vectors:
        bad += [f"{name} missing" for name in ("vectors_x1.mtx", "vectors_x2.mtx")
                if not (out / name).is_file()]
    return bad, {"r1": metrics["r1"], "r2": metrics["r2"]}


def compare_artifacts(out: Path, ref: Reference) -> tuple[list[str], dict]:
    """Artifacts of ``bse compare``: solver and oracle spectra against the
    reference, and the Tamm-Dancoff gaps certified as tda_gap_report does."""
    header = "index,lambda_solve,lambda_oracle,lambda_tda,tda_gap"
    rows = read_column_csv(out / "comparison.csv", header)
    n = ref.tda.size
    if len(rows) != 2 * n or any(len(row) != 5 for row in rows):
        return [f"comparison.csv: malformed, {len(rows)} rows"], {}
    solve = np.array([float(row[1]) for row in rows])
    oracle = np.array([float(row[2]) for row in rows])
    tda = np.array([float(row[3]) for row in rows[:n]])
    gaps = np.array([float(row[4]) for row in rows[:n]])
    bad = spectrum(solve, ref, "lambda_solve")
    bad += close_to(oracle, ref.lam, ref.norm_h, "lambda_oracle")
    bad += close_to(tda, ref.tda, ref.norm_a, "lambda_tda")
    floor = -EIGEN_RTOL * ref.norm_a
    if not float(np.min(gaps)) >= floor:
        bad.append(f"TDA gaps not certified: min gap {np.min(gaps):.3e} < {floor:.3e}")
    summary = json.loads((out / "summary.json").read_text())
    if summary["tda_dominance"] is not True:
        bad.append("TDA dominance not reported")
    return bad, {"oracle_pairing_defect": summary["oracle_pairing_defect"]}


def tda_artifacts(out: Path, ref: Reference) -> tuple[list[str], dict]:
    """Artifacts of ``bse tda --emit-vectors``: eigenvalues of A against the
    reference.  Its residual |A V - V Lambda|_F / |A|_F is reported, not
    gated: no bound for it is stated at this size."""
    metrics = json.loads((out / "metrics.json").read_text())
    bad = close_to(read_eigenvalues(out / "eigenvalues.csv"), ref.tda, ref.norm_a,
                   "tda eigenvalues")
    if not (out / "vectors.mtx").is_file():
        bad.append("tda vectors.mtx missing")
    return bad, {"tda_residual": metrics["residual"]}
