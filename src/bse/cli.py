"""Command-line entry point.

Subcommands: check, solve, solve-real, tda, oracle, compare, spectrum, gen.
Every file is read and written by ``bse.mmio``.  Numeric artifacts
(eigenvalue CSVs, Matrix Market files, spectrum CSVs) are byte-identical
across runs for identical inputs; metrics files additionally carry wall-clock
time, which is the one non-deterministic field.

Exit codes: 0 success, 2 I/O failure (including a malformed or non-finite
input file, named on stderr), 3 validation failure, 4 solver failure.
The solving commands take the definiteness verdict from the solver's own
Cholesky factorization, so a failed hypothesis exits 3 naming the pivot;
``check`` is the command that reports the pivot margin.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import _frob, random_bse, residual_metrics, validate
from .embeddings import expand_full
from .kernels import ConvergenceError, NotPositiveDefinite, hermitian_eig
from .mmio import (FormatError, load_dipoles, load_operator, read_eigenvalues,
                   read_matrix, write_eigenvalues, write_json, write_matrix,
                   write_operator, write_spectrum, write_table)
from .solvers import TdaGapReport, solve_complex, solve_oracle, solve_real
from .spectra import DEFAULT_SIGMA, DipoleData, absorption_spectrum, spectral_density

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

#: Environment variable holding the default output directory.
OUTPUT_DIR_ENV = "BSE_OUTPUT_DIR"


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args: argparse.Namespace, force_kind: str | None = None):
    if not args.a_path or not args.b_path:
        raise FormatError("this command needs both --a and --b")
    kind = force_kind if force_kind is not None else args.kind
    return load_operator(args.a_path, args.b_path, kind=kind,
                         symmetrize=args.symmetrize)


def _descending_full(lam_plus: np.ndarray) -> np.ndarray:
    return np.concatenate([lam_plus, -lam_plus[::-1]])


def _cmd_check(args: argparse.Namespace) -> int:
    op = _load(args)
    rep = validate(op)
    print(f"n                = {op.n}")
    print(f"kind             = {op.kind}")
    print(f"symmetry_ok      = {rep.symmetry_ok}")
    print(f"  defect(A)      = {rep.sym_defects[0]:.3e}")
    print(f"  defect(B)      = {rep.sym_defects[1]:.3e}")
    print(f"definiteness_ok  = {rep.definiteness_ok}")
    print(f"  pivot margin   = {rep.margin:.6e}")
    if not rep.ok:
        print("validation failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    real = args.command == "solve-real"
    op = _load(args, force_kind="real" if real else None)
    t0 = time.perf_counter()
    pos = solve_real(op) if real else solve_complex(op)
    wall = time.perf_counter() - t0
    out = _outdir(args)
    full = expand_full(op, pos)
    r1, r2 = residual_metrics(op, full)
    write_eigenvalues(out / "eigenvalues.csv", _descending_full(pos.lambda_plus))
    if args.emit_vectors:
        if args.which_eigenvectors == "full":
            write_matrix(out / "vectors_x.mtx", full.x)
            write_matrix(out / "vectors_y.mtx", full.y)
        else:
            write_matrix(out / "vectors_x1.mtx", pos.x1)
            write_matrix(out / "vectors_x2.mtx", pos.x2)
    write_json(out / "metrics.json", {
        "command": args.command,
        "n": op.n,
        "kind": op.kind,
        "r1": r1,
        "r2": r2,
        "wall_time_seconds": wall,
        "warnings": list(pos.warnings),
    })
    print(f"n={op.n} r1={r1:.3e} r2={r2:.3e} wall={wall:.3f}s -> {out}")
    return EXIT_OK


def _cmd_tda(args: argparse.Namespace) -> int:
    a, _, _ = read_matrix(args.a_path)
    t0 = time.perf_counter()
    values, vectors = hermitian_eig(a)
    wall = time.perf_counter() - t0
    out = _outdir(args)
    a_norm = _frob(a)
    residual = _frob(a @ vectors - vectors * values) / a_norm if a_norm else 0.0
    write_eigenvalues(out / "eigenvalues.csv", values)
    if args.emit_vectors:
        write_matrix(out / "vectors.mtx", vectors)
    write_json(out / "metrics.json", {
        "command": "tda",
        "n": int(a.shape[0]),
        "residual": residual,
        "wall_time_seconds": wall,
        "warnings": [],
    })
    print(f"n={a.shape[0]} residual={residual:.3e} wall={wall:.3f}s -> {out}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    op = _load(args)
    t0 = time.perf_counter()
    values = solve_oracle(op)
    wall = time.perf_counter() - t0
    out = _outdir(args)
    defect = float(np.max(np.abs(values + values[::-1])))
    write_eigenvalues(out / "eigenvalues.csv", values)
    write_json(out / "metrics.json", {
        "command": "oracle",
        "n": op.n,
        "pairing_defect": defect,
        "wall_time_seconds": wall,
        "warnings": [],
    })
    print(f"n={op.n} pairing_defect={defect:.3e} wall={wall:.3f}s -> {out}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    op = _load(args)
    pos = solve_complex(op)
    oracle_vals = solve_oracle(op)
    tda_vals, _ = hermitian_eig(op.a, vectors=False)
    out = _outdir(args)

    full_desc = _descending_full(pos.lambda_plus)
    deviation = float(np.max(np.abs(full_desc - oracle_vals)))
    pairing_defect = float(np.max(np.abs(oracle_vals + oracle_vals[::-1])))
    report = TdaGapReport.from_spectra(pos.lambda_plus, tda_vals)

    write_table(out / "comparison.csv",
                ("index", "lambda_solve", "lambda_oracle", "lambda_tda", "tda_gap"),
                np.arange(2 * op.n), full_desc, oracle_vals, tda_vals, report.gaps)

    write_json(out / "summary.json", {
        "command": "compare",
        "n": op.n,
        "max_abs_deviation_solve_vs_oracle": deviation,
        "oracle_pairing_defect": pairing_defect,
        "tda_min_gap": report.min_gap,
        "tda_max_relative_gap": report.max_relative_gap,
        "tda_dominance": report.certified,
        "warnings": list(pos.warnings),
    })
    print(f"n={op.n} max_dev={deviation:.3e} tda_min_gap={report.min_gap:.3e} "
          f"dominance={report.certified} -> {out}")
    return EXIT_OK


def _parse_grid(text: str) -> np.ndarray:
    """``lo:hi:count`` as count points; finite bounds, count >= 1 and, for
    more than one point, lo < hi."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as err:
        raise FormatError(f"bad grid {text!r}; expected lo:hi:count") from err
    if count < 1 or not np.isfinite([lo, hi]).all() or (count > 1 and lo >= hi):
        raise FormatError(f"bad grid {text!r}; needs finite lo < hi and count >= 1")
    return np.linspace(lo, hi, count)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else None
    if args.eigenvalues_path and args.dipoles_path:
        raise FormatError("absorption needs eigenvectors: give --a/--b, "
                          "not a precomputed eigenvalue file")
    dipoles = (DipoleData(*load_dipoles(args.dipoles_path))
               if args.dipoles_path else None)
    pos = None
    if args.eigenvalues_path:
        lam = read_eigenvalues(args.eigenvalues_path)
    else:
        pos = solve_complex(_load(args))
        lam = _descending_full(pos.lambda_plus)
    out = _outdir(args)
    dos = spectral_density(lam, grid=grid, sigma=args.sigma)
    write_spectrum(out / "dos.csv", dos.omegas, dos.values)
    print(f"wrote {out / 'dos.csv'} ({dos.omegas.size} points, sigma={dos.sigma:g})")
    if dipoles is not None:
        absorb = absorption_spectrum(pos, dipoles, grid=grid, sigma=args.sigma)
        write_spectrum(out / "absorption.csv", absorb.omegas, absorb.values)
        print(f"wrote {out / 'absorption.csv'} "
              f"(normalization defect {absorb.normalization_defect:.3e})")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError("gen needs --n >= 1")
    op = random_bse(args.n, args.seed, margin=args.margin, kind=args.kind)
    out = _outdir(args)
    write_operator(out / "A.mtx", out / "B.mtx", op)
    print(f"wrote {out / 'A.mtx'} and {out / 'B.mtx'} "
          f"(n={args.n}, seed={args.seed}, kind={op.kind})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bse",
        description="Structure-preserving dense eigensolvers for "
                    "Bethe-Salpeter eigenvalue problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, blurb, inputs=True):
        p = sub.add_parser(name, help=blurb)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=os.environ.get(OUTPUT_DIR_ENV, "."),
                       help="output directory (default: $BSE_OUTPUT_DIR or cwd)")
        if inputs:
            p.add_argument("--a", dest="a_path", help="Matrix Market file for A")
            p.add_argument("--b", dest="b_path", help="Matrix Market file for B")
            p.add_argument("--kind", choices=["real", "complex"],
                           help="expected operator kind (verified against file headers)")
            p.add_argument("--symmetrize", action="store_true",
                           help="average away symmetry defects instead of rejecting")
        return p

    add_command("check", _cmd_check, "validate symmetry and definiteness")

    for name, blurb in (("solve", "structure-preserving complex solver"),
                        ("solve-real", "product-SVD solver for real problems")):
        p = add_command(name, _cmd_solve, blurb)
        p.add_argument("--emit-vectors", action="store_true")
        p.add_argument("--which-eigenvectors", choices=["positive", "full"],
                       default="positive")

    p = add_command("tda", _cmd_tda, "Tamm-Dancoff approximation: diagonalize A alone",
                    inputs=False)
    p.add_argument("--a", dest="a_path", required=True)
    p.add_argument("--emit-vectors", action="store_true")

    add_command("oracle", _cmd_oracle, "non-structure-preserving cross-check solver")
    add_command("compare", _cmd_compare, "solve + oracle + tda on the same input")

    p = add_command("spectrum", _cmd_spectrum, "broadened density of states / absorption")
    p.add_argument("--eigenvalues", dest="eigenvalues_path",
                   help="precomputed eigenvalue CSV (skips solving)")
    p.add_argument("--dipoles", dest="dipoles_path",
                   help="2n x 2 complex Matrix Market array of (d_r, d_l)")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--grid", help="lo:hi:count (write --grid=-5:5:2001 for a "
                                  "negative lower bound)")

    p = add_command("gen", _cmd_gen, "generate a reproducible random problem", inputs=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--kind", choices=["real", "complex"], default="complex")

    return parser


def main(argv=None) -> int:
    """Run one command, writing its artifacts under ``--out``; returns the
    exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, FormatError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except (NotPositiveDefinite, ValueError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
