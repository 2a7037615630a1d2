"""End-to-end CLI tests: exit codes, artifact layout, and byte-level
determinism of the numeric outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bse
from bse.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from bse.core import make_operator, random_bse, residual_warnings
from bse.mmio import (load_operator, read_eigenvalues, read_matrix, read_spectrum,
                      write_matrix, write_operator)
from bse.solvers import solve_complex, tda_gap_report
from bse.spectra import spectral_density

from matrices import (graded_real_operator, near_indefinite_operator, random_hermitian,
                      traced_peak)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def problem(tmp_path):
    out = tmp_path / "prob"
    assert run_cli("gen", "--n", 12, "--seed", 7, "--out", out) == EXIT_OK
    return out


def test_gen_then_check(problem, capsys):
    assert run_cli("check", "--a", problem / "A.mtx", "--b", problem / "B.mtx") == EXIT_OK
    # The defects are top-level lines, not sub-lines of kind.
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in lines] == [
        "n                ", "kind             ", "defect(A)        ", "defect(B)        ",
        "definiteness_ok  ", "  pivot margin   "]


def test_gen_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    run_cli("gen", "--n", 6, "--seed", 3, "--out", out1)
    run_cli("gen", "--n", 6, "--seed", 3, "--out", out2)
    assert (out1 / "A.mtx").read_bytes() == (out2 / "A.mtx").read_bytes()
    assert (out1 / "B.mtx").read_bytes() == (out2 / "B.mtx").read_bytes()


def test_solve_artifacts_and_determinism(problem, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        code = run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                       "--out", out, "--emit-vectors")
        assert code == EXIT_OK
    lam = read_eigenvalues(out1 / "eigenvalues.csv")
    assert lam.shape == (24,)
    assert np.all(np.diff(lam) <= 0)
    metrics = json.loads((out1 / "metrics.json").read_text())
    assert metrics["r1"] <= 5e-14 and metrics["r2"] <= 5e-14
    assert "wall_time_seconds" in metrics
    # Numeric artifacts are byte-identical run to run.
    assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()
    assert (out1 / "vectors_x1.mtx").read_bytes() == (out2 / "vectors_x1.mtx").read_bytes()
    # Metrics agree except for the wall clock.
    m2 = json.loads((out2 / "metrics.json").read_text())
    for key in metrics:
        if key != "wall_time_seconds":
            assert metrics[key] == m2[key]


def test_solve_bytes_identical_across_processes(problem, tmp_path):
    # Two fresh interpreters at one BLAS thread write the same bytes.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(bse.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    real = tmp_path / "real"
    assert run_cli("gen", "--n", 10, "--seed", 2, "--kind", "real", "--out", real) == EXIT_OK
    for command, prob in (("solve", problem), ("solve-real", real)):
        outs = [tmp_path / f"{command}1", tmp_path / f"{command}2"]
        for out in outs:
            subprocess.run([sys.executable, "-m", "bse.cli", command, "--a", prob / "A.mtx",
                            "--b", prob / "B.mtx", "--out", out, "--emit-vectors"],
                           env=env, check=True, capture_output=True)
        for name in ("eigenvalues.csv", "vectors_x1.mtx", "vectors_x2.mtx"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solve_full_vectors(problem, tmp_path):
    out = tmp_path / "sf"
    assert run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out, "--emit-vectors", "--which-eigenvectors", "full") == EXIT_OK
    x, _, _ = read_matrix(out / "vectors_x.mtx")
    y, _, _ = read_matrix(out / "vectors_y.mtx")
    assert x.shape == (24, 24)
    assert np.linalg.norm(y.conj().T @ x - np.eye(24)) <= 1e-12 * 24


@pytest.mark.parametrize("which, expansions", [("positive", 0), ("full", 1)])
def test_solve_expands_only_for_full_vectors(which, expansions, problem, tmp_path,
                                             monkeypatch):
    # The residuals come from X1 and X2; the 2n x 2n X and Y are built only
    # to be written.
    import bse.cli as cli

    calls = []

    def spy(op, pos):
        calls.append(pos.n)
        return bse.expand_full(op, pos)

    monkeypatch.setattr(cli, "expand_full", spy)
    assert run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", tmp_path / "s", "--emit-vectors",
                   "--which-eigenvectors", which) == EXIT_OK
    assert calls == [12] * expansions


@pytest.mark.parametrize("command, bound", [
    (("solve", "--emit-vectors"), 13.5), (("oracle",), 13.3), (("compare",), 13.3),
    (("tda", "--emit-vectors"), 6.8), (("check",), 7.9)],
    ids=["solve", "oracle", "compare", "tda", "check"])
def test_working_set(command, bound, tmp_path):
    # Peaks in n x n complex arrays (n^2 * 16 B), about 15 % above those
    # measured.  A and B are two; `check` adds M and L (two each); `oracle`
    # holds Omega and its factor L (four each), then K and its one working
    # copy; `solve` holds L, the reflectors and the vectors.
    n = 256
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", random_bse(n, 1))
    args = [command[0], "--a", tmp_path / "A.mtx"]
    if command[0] != "tda":
        args += ["--b", tmp_path / "B.mtx"]
    if command[0] != "check":
        args += ["--out", tmp_path / "out"]
    code, peak = traced_peak(run_cli, *args, *command[1:])
    assert code == EXIT_OK
    assert peak <= bound * n * n * 16


def test_check_indefinite_exits_3(tmp_path, capsys):
    write_matrix(tmp_path / "A.mtx", np.array([[1.0]]), symmetry="symmetric")
    write_matrix(tmp_path / "B.mtx", np.array([[2.0]]), symmetry="symmetric")
    assert run_cli("check", "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx") == EXIT_VALIDATION
    printed = capsys.readouterr().out
    assert "definiteness_ok  = False" in printed
    assert "pivot margin" in printed


@pytest.mark.parametrize("command", ["solve", "solve-real", "oracle", "compare", "spectrum"])
def test_solve_indefinite_exits_3(command, tmp_path, capsys):
    # The solver's own Cholesky factorization is the definiteness probe.
    write_matrix(tmp_path / "A.mtx", np.array([[1.0]]), symmetry="symmetric")
    write_matrix(tmp_path / "B.mtx", np.array([[2.0]]), symmetry="symmetric")
    out = tmp_path / "out"
    assert run_cli(command, "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
                   "--out", out) == EXIT_VALIDATION
    assert re.search(r"not positive definite: pivot \S+ at index \d+",
                     capsys.readouterr().err)
    for name in ("eigenvalues.csv", "comparison.csv", "dos.csv"):
        assert not (out / name).exists()


def _cli_eigenvalues(command, a_path, b_path, out, monkeypatch):
    """Exit code of ``command`` on (a_path, b_path) and the eigenvalues it
    computed: the spectrum of H, plus the oracle's for ``compare``."""
    if command == "spectrum":
        import bse.cli
        seen = []

        def spy(lam, **kwargs):
            seen.append(lam)
            return spectral_density(lam, **kwargs)

        monkeypatch.setattr(bse.cli, "spectral_density", spy)
    code = run_cli(command, "--a", a_path, "--b", b_path, "--out", out)
    if command == "spectrum":
        return code, seen[0]
    if command == "compare":
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        return code, np.array([row.split(",")[1:3] for row in rows], dtype=float)
    return code, read_eigenvalues(out / "eigenvalues.csv")


@pytest.mark.parametrize("command", ["solve", "solve-real", "compare", "spectrum", "oracle"])
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300])
def test_solvers_accurate_at_extreme_scales(scale, command, tmp_path, monkeypatch):
    # The kernels normalize their own input by a power of two, so no solver
    # overflows or underflows across the range of doubles.
    op = random_bse(12, 0, kind="real" if command == "solve-real" else "complex")
    values = []
    for s in (1.0, scale):
        a_path, b_path = tmp_path / f"A{s}.mtx", tmp_path / f"B{s}.mtx"
        write_operator(a_path, b_path, make_operator(op.a * s, op.b * s))
        code, lam = _cli_eigenvalues(command, a_path, b_path, tmp_path / f"out{s}",
                                     monkeypatch)
        assert code == EXIT_OK
        values.append(lam)
    expected = scale * values[0]
    assert np.all(np.abs(values[1] - expected) <= 1e-12 * np.abs(expected))


def test_solver_fault_exits_4(problem, tmp_path, monkeypatch, capsys):
    # A solver fault is neither a result nor a validation error: inverse
    # iteration that never grows exhausts its retries.
    import bse.kernels as kernels
    monkeypatch.setattr(kernels, "_solve_shifted", lambda fact, rhs: np.zeros_like(rhs))
    out = tmp_path / "out"
    assert run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out) == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err
    assert not (out / "eigenvalues.csv").exists()


@pytest.mark.parametrize("command", ["solve", "oracle", "compare"])
def test_near_indefinite_operator_at_large_scale(command, tmp_path):
    # lambda_max ~ s sqrt(delta) is far below ||M|| ~ s (see
    # near_indefinite_operator).  The rounding of W = L^T J L, and of the
    # oracle's K = L^H diag(I, -I) L, then exceeds the structure tolerance
    # unless the solvers make W exactly skew and K exactly Hermitian.
    s = 1e6
    op = near_indefinite_operator(12, s)
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", op)
    out = tmp_path / "out"
    assert run_cli(command, "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
                   "--out", out) == EXIT_OK
    if command == "compare":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tda_dominance"] is True
        assert summary["max_abs_deviation_solve_vs_oracle"] <= 1e-10 * s


def test_tda_non_hermitian_exits_3(tmp_path, capsys):
    # General storage keeps the asymmetry; no output directory is created.
    write_matrix(tmp_path / "A.mtx", np.array([[1.0, 2.0], [0.0, 1.0]]))
    out = tmp_path / "out"
    assert run_cli("tda", "--a", tmp_path / "A.mtx", "--out", out) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_tda_bad_size_line_exits_2(tmp_path, capsys):
    bad = tmp_path / "A.mtx"
    bad.write_text("%%MatrixMarket matrix array real symmetric\n-1 2\n1.0\n")
    out = tmp_path / "out"
    assert run_cli("tda", "--a", bad, "--out", out) == EXIT_IO
    assert f"I/O error: {bad}: bad size line" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_non_finite_eigenvalue_exits_2(tmp_path, capsys):
    ev = tmp_path / "eigenvalues.csv"
    ev.write_text("lambda\n1.0\nnan\n-1.0\n")
    out = tmp_path / "out"
    for grid in ([], ["--grid=-2:2:9"]):
        assert run_cli("spectrum", "--eigenvalues", ev, *grid, "--out", out) == EXIT_IO
        assert f"I/O error: {ev}: non-finite entries" in capsys.readouterr().err
        assert not (out / "dos.csv").exists()


@pytest.mark.parametrize("grid", ["0:1:0", "0:1:-3", "0:inf:5", "nan:1:5",
                                  "1:0:5", "1:1:3", "0:1", "a:1:5"])
def test_spectrum_bad_grid_exits_2(tmp_path, capsys, grid):
    ev = tmp_path / "eigenvalues.csv"
    ev.write_text("lambda\n1.0\n-1.0\n")
    out = tmp_path / "out"
    assert run_cli("spectrum", "--eigenvalues", ev, f"--grid={grid}",
                   "--out", out) == EXIT_IO
    assert f"I/O error: bad grid {grid!r}" in capsys.readouterr().err
    assert not (out / "dos.csv").exists()


def test_spectrum_single_point_grid(tmp_path):
    # One point needs no ordering of the bounds.
    ev = tmp_path / "eigenvalues.csv"
    ev.write_text("lambda\n1.0\n-1.0\n")
    out = tmp_path / "out"
    assert run_cli("spectrum", "--eigenvalues", ev, "--grid=0:1:1", "--out", out) == EXIT_OK
    assert read_spectrum(out / "dos.csv")[0].tolist() == [0.0]


def test_spectrum_bad_dipoles_exits_2_before_writing(problem, tmp_path):
    write_matrix(tmp_path / "d.mtx", np.ones((24, 3)))
    out = tmp_path / "out"
    assert run_cli("spectrum", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--dipoles", tmp_path / "d.mtx", "--out", out) == EXIT_IO
    assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    assert run_cli("solve", "--a", tmp_path / "nope.mtx", "--b", tmp_path / "nope.mtx",
                   "--out", tmp_path) == EXIT_IO
    assert run_cli("oracle", "--a", tmp_path / "nope.mtx", "--out", tmp_path) == EXIT_IO
    assert "this command needs both --a and --b" in capsys.readouterr().err


def test_kind_is_a_gen_option_only(problem, tmp_path, capsys):
    # The operator's kind follows its data; only gen chooses one, for the draw.
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--kind", "real", "--a", problem / "A.mtx",
                "--b", problem / "B.mtx", "--out", tmp_path / "x")
    assert exc.value.code == 2
    assert "unrecognized arguments: --kind" in capsys.readouterr().err
    assert run_cli("gen", "--n", 0, "--out", tmp_path / "g") == EXIT_VALIDATION
    assert "n must be at least 1" in capsys.readouterr().err


def test_asymmetric_input_rejected_then_symmetrized(tmp_path):
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    write_matrix(tmp_path / "A.mtx", g + 10 * np.eye(4))  # not symmetric
    write_matrix(tmp_path / "B.mtx", np.zeros((4, 4)))
    args = ("solve", "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
            "--out", tmp_path / "out")
    assert run_cli(*args) == EXIT_VALIDATION
    assert run_cli(*args, "--symmetrize") == EXIT_OK


def test_solve_real_command(tmp_path):
    out = tmp_path / "gr"
    run_cli("gen", "--n", 8, "--seed", 5, "--kind", "real", "--out", out)
    sol = tmp_path / "sr"
    assert run_cli("solve-real", "--a", out / "A.mtx", "--b", out / "B.mtx",
                   "--out", sol) == EXIT_OK
    metrics = json.loads((sol / "metrics.json").read_text())
    assert metrics["kind"] == "real"
    assert metrics["r1"] <= 5e-14


def test_solve_real_rejects_complex_input(problem, tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli("solve-real", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_reports_a_residual_miss(problem, tmp_path, capsys, seed):
    # lambda_min / lambda_max = 1e-10 on real input: both commands miss the
    # 5e-14 target through r2 (about 1.5e-13), and residual_warnings'
    # messages are the warnings, on stderr too.
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", graded_real_operator(64, 1e-10, seed))
    for command in ("solve", "solve-real"):
        out = tmp_path / command
        capsys.readouterr()
        assert run_cli(command, "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
                       "--out", out) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        misses = list(residual_warnings(metrics["r1"], metrics["r2"]))
        assert misses and metrics["warnings"] == misses
        assert capsys.readouterr().err == "".join(f"warning: {m}\n" for m in misses)
    assert run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", tmp_path / "benign") == EXIT_OK
    assert json.loads((tmp_path / "benign" / "metrics.json").read_text())["warnings"] == []
    assert capsys.readouterr().err == ""


def test_tda_command(problem, tmp_path):
    out = tmp_path / "tda"
    assert run_cli("tda", "--a", problem / "A.mtx", "--out", out) == EXIT_OK
    lam = read_eigenvalues(out / "eigenvalues.csv")
    assert lam.shape == (12,)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["residual"] <= 1e-13


@pytest.mark.parametrize("power", [-490, -500, 505])
def test_tda_residual_is_scale_invariant(power, tmp_path):
    a = random_hermitian(12, 0)
    residuals = []
    for scale in (1.0, 2.0 ** power):
        out = tmp_path / f"tda{scale}"
        write_matrix(tmp_path / "A.mtx", a * scale)
        assert run_cli("tda", "--a", tmp_path / "A.mtx", "--out", out) == EXIT_OK
        residuals.append(json.loads((out / "metrics.json").read_text())["residual"])
    assert 0.0 < residuals[0] <= 1e-13
    assert residuals[1] == pytest.approx(residuals[0], rel=1e-12, abs=0.0)


def test_oracle_command(problem, tmp_path):
    out = tmp_path / "oracle"
    assert run_cli("oracle", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out) == EXIT_OK
    lam = read_eigenvalues(out / "eigenvalues.csv")
    assert lam.shape == (24,)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["pairing_defect"] < 1e-10


def test_compare_command(problem, tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tda_dominance"] is True
    assert summary["tda_min_gap"] >= -1e-12 * 20
    assert summary["max_abs_deviation_solve_vs_oracle"] <= 1e-10
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0] == "index,lambda_solve,lambda_oracle,lambda_tda,tda_gap"
    assert len(table) == 25


def test_compare_tda_fields_match_gap_report(problem, tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    report = tda_gap_report(load_operator(problem / "A.mtx", problem / "B.mtx"))
    assert summary["tda_min_gap"] == report.min_gap
    assert summary["tda_max_relative_gap"] == report.max_relative_gap
    assert summary["tda_dominance"] is report.certified
    rows = (out / "comparison.csv").read_text().splitlines()[1:13]
    assert np.array_equal([float(r.split(",")[4]) for r in rows], report.gaps)


def test_compare_computes_no_eigenvectors_of_h(problem, tmp_path, monkeypatch):
    # Every eigenvector of a tridiagonal matrix comes from _block_vectors, and
    # the comparison needs eigenvalues only.
    import bse.kernels as kernels

    def no_vectors(*args, **kwargs):
        raise AssertionError("eigenvectors computed")

    monkeypatch.setattr(kernels, "_block_vectors", no_vectors)
    assert run_cli("compare", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--out", tmp_path / "cmp") == EXIT_OK
    report = tda_gap_report(load_operator(problem / "A.mtx", problem / "B.mtx"))
    assert report.certified


def test_compare_spectrum_and_warnings_match_solve(tmp_path):
    # The comparison computes no eigenvectors, so it has no residual to warn
    # about, and summary.json carries no warnings.
    op = make_operator(np.diag([1e9, 1.0]), np.zeros((2, 2)))
    pos = solve_complex(op)
    report = tda_gap_report(op)
    assert np.array_equal(report.lambda_h, pos.lambda_plus)
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", op)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
                   "--out", out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "warnings" not in summary


def test_spectrum_from_solve_with_dipoles(problem, tmp_path):
    rng = np.random.default_rng(1)
    d = rng.standard_normal((24, 2)) + 1j * rng.standard_normal((24, 2))
    write_matrix(tmp_path / "d.mtx", d)
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--a", problem / "A.mtx", "--b", problem / "B.mtx",
                   "--dipoles", tmp_path / "d.mtx", "--sigma", 0.01,
                   "--grid", "0:20:501", "--out", out) == EXIT_OK
    omegas, values = read_spectrum(out / "dos.csv")
    assert omegas.shape == (501,)
    assert np.all(values >= 0)
    _, absorb = read_spectrum(out / "absorption.csv")
    assert absorb.shape == (501,)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e160])
def test_spectrum_default_broadening_has_unit_mass(tmp_path, scale):
    # With neither --grid nor --sigma, sigma is 1e-3 max|lambda| and the
    # default grid resolves it, whatever the scale of the operator.
    op = random_bse(12, 0)
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx",
                   make_operator(op.a * scale, op.b * scale))
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--a", tmp_path / "A.mtx", "--b", tmp_path / "B.mtx",
                   "--out", out) == EXIT_OK
    omegas, values = read_spectrum(out / "dos.csv")
    mass = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(omegas)))
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_spectrum_from_eigenvalue_csv(problem, tmp_path):
    sol = tmp_path / "sol"
    run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx", "--out", sol)
    out = tmp_path / "spec2"
    assert run_cli("spectrum", "--eigenvalues", sol / "eigenvalues.csv",
                   "--sigma", 0.02, "--out", out) == EXIT_OK
    omegas, _ = read_spectrum(out / "dos.csv")
    assert omegas.shape == (2001,)


def test_spectrum_dipoles_need_operator(problem, tmp_path):
    sol = tmp_path / "sol"
    run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx", "--out", sol)
    assert run_cli("spectrum", "--eigenvalues", sol / "eigenvalues.csv",
                   "--dipoles", sol / "eigenvalues.csv",
                   "--out", tmp_path / "x") == EXIT_IO


def test_output_dir_env_default(problem, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BSE_OUTPUT_DIR", str(target))
    assert run_cli("solve", "--a", problem / "A.mtx", "--b", problem / "B.mtx") == EXIT_OK
    assert (target / "eigenvalues.csv").exists()
