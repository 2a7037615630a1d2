"""Operator construction, validation, generation, and the residual metrics."""

import dataclasses

import numpy as np
import pytest

from bse.core import (RESIDUAL_TARGET, SYM_RTOL, BseOperator, FullEigensystem,
                      PositiveEigensystem, ValidationReport, _full_residuals, assemble_h,
                      check_structure, make_operator, random_bse, residual_metrics,
                      residual_warnings, structure_defect, validate)


# ---------------------------------------------------------------------------
# validate


def test_validate_positive_1x1():
    rep = validate(make_operator([[2.0]], [[1.0]]))
    assert rep.ok
    # M = diag(A+B, A-B) = diag(3, 1): smallest pivot is 1.
    assert rep.margin == pytest.approx(1.0)


def test_validate_negative_1x1():
    rep = validate(make_operator([[1.0]], [[2.0]]))
    assert not rep.ok
    assert rep.margin < 0.0


def test_validate_reports_defects_within_tolerance():
    a = np.array([[2.0, 1.0], [1.0 + SYM_RTOL, 2.0]])
    rep = validate(make_operator(a, np.zeros((2, 2))))
    assert rep.ok
    assert 0.0 < rep.sym_defects[0] <= SYM_RTOL and rep.sym_defects[1] == 0.0


def test_validate_reuses_the_constructor_defects(monkeypatch):
    # BseOperator measures both defects to accept the pair; validate reports
    # those figures and does not form the defects again.
    import bse.core as core

    a = np.array([[2.0, 1.0], [1.0 + SYM_RTOL, 2.0]])
    op = make_operator(a, np.zeros((2, 2)))
    assert op.sym_defects == (core.structure_defect(op.a, "Hermitian")[0], 0.0)
    monkeypatch.setattr(core, "structure_defect", None)
    assert validate(op).sym_defects == op.sym_defects


def test_validate_does_not_mutate():
    op = make_operator([[2.0]], [[1j]])
    a_before = op.a.copy()
    validate(op)
    assert np.array_equal(op.a, a_before)


# ---------------------------------------------------------------------------
# assemble_h


def test_assemble_complex_1x1():
    h = assemble_h(make_operator([[2.0]], [[1j]]))
    assert np.array_equal(h, np.array([[2.0, 1j], [1j, -2.0]]))


def test_assemble_identity():
    h = assemble_h(make_operator(np.eye(2), np.zeros((2, 2))))
    assert np.array_equal(h, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))


def test_assemble_real_1x1():
    h = assemble_h(make_operator([[2.0]], [[1.0]]))
    assert np.array_equal(h, np.array([[2.0, 1.0], [-1.0, -2.0]]).astype(complex))


# ---------------------------------------------------------------------------
# make_operator


@pytest.mark.parametrize("structure,x", [
    ("Hermitian", np.array([[1.0, 1j], [-1j, 1.0]])),
    ("symmetric", np.array([[1.0, 1j], [1j, 1.0]])),
    ("skew-symmetric", np.array([[0.0, 2.0], [-2.0, 0.0]])),
])
def test_structure_check(structure, x):
    assert structure_defect(x, structure) == (0.0, True)
    assert structure_defect(np.zeros((2, 2)), structure) == (0.0, True)
    # The tolerance is SYM_RTOL * max(1, ||x||_F) on the absolute defect.
    bad = x + np.array([[0.0, 1.0], [0.0, 0.0]])
    rel, ok = structure_defect(bad, structure)
    assert not ok and rel == pytest.approx(np.sqrt(2.0) / np.linalg.norm(bad))
    assert structure_defect(x + np.array([[0.0, SYM_RTOL / 2], [0.0, 0.0]]),
                            structure)[1]
    with pytest.raises(ValueError, match=f"M is not {structure} within tolerance"):
        check_structure(bad, structure, "M")


def test_make_operator_symmetrize_averages():
    g = np.array([[1.0, 2.0], [0.0, 1.0]])
    op = make_operator(g, np.zeros((2, 2)), symmetrize=True)
    assert np.array_equal(op.a, 0.5 * (g + g.T).astype(complex))


def test_make_operator_kind_inference():
    assert make_operator([[1.0]], [[0.5]]).kind == "real"
    assert make_operator([[1.0]], [[0.5j]]).kind == "complex"
    with pytest.raises(ValueError):
        make_operator([[1.0]], [[0.5j]], kind="real")


def test_make_operator_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        make_operator([[np.inf]], [[0.0]])


@pytest.mark.parametrize("build", [lambda a, b: BseOperator(a=a, b=b), make_operator],
                         ids=["BseOperator", "make_operator"])
def test_operator_gate_rejects_asymmetric_and_empty(build):
    # Construction is the one gate, so validate and the solvers never
    # re-check structure or size.
    g = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="A is not Hermitian.*pass symmetrize=True"):
        build(g, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="B is not symmetric.*pass symmetrize=True"):
        build(np.eye(2), g)
    with pytest.raises(ValueError, match="at least 1 x 1"):
        build(np.zeros((0, 0)), np.zeros((0, 0)))


def test_operator_rejects_bad_shapes():
    with pytest.raises(ValueError, match="must be square"):
        BseOperator(a=np.ones((2, 3)), b=np.ones((2, 3)))
    with pytest.raises(ValueError, match="shapes differ"):
        BseOperator(a=np.eye(2), b=np.eye(3))


# ---------------------------------------------------------------------------
# random_bse


def test_random_bse_deterministic():
    op1 = random_bse(4, seed=7)
    op2 = random_bse(4, seed=7)
    assert np.array_equal(op1.a, op2.a)
    assert np.array_equal(op1.b, op2.b)


def test_random_bse_validates():
    rep = validate(random_bse(8, seed=1, margin=0.5, kind="complex"))
    assert rep.ok


def test_random_bse_real_kind():
    op = random_bse(8, seed=1, kind="real")
    assert op.kind == "real"
    assert np.all(op.a.imag == 0.0) and np.all(op.b.imag == 0.0)
    assert validate(op).ok


@pytest.mark.parametrize("kwargs,match", [
    ({"n": 4, "kind": "quaternion"}, "kind must be"),
    ({"n": 0}, "n must be at least 1"),
    ({"n": 4, "margin": 0.0}, "margin must be positive")])
def test_random_bse_rejects_bad_arguments(kwargs, match):
    with pytest.raises(ValueError, match=match):
        random_bse(seed=0, **kwargs)


def test_random_bse_reshifts_until_definite(monkeypatch):
    # With a negligible margin the shifted 1 x 1 A equals |B| exactly, so
    # A - B is singular and the shift is doubled once.
    import bse.core

    probes = []
    monkeypatch.setattr(bse.core, "validate",
                        lambda op: probes.append(validate(op)) or probes[-1])
    op = random_bse(1, 2, margin=1e-300, kind="real")
    assert [rep.ok for rep in probes] == [False, True]
    assert validate(op).ok


def test_random_bse_seeds_differ():
    assert not np.array_equal(random_bse(4, seed=0).a, random_bse(4, seed=1).a)


@pytest.mark.parametrize("seed", range(5))
def test_generated_h_is_j_symmetric(seed):
    # (H J)^T = H J with J = [[0, I], [-I, 0]].
    op = random_bse(6, seed=seed)
    h = assemble_h(op)
    n = op.n
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    hj = h @ j
    assert (np.linalg.norm(hj - hj.T)
            <= 100 * np.finfo(float).eps * np.linalg.norm(h))


# ---------------------------------------------------------------------------
# residual_metrics


def test_residuals_exact_diagonal_case():
    op = make_operator([[1.0]], [[0.0]])
    full = FullEigensystem(x=np.eye(2, dtype=complex), y=np.eye(2, dtype=complex),
                           lam=np.array([1.0, -1.0]))
    assert residual_metrics(op, full) == (0.0, 0.0)


def test_residuals_algorithm_output_n32():
    from bse.embeddings import expand_full
    from bse.solvers import solve_complex

    op = random_bse(32, seed=11)
    full = expand_full(op, solve_complex(op))
    r1, r2 = residual_metrics(op, full)
    assert r1 <= 5e-14
    assert r2 <= 5e-14


def test_residuals_first_order_perturbation():
    from bse.embeddings import expand_full
    from bse.solvers import solve_complex

    op = random_bse(8, seed=2)
    full = expand_full(op, solve_complex(op))
    x = full.x.copy()
    bump = np.zeros(16, dtype=complex)
    bump[3] = 1e-8
    x[:, 5] += bump
    perturbed = FullEigensystem(x=x, y=full.y, lam=full.lam)
    r1, _ = residual_metrics(op, perturbed)
    assert 1e-10 <= r1 <= 1e-6


@pytest.mark.parametrize("n,power", [(8, -500), (8, -490), (32, 505)])
def test_residuals_scale_by_power_of_two(n, power):
    # H -> sH with its eigenvalues scaled by the same power of two: every
    # product in the residuals scales exactly, so r1 and r2 must too, even
    # where squares of the entries over- or underflow.
    from bse.embeddings import expand_full
    from bse.solvers import solve_complex

    op = random_bse(n, seed=0)
    full = expand_full(op, solve_complex(op))
    s = 2.0 ** power
    scaled = FullEigensystem(x=full.x, y=full.y, lam=full.lam * s)
    r1, r2 = residual_metrics(make_operator(op.a * s, op.b * s), scaled)
    assert r1 > 0.0
    assert (r1, r2) == residual_metrics(op, full)


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_residuals_paired_path_matches_full_product(n, kind):
    from bse.embeddings import expand_full
    from bse.solvers import solve_complex

    op = random_bse(n, seed=n, kind=kind)
    pos = solve_complex(op)
    # The positive half and its expansion give the same metrics; at rounding
    # level the full products measure different rounding errors, so they
    # agree to a few eps, not relatively.
    paired = residual_metrics(op, pos)
    assert residual_metrics(op, expand_full(op, pos)) == paired
    full = _full_residuals(op, expand_full(op, pos))
    assert np.allclose(paired, full, rtol=0.0, atol=4 * np.finfo(float).eps)
    # Halves perturbed by 1e-6 keep expand_full's layout; the metrics are then
    # set by the perturbation, and the pairing identities must reproduce them.
    rng = np.random.default_rng(n)
    bump = [1e-6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(2)]
    pos = PositiveEigensystem(lambda_plus=pos.lambda_plus, x1=pos.x1 + bump[0],
                              x2=pos.x2 + bump[1])
    full = expand_full(op, pos)
    assert residual_metrics(op, pos) == residual_metrics(op, full)
    assert np.allclose(residual_metrics(op, pos), _full_residuals(op, full), rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("matrix, rows, cols", [
    ("x", "top", "right"), ("x", "bottom", "right"), ("y", "top", "left"),
    ("y", "bottom", "left"), ("y", "top", "right"), ("y", "bottom", "right")])
def test_residuals_layout_break_takes_full_product(matrix, rows, cols):
    # One ulp off in any block of expand_full's layout: the pairing identities
    # no longer hold, and the metrics come from the full products.
    from bse.embeddings import expand_full
    from bse.solvers import solve_complex

    op = random_bse(5, seed=0)
    full = expand_full(op, solve_complex(op))
    assert residual_metrics(op, full) != _full_residuals(op, full)
    arrays = {"x": full.x.copy(), "y": full.y.copy()}
    i = 1 if rows == "top" else 6
    j = 2 if cols == "left" else 7
    arrays[matrix][i, j] = complex(np.nextafter(arrays[matrix][i, j].real, np.inf),
                                   arrays[matrix][i, j].imag)
    broken = FullEigensystem(x=arrays["x"], y=arrays["y"], lam=full.lam)
    assert residual_metrics(op, broken) == _full_residuals(op, broken)


@pytest.mark.parametrize("system", [
    PositiveEigensystem(lambda_plus=np.zeros(0), x1=np.zeros((0, 0)), x2=np.zeros((0, 0))),
    FullEigensystem(x=np.zeros((0, 0)), y=np.zeros((0, 0)), lam=np.zeros(0))])
def test_residuals_need_n_at_least_1(system):
    # Every operator has n >= 1, so an empty eigensystem never matches one.
    op = make_operator([[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="dimension mismatch: operator n=1, eigensystem n=0"):
        residual_metrics(op, system)


def test_residuals_dimension_mismatch():
    op = make_operator([[1.0]], [[0.0]])
    full = FullEigensystem(x=np.eye(4, dtype=complex), y=np.eye(4, dtype=complex),
                           lam=np.array([2.0, 1.0, -2.0, -1.0]))
    with pytest.raises(ValueError):
        residual_metrics(op, full)


def test_residual_warnings_name_each_miss():
    assert residual_warnings(RESIDUAL_TARGET, 0.0) == ()
    assert residual_warnings(6e-14, 1e-14) == ("r1=6.000e-14 exceeds the 5e-14 target",)
    assert residual_warnings(np.nextafter(RESIDUAL_TARGET, 1.0), 2.5e-10) == (
        "r1=5.000e-14 exceeds the 5e-14 target", "r2=2.500e-10 exceeds the 5e-14 target")


# ---------------------------------------------------------------------------
# Public surface


def test_public_surface():
    import bse

    assert set(bse.__all__) == {
        "BseOperator", "FullEigensystem", "PositiveEigensystem", "ValidationReport",
        "assemble_h", "make_operator", "random_bse", "residual_metrics",
        "residual_warnings", "validate",
        "RealHamiltonian", "build_hr", "build_m", "expand_full", "real_hamiltonian_to_bse",
        "ConvergenceError", "NotPositiveDefinite", "SkewTridiagonal", "SymTridiagonal",
        "cholesky", "hermitian_eig", "jacobi_svd", "phase_fold", "skew_tridiagonalize",
        "sym_tridiagonalize", "tridiag_eig",
        "TdaGapReport", "solve_complex", "solve_oracle", "solve_real", "tda_gap_report",
        "DipoleData", "SpectrumCurve", "absorption_spectrum", "dos_dominance",
        "spectral_density",
        "__version__"}
    assert len(bse.__all__) == len(set(bse.__all__))
    for name in bse.__all__:
        assert getattr(bse, name) is not None
    # The result records carry values and no warnings; the residual rule
    # above is the one accuracy verdict.
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (PositiveEigensystem, ValidationReport, bse.TdaGapReport)}
    assert fields == {
        "PositiveEigensystem": ["lambda_plus", "x1", "x2"],
        "ValidationReport": ["ok", "sym_defects", "margin"],
        "TdaGapReport": ["lambda_h", "lambda_a", "gaps", "max_relative_gap", "min_gap",
                         "scale", "certified"]}


# ---------------------------------------------------------------------------
# Container invariants


def test_positive_eigensystem_rejects_nonpositive():
    x = np.eye(1, dtype=complex)
    with pytest.raises(ValueError):
        PositiveEigensystem(lambda_plus=np.array([0.0]), x1=x, x2=x)


def test_positive_eigensystem_rejects_ascending():
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        PositiveEigensystem(lambda_plus=np.array([1.0, 2.0]), x1=x, x2=x)


def test_eigensystems_reject_bad_shapes():
    with pytest.raises(ValueError, match="n x n"):
        PositiveEigensystem(lambda_plus=np.array([1.0]), x1=np.eye(2), x2=np.eye(2))
    with pytest.raises(ValueError, match="even"):
        FullEigensystem(x=np.eye(3), y=np.eye(3), lam=np.array([1.0, 0.5, -1.0]))
    with pytest.raises(ValueError, match="2n x 2n"):
        FullEigensystem(x=np.eye(4), y=np.eye(4), lam=np.array([1.0, -1.0]))


def test_full_eigensystem_requires_bitwise_pairing():
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        FullEigensystem(x=x, y=x, lam=np.array([1.0, -1.0 + 1e-16]))


def test_operator_arrays_are_readonly():
    op = random_bse(3, seed=0)
    with pytest.raises(ValueError):
        op.a[0, 0] = 5.0


def test_input_records_copy_caller_arrays():
    # The records neither freeze nor share the caller's arrays, even when the
    # dtype already matches and no conversion copy is needed.
    from bse.embeddings import RealHamiltonian
    from bse.spectra import DipoleData, spectral_density

    a = np.eye(3, dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    view = a[:, 0]
    op = make_operator(a, b)
    view[0] = 7.0
    assert op.a[0, 0] == 1.0
    grid = np.linspace(-1.0, 1.0, 5)
    d = np.ones(2, dtype=complex)
    h = np.eye(2)
    records = [(a, op.a), (b, op.b),
               (grid, spectral_density([0.0], grid=grid, sigma=5e-4).omegas),
               (d, DipoleData(d, d).d_r), (h, RealHamiltonian(h, h, h).h11)]
    for caller, stored in records:
        assert caller.flags.writeable and not np.shares_memory(caller, stored)
