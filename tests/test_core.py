"""Operator construction, validation, generation, and the residual metrics."""

import numpy as np
import pytest

from bse.core import (SYM_RTOL, BseOperator, FullEigensystem, PositiveEigensystem,
                      assemble_h, check_structure, make_operator, random_bse,
                      residual_metrics, structure_defect, validate)


# ---------------------------------------------------------------------------
# validate


def test_validate_positive_1x1():
    rep = validate(make_operator([[2.0]], [[1.0]]))
    assert rep.symmetry_ok and rep.definiteness_ok and rep.ok
    # M = diag(A+B, A-B) = diag(3, 1): smallest pivot is 1.
    assert rep.margin == pytest.approx(1.0)


def test_validate_negative_1x1():
    rep = validate(make_operator([[1.0]], [[2.0]]))
    assert rep.symmetry_ok
    assert not rep.definiteness_ok
    assert rep.margin < 0.0


def test_validate_non_hermitian():
    # Direct construction bypasses the factory symmetry gate on purpose.
    op = BseOperator(a=np.array([[0.0, 1.0], [0.0, 0.0]]),
                     b=np.zeros((2, 2)), kind="real")
    rep = validate(op)
    assert not rep.symmetry_ok
    assert rep.sym_defects[0] > 0.1


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


def test_make_operator_rejects_asymmetric():
    g = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian.*pass symmetrize=True"):
        make_operator(g, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="symmetric.*pass symmetrize=True"):
        make_operator(np.eye(2), g)


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


def test_residuals_dimension_mismatch():
    op = make_operator([[1.0]], [[0.0]])
    full = FullEigensystem(x=np.eye(4, dtype=complex), y=np.eye(4, dtype=complex),
                           lam=np.array([2.0, 1.0, -2.0, -1.0]))
    with pytest.raises(ValueError):
        residual_metrics(op, full)


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
    records = [(a, op.a), (b, op.b), (grid, spectral_density([0.0], grid=grid).omegas),
               (d, DipoleData(d, d).d_r), (h, RealHamiltonian(h, h, h).h11)]
    for caller, stored in records:
        assert caller.flags.writeable and not np.shares_memory(caller, stored)
