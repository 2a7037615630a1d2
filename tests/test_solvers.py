"""Solver tests: frozen analytic cases, cross-solver agreement, structure
preservation, and the Tamm-Dancoff overestimation bound."""

import numpy as np
import pytest

from bse.core import make_operator, random_bse, residual_metrics
from bse.embeddings import expand_full
from bse.kernels import NotPositiveDefinite, cholesky, hermitian_eig
from bse.solvers import (solve_complex, solve_oracle, solve_real, solve_tda,
                         tda_gap_report)

from matrices import random_spd


# ---------------------------------------------------------------------------
# solve_complex


def test_complex_1x1_analytic():
    op = make_operator([[2.0]], [[1j]])
    pos = solve_complex(op)
    assert pos.lambda_plus == pytest.approx([np.sqrt(3.0)], abs=1e-15)
    r1, r2 = residual_metrics(op, expand_full(op, pos))
    assert r1 <= 1e-14 and r2 <= 1e-14


def test_complex_hermitian_identity_case():
    op = make_operator(np.eye(4), np.zeros((4, 4)))
    pos = solve_complex(op)
    assert np.allclose(pos.lambda_plus, np.ones(4), atol=1e-14)
    assert np.linalg.norm(pos.x1.conj().T @ pos.x1 - np.eye(4)) <= 1e-13
    assert np.linalg.norm(pos.x2) <= 1e-13


@pytest.mark.parametrize("seed", [0, 5])
def test_complex_random_n32_residuals(seed):
    op = random_bse(32, seed=seed)
    r1, r2 = residual_metrics(op, expand_full(op, solve_complex(op)))
    assert r1 <= 5e-14
    assert r2 <= 5e-14


def test_complex_rejects_indefinite():
    op = make_operator([[1.0]], [[2.0]])
    with pytest.raises(NotPositiveDefinite):
        solve_complex(op)


def test_complex_normalization_invariant():
    op = random_bse(16, seed=3)
    pos = solve_complex(op)
    gram = pos.x1.conj().T @ pos.x1 - pos.x2.conj().T @ pos.x2
    assert np.linalg.norm(gram - np.eye(16)) <= 1e-12 * 16


def test_complex_conditioning_warning():
    # Spectrum spread beyond the guard ratio must yield a warning, not a
    # failure.  diag A with a huge and a small decoupled excitation.
    op = make_operator(np.diag([1e9, 1.0]), np.zeros((2, 2)))
    pos = solve_complex(op)
    assert any("ill conditioned" in w for w in pos.warnings)


# ---------------------------------------------------------------------------
# solve_real


def test_real_1x1_analytic():
    op = make_operator([[2.0]], [[1.0]])
    pos = solve_real(op)
    root = 3.0 ** 0.25
    assert pos.lambda_plus == pytest.approx([np.sqrt(3.0)], abs=1e-15)
    assert pos.x1[0, 0] == pytest.approx((1.0 + np.sqrt(3.0)) / (2.0 * root), abs=1e-14)
    assert pos.x2[0, 0] == pytest.approx((1.0 - np.sqrt(3.0)) / (2.0 * root), abs=1e-14)
    assert (pos.x1[0, 0] ** 2 - pos.x2[0, 0] ** 2).real == pytest.approx(1.0, abs=1e-14)


def test_real_decoupled_hermitian_case():
    a = np.diag([3.0, 1.0])
    op = make_operator(a, np.zeros((2, 2)))
    pos = solve_real(op)
    assert np.allclose(pos.lambda_plus, [3.0, 1.0], atol=1e-14)
    assert np.linalg.norm(pos.x2) <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_agrees_with_complex(seed):
    op = random_bse(16, seed=seed, kind="real")
    lam_r = solve_real(op).lambda_plus
    lam_c = solve_complex(op).lambda_plus
    assert np.max(np.abs(lam_r - lam_c)) <= 1e-12 * lam_c[0]
    r1, r2 = residual_metrics(op, expand_full(op, solve_real(op)))
    assert r1 <= 5e-14 and r2 <= 5e-14


def test_real_requires_real_kind():
    with pytest.raises(ValueError):
        solve_real(make_operator([[2.0]], [[1j]]))


def test_real_identifies_failing_factor():
    # A - B = diag(-1, -1) is indefinite while A + B is fine.
    op = make_operator(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPositiveDefinite, match="A-B"):
        solve_real(op)


# ---------------------------------------------------------------------------
# solve_tda


def test_tda_diagonal():
    vals, _ = solve_tda(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-15)


def test_tda_two_by_two():
    vals, _ = solve_tda(np.array([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-14)


def test_tda_random_residual():
    a = random_bse(32, seed=4).a
    vals, vecs = solve_tda(a)
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-13 * np.linalg.norm(a)


# ---------------------------------------------------------------------------
# solve_oracle


def test_oracle_1x1():
    vals = solve_oracle(make_operator([[2.0]], [[1j]]))
    assert np.allclose(vals, [np.sqrt(3.0), -np.sqrt(3.0)], atol=1e-14)
    assert abs(vals[0] + vals[1]) <= 1e-14


def test_oracle_identity():
    vals = solve_oracle(make_operator(np.eye(3), np.zeros((3, 3))))
    assert np.allclose(vals, [1.0, 1.0, 1.0, -1.0, -1.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_structure_preserving(seed):
    op = random_bse(16, seed=seed)
    pos = solve_complex(op).lambda_plus
    vals = solve_oracle(op)
    assert np.max(np.abs(vals[:16] - pos)) <= 1e-12 * pos[0]


def test_oracle_spectrum_negation_symmetry():
    # All values real by representation and closed under negation to rounding.
    op = random_bse(12, seed=9)
    vals = solve_oracle(op)
    assert vals.dtype == np.float64
    assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) <= 1e-12 * np.max(vals)


# ---------------------------------------------------------------------------
# Structure preservation


@pytest.mark.parametrize("seed", [0, 1])
def test_expanded_spectrum_exactly_paired(seed):
    op = random_bse(10, seed=seed)
    full = expand_full(op, solve_complex(op))
    assert full.lam.dtype == np.float64
    assert np.array_equal(full.lam[10:], -full.lam[:10])


def test_oracle_pairing_defect_is_nonzero_somewhere():
    defects = []
    for seed in range(6):
        vals = solve_oracle(random_bse(16, seed=seed))
        defects.append(np.max(np.abs(vals + vals[::-1])))
    assert max(defects) > 0.0


def test_scaling_consistency():
    op = random_bse(8, seed=6)
    s = 2.5
    scaled = make_operator(s * op.a, s * op.b)
    lam = solve_complex(op).lambda_plus
    lam_s = solve_complex(scaled).lambda_plus
    assert np.max(np.abs(lam_s - s * lam)) <= 1e-13 * s * lam[0]


# ---------------------------------------------------------------------------
# Tamm-Dancoff gap report


def test_tda_gap_zero_when_decoupled():
    op = make_operator(np.diag([3.0, 1.0]), np.zeros((2, 2)))
    report = tda_gap_report(op)
    assert np.max(np.abs(report.gaps)) <= 1e-13
    assert report.certified


def test_tda_gap_1x1_analytic():
    report = tda_gap_report(make_operator([[2.0]], [[1j]]))
    assert report.gaps[0] == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-14)
    assert report.max_relative_gap == pytest.approx((2.0 - np.sqrt(3.0)) / np.sqrt(3.0),
                                                    abs=1e-13)
    assert report.certified


@pytest.mark.parametrize("seed", range(10))
def test_tda_overestimates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    report = tda_gap_report(random_bse(n, seed=seed))
    assert report.min_gap >= -1e-12 * report.scale
    assert report.certified


# ---------------------------------------------------------------------------
# Eigenvalue arithmetic-geometric mean bound for definite pairs


@pytest.mark.parametrize("seed", range(8))
def test_product_eigenvalue_bound(seed):
    # sqrt(lambda_j(A1 A2)) <= lambda_j((A1+A2)/2), with lambda_j(A1 A2)
    # computed from the similar Hermitian matrix L2^H A1 L2, A2 = L2 L2^H.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 17))
    a1 = random_spd(n, 1000 + seed)
    a2 = random_spd(n, 2000 + seed)
    l2 = cholesky(a2)
    prod_vals, _ = hermitian_eig(l2.conj().T @ a1 @ l2, vectors=False)
    mean_vals, _ = hermitian_eig(0.5 * (a1 + a2), vectors=False)
    assert np.all(np.sqrt(prod_vals) <= mean_vals + 1e-12)
