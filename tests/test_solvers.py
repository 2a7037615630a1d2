"""Solver tests: frozen analytic cases, cross-solver agreement, structure
preservation, and the Tamm-Dancoff overestimation bound."""

import json

import numpy as np
import pytest

from bse.cli import EXIT_OK, main
from bse.core import (BseOperator, make_operator, random_bse, residual_metrics,
                      residual_warnings)
from bse.embeddings import build_m, expand_full
from bse.kernels import NotPositiveDefinite, cholesky, hermitian_eig
from bse.mmio import write_operator
from bse.solvers import solve_complex, solve_oracle, solve_real, tda_gap_report

from matrices import column_cholesky, graded_real_operator, random_spd


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residual_rule_is_the_only_verdict(tmp_path, seed):
    # A spread of 1e-9 between the eigenvalues says nothing by itself: two
    # decoupled excitations 1e9 apart meet the target to rounding, while a
    # graded real spectrum down to 1e-9 misses it through r2.
    op = make_operator(np.diag([1e9, 1.0]), np.zeros((2, 2)))
    r1, r2 = residual_metrics(op, solve_complex(op))
    assert r1 <= 1e-15 and r2 <= 1e-15
    assert residual_warnings(r1, r2) == ()
    op = graded_real_operator(64, 1e-9, seed)
    misses = residual_warnings(*residual_metrics(op, solve_complex(op)))
    assert misses[-1].startswith("r2=") and misses[-1].endswith(" exceeds the 5e-14 target")
    write_operator(tmp_path / "A.mtx", tmp_path / "B.mtx", op)
    assert main(["solve", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx"),
                 "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "metrics.json").read_text())["warnings"] == list(misses)


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
    # A - B = diag(-1, -1) is indefinite while A + B is fine; M's pivot n is
    # A - B's pivot 0.
    op = make_operator(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPositiveDefinite, match="A-B .* at index 0$"):
        solve_real(op)
    # A + B = diag(2, -1) fails first, at its own index.
    op = make_operator(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefinite, match="A\\+B .* at index 1$"):
        solve_real(op)


@pytest.mark.parametrize("seed", range(20))
def test_graded_real_meets_the_targets(seed):
    # lambda_min / lambda_max = 1e-4: the interleaved skew form keeps the two
    # halves of real input apart, so both solvers meet the residual targets.
    op = graded_real_operator(32, 1e-4, seed)
    for solver in (solve_complex, solve_real):
        r1, r2 = residual_metrics(op, expand_full(op, solver(op)))
        assert r1 <= 5e-14 and r2 <= 5e-14


# ---------------------------------------------------------------------------
# Tamm-Dancoff path: hermitian_eig on A alone


def test_tda_diagonal():
    vals, _ = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-15)


def test_tda_two_by_two():
    vals, _ = hermitian_eig(np.array([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-14)


def test_tda_random_residual():
    a = random_bse(32, seed=4).a
    vals, vecs = hermitian_eig(a)
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


def reference_oracle(op):
    """The oracle route without panels: the column-loop Cholesky of the
    block Omega, one GEMM for K and an out-of-place Hermitian average."""
    low = column_cholesky(np.block([[op.a, op.b], [op.b.conj(), op.a.conj()]]))
    signs = np.concatenate([np.ones(op.n), -np.ones(op.n)])
    k = (low.conj().T * signs) @ low
    return hermitian_eig(0.5 * (k + k.conj().T), vectors=False)[0]


@pytest.mark.parametrize("n, seed, kind", [(5, 0, "complex"), (40, 1, "real"),
                                           (100, 2, "complex")])
def test_oracle_agrees_with_the_unpanelled_route(n, seed, kind):
    op = random_bse(n, seed=seed, kind=kind)
    omega_norm = np.linalg.norm(np.block([[op.a, op.b], [op.b.conj(), op.a.conj()]]), 2)
    assert np.max(np.abs(solve_oracle(op) - reference_oracle(op))) <= 1e-13 * omega_norm


@pytest.mark.parametrize("n", [1, 5, 40, 100])
def test_skew_form_is_skew_by_construction(n, monkeypatch):
    # W = L^T J L is formed in the interleaved order (0, n, 1, n+1, ...): it is
    # exactly skew, and its (odd, odd) block is zero.  For real input its
    # (even, even) block is zero too, so W is Golub-Kahan's form.
    import bse.solvers as solvers

    seen = []
    reduce = solvers.skew_tridiagonalize
    monkeypatch.setattr(solvers, "skew_tridiagonalize",
                        lambda w: seen.append(w.copy()) or reduce(w))
    order = np.ravel(np.c_[np.arange(n), np.arange(n, 2 * n)])
    jay = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    for kind in ("complex", "real"):
        op = random_bse(n, seed=n, kind=kind)
        solve_complex(op)
        w = seen.pop()
        low = cholesky(build_m(op))
        assert np.allclose(w, (low.T @ jay @ low)[np.ix_(order, order)],
                           rtol=0.0, atol=1e-13 * np.linalg.norm(low) ** 2)
        assert np.array_equal(w, -w.T)
        assert not np.any(w[1::2, 1::2])
        assert kind == "complex" or not np.any(w[0::2, 0::2])


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


@pytest.mark.parametrize("n,seed,margin,kind,k", [
    (3, 2023501810, 7.285150848550784, "complex", -4),  # inverse iteration overflowed
    (7, 34289421, 1.641797800750241, "complex", -2),    # inverse iteration overflowed
    (8, 0, 1.0, "complex", -520),     # inverse iteration did not converge
    (6, 0, 1.0, "real", -1000),       # rounding in the exact zeros of W went subnormal
])
def test_solve_complex_scaled_regressions(n, seed, margin, kind, k):
    # Each scaled operator once failed inside a kernel that did not normalize
    # its input; the solve now commutes with the scaling.
    op = random_bse(n, seed, margin=margin, kind=kind)
    s = 2.0 ** k
    pos, scaled = solve_complex(op), solve_complex(make_operator(op.a * s, op.b * s))
    assert np.array_equal(scaled.lambda_plus, s * pos.lambda_plus)
    assert np.array_equal(scaled.x1, pos.x1)
    assert np.array_equal(scaled.x2, pos.x2)


def test_complex_duplicated_blocks_weak_coupling():
    # Two copies of one operator coupled at 1e-16 give a spectrum of pairs
    # split at rounding level, which inverse iteration cannot tell apart:
    # each pair shares one shift and a Rayleigh-Ritz step separates them.
    op = random_bse(10, 2)
    rng = np.random.default_rng(1002)
    c = 1e-16 * rng.uniform(-1.0, 1.0, (10, 10))
    d = 1e-16 * rng.uniform(-1.0, 1.0, (10, 10))
    doubled = make_operator(np.block([[op.a, c], [c.conj().T, op.a]]),
                            np.block([[op.b, d], [d.T, op.b]]), symmetrize=True)
    r1, r2 = residual_metrics(doubled, expand_full(doubled, solve_complex(doubled)))
    assert r1 <= 5e-14
    assert r2 <= 5e-14


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


def test_tda_gap_report_rejects_empty_operator():
    # The operator itself refuses n = 0, before any solver runs.
    with pytest.raises(ValueError, match="at least 1 x 1"):
        tda_gap_report(make_operator(np.zeros((0, 0)), np.zeros((0, 0))))


@pytest.mark.parametrize("solver", [solve_complex, solve_oracle])
def test_non_hermitian_operator_never_reaches_a_solver(solver):
    # Past the gate, each solver would read a different operator:
    # solve_complex the Hermitian part of A, solve_oracle its lower triangle.
    op = random_bse(4, 1)
    a = op.a.copy()
    a[0, 1] += 0.5
    with pytest.raises(ValueError, match="A is not Hermitian"):
        solver(BseOperator(a=a, b=op.b))


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
