"""Kernel-level tests: every factorization is checked against either a frozen
analytic value or a dense numpy oracle that is independent of the kernel."""

import re

import numpy as np
import pytest

from bse.kernels import (ConvergenceError, NotPositiveDefinite, SymTridiagonal,
                         cholesky, hermitian_eig, jacobi_svd, phase_fold,
                         skew_tridiagonalize, sym_tridiagonalize, tridiag_eig)

from matrices import (random_hermitian, random_rotation, random_skew,
                      random_symmetric)


# ---------------------------------------------------------------------------
# Cholesky


def test_cholesky_hand_expansion():
    low = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.array_equal(low, np.array([[2.0, 0.0], [1.0, 2.0]]))


def test_cholesky_identity():
    assert np.array_equal(cholesky(np.eye(5)), np.eye(5))


def test_cholesky_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefinite) as exc:
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1
    assert exc.value.pivot_value == pytest.approx(-3.0)


def test_cholesky_complex_hermitian():
    s = random_hermitian(12, seed=5)
    s = s @ s.conj().T + 12 * np.eye(12)
    low = cholesky(s)
    assert np.linalg.norm(low @ low.conj().T - s) <= 1e-13 * np.linalg.norm(s)
    assert np.all(np.diagonal(low).real > 0)
    assert np.all(np.diagonal(low).imag == 0)


def test_cholesky_rejects_nonsquare():
    with pytest.raises(ValueError):
        cholesky(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Tridiagonal reductions


def test_skew_already_tridiagonal():
    st = skew_tridiagonalize(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(st.alphas, [1.0])
    assert np.array_equal(st.q_matrix(), np.eye(2))


def test_skew_j2_reduction():
    j2 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    st = skew_tridiagonalize(j2)
    recon = st.apply_q(st.t_matrix() @ st.q_matrix().T)
    assert np.linalg.norm(recon - j2) <= 1e-14 * np.linalg.norm(j2)
    vals, _ = tridiag_eig(phase_fold(st), which="all")
    assert np.allclose(np.sort(vals), [-1.0, -1.0, 1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("m,seed", [(8, 0), (8, 1), (100, 2)])
def test_skew_reconstruction(m, seed):
    w = random_skew(m, seed)
    st = skew_tridiagonalize(w)
    q = st.q_matrix()
    rel = np.linalg.norm(q @ st.t_matrix() @ q.T - w) / np.linalg.norm(w)
    assert rel <= 1e-13
    assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-13 * m


def test_skew_rejects_bad_input():
    with pytest.raises(ValueError):
        skew_tridiagonalize(np.eye(4))
    with pytest.raises(ValueError):
        skew_tridiagonalize(random_skew(5, 0))  # odd dimension


def test_sym_diagonal_input():
    st = sym_tridiagonalize(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(st.diag, [3.0, 1.0, 2.0])
    assert np.array_equal(st.offdiag, [0.0, 0.0])
    assert np.array_equal(st.q_matrix(), np.eye(3))


def test_sym_already_tridiagonal():
    st = sym_tridiagonalize(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.array_equal(st.diag, [2.0, 2.0])
    assert np.array_equal(st.offdiag, [1.0])


@pytest.mark.parametrize("m,seed,make", [
    pytest.param(8, 3, random_symmetric, id="8-3"),
    pytest.param(100, 4, random_symmetric, id="100-4"),
    pytest.param(8, 3, random_hermitian, id="8-3-hermitian"),
    pytest.param(100, 4, random_hermitian, id="100-4-hermitian"),
])
def test_sym_reconstruction(m, seed, make):
    s = make(m, seed)
    st = sym_tridiagonalize(s)
    assert st.diag.dtype == np.float64 and st.offdiag.dtype == np.float64
    q = st.q_matrix()
    rel = np.linalg.norm(q @ st.t_matrix() @ q.conj().T - s) / np.linalg.norm(s)
    assert rel <= 1e-13
    assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-13 * m


@pytest.mark.parametrize("reduce,make", [
    pytest.param(skew_tridiagonalize, random_skew, id="skew"),
    pytest.param(sym_tridiagonalize, random_symmetric, id="symmetric"),
    pytest.param(sym_tridiagonalize, random_hermitian, id="hermitian"),
    pytest.param(hermitian_eig, random_hermitian, id="hermitian_eig"),
])
def test_reduction_leaves_input_unchanged(reduce, make):
    # The reductions run in place, on their own (anti)symmetrized copy.
    x = make(10, 6)
    kept = x.copy()
    reduce(x)
    assert np.array_equal(x, kept)


# ---------------------------------------------------------------------------
# Phase fold


def test_phase_fold_relabels():
    st = skew_tridiagonalize(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ts = phase_fold(st)
    assert np.array_equal(ts.diag, [0.0, 0.0])
    assert np.array_equal(ts.offdiag, [1.0])
    vals, vecs = tridiag_eig(ts, which="all")
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-15)
    assert np.allclose(np.abs(vecs), 1.0 / np.sqrt(2.0), atol=1e-15)


def test_phase_fold_golden_eigenvalues():
    # 4x4 zero-diagonal with unit couplings: the spectrum is the golden
    # ratio pair, +-(sqrt(5)+1)/2 and +-(sqrt(5)-1)/2.
    ts = SymTridiagonal(diag=np.zeros(4), offdiag=np.ones(3))
    vals, _ = tridiag_eig(ts, which="all")
    phi = (np.sqrt(5.0) + 1.0) / 2.0
    expected = np.sort([-phi, -(phi - 1.0), phi - 1.0, phi])
    assert np.allclose(vals, expected, atol=1e-14)
    dense = ts.t_matrix()
    assert np.allclose(vals, np.linalg.eigvalsh(dense), atol=1e-14)


def test_phase_fold_zero_matrix():
    ts = SymTridiagonal(diag=np.zeros(4), offdiag=np.zeros(3))
    vals, vecs = tridiag_eig(ts, which="all")
    assert np.array_equal(vals, np.zeros(4))
    assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-15)


# ---------------------------------------------------------------------------
# Tridiagonal eigensolver


def test_tridiag_two_by_two():
    ts = SymTridiagonal(diag=np.zeros(2), offdiag=np.array([1.0]))
    vals, vecs = tridiag_eig(ts, which="all")
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-15)
    r = 1.0 / np.sqrt(2.0)
    for j, lam in enumerate(vals):
        assert np.allclose(ts.t_matrix() @ vecs[:, j], lam * vecs[:, j], atol=1e-15)
    assert np.allclose(np.abs(vecs), r, atol=1e-15)


def test_tridiag_three_point():
    ts = SymTridiagonal(diag=np.zeros(3), offdiag=np.ones(2))
    vals, _ = tridiag_eig(ts, which="all")
    assert np.allclose(vals, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tridiag_zero_diag_vs_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.2, 2.0, 99)
    ts = SymTridiagonal(diag=np.zeros(100), offdiag=alphas)
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    vals, vecs = tridiag_eig(ts, which="all")
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(100)) <= 1e-12 * 100
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-12 * norm2


def test_tridiag_positive_half():
    rng = np.random.default_rng(3)
    alphas = rng.uniform(0.2, 2.0, 59)
    ts = SymTridiagonal(diag=np.zeros(60), offdiag=alphas)
    all_vals, _ = tridiag_eig(ts, which="all")
    pos_vals, pos_vecs = tridiag_eig(ts, which="positive")
    assert pos_vals.shape == (30,)
    assert np.all(pos_vals > 0)
    assert np.all(np.diff(pos_vals) <= 0)
    assert np.allclose(np.sort(pos_vals), all_vals[30:], atol=0)
    dense = ts.t_matrix()
    assert (np.linalg.norm(dense @ pos_vecs - pos_vecs * pos_vals)
            <= 1e-12 * np.linalg.norm(dense, 2))


def test_tridiag_positive_requires_zero_diagonal():
    ts = SymTridiagonal(diag=np.array([0.0, 1e-30]), offdiag=np.array([1.0]))
    with pytest.raises(ValueError):
        tridiag_eig(ts, which="positive")
    with pytest.raises(ValueError):
        tridiag_eig(SymTridiagonal(diag=np.zeros(3), offdiag=np.ones(2)),
                    which="positive")


def test_tridiag_values_only():
    ts = SymTridiagonal(diag=np.zeros(4), offdiag=np.ones(3))
    vals, vecs = tridiag_eig(ts, which="all", vectors=False)
    assert vecs is None
    assert vals.shape == (4,)


def test_sturm_count_zero_diag_symmetry():
    # Half the spectrum sits below zero whenever no coupling vanishes.
    from bse.kernels import _pivmin, _sturm_counts
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40)) * 2
        alphas = rng.uniform(0.1, 3.0, m - 1)
        counts = _sturm_counts(np.zeros(m), alphas, np.array([0.0]), _pivmin(alphas))
        assert counts.tolist() == [m // 2]


@pytest.mark.parametrize("which", ["all", "positive"])
@pytest.mark.parametrize("vectors", [True, False])
def test_tridiag_empty(which, vectors):
    vals, vecs = tridiag_eig(SymTridiagonal(np.zeros(0), np.zeros(0)),
                             which=which, vectors=vectors)
    assert vals.shape == (0,) and vals.dtype == np.float64
    assert vecs is None if not vectors else vecs.shape == (0, 0)
    vals, vecs = hermitian_eig(np.zeros((0, 0)), vectors=vectors)
    assert vals.shape == (0,) and vals.dtype == np.float64
    assert vecs is None if not vectors else (vecs.shape == (0, 0)
                                             and vecs.dtype == np.complex128)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tridiag_non_finite_raises(bad):
    with pytest.raises(ConvergenceError, match="non-finite"):
        tridiag_eig(SymTridiagonal(np.zeros(4), np.array([1.0, bad, 1.0])))
    with pytest.raises(ConvergenceError, match="non-finite"):
        tridiag_eig(SymTridiagonal(np.array([0.0, bad, 0.0]), np.ones(2)),
                    vectors=False)


def test_tridiag_split_blocks():
    # Exact zero couplings split the matrix into irreducible blocks of 20, 20
    # and 40; every eigenvector must live inside its own block.
    rng = np.random.default_rng(7)
    alphas = rng.uniform(0.2, 2.0, 79)
    alphas[19] = 0.0
    alphas[39] = 0.0
    ts = SymTridiagonal(diag=np.zeros(80), offdiag=alphas)
    vals, vecs = tridiag_eig(ts, which="all")
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(80)) <= 1e-12 * 80
    blocks = [(0, 20), (20, 40), (40, 80)]
    for j in range(80):
        support = np.flatnonzero(vecs[:, j])
        assert any(i0 <= support[0] and support[-1] < i1 for i0, i1 in blocks)


def loop_tridiag_eig(t, which):
    """Reference for tridiag_eig's bookkeeping as per-entry loops: a scan for
    negligible couplings, a sort of (value, block, local index) tuples and
    per-block lists of (local index, output column)."""
    import bse.kernels as kernels

    d, e, m = t.diag, t.offdiag, t.m
    blocks, start = [], 0
    for i in range(m - 1):
        if abs(e[i]) <= kernels.EPS * (abs(d[i]) + abs(d[i + 1])):
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, m))
    tagged = []
    for bi, (i0, i1) in enumerate(blocks):
        vals = d[i0:i1] if i1 - i0 == 1 else kernels._bisect_values(d[i0:i1], e[i0:i1 - 1])
        tagged.extend((v, bi, li) for li, v in enumerate(vals))
    tagged.sort()
    selected = tagged[m // 2:][::-1] if which == "positive" else tagged
    vec = np.zeros((m, len(selected)))
    for bi, (i0, i1) in enumerate(blocks):
        pairs = sorted((li, col) for col, (_, b, li) in enumerate(selected) if b == bi)
        if pairs:
            vec[i0:i1, [col for _, col in pairs]] = kernels._block_vectors(
                d[i0:i1], e[i0:i1 - 1], np.array([selected[col][0] for _, col in pairs]),
                np.array([li for li, _ in pairs]), i0)
    return np.array([v for v, _, _ in selected]), vec


@pytest.mark.parametrize("which", ["all", "positive"])
def test_tridiag_matches_loop_reference(which):
    # Three identical blocks of 6 and two 1x1 zero blocks: every eigenvalue
    # is tied exactly across blocks, so the order of ties and the column of
    # each block's vectors are both pinned bitwise.
    alphas = np.random.default_rng(9).uniform(0.5, 1.5, 5)
    offdiag = np.concatenate([alphas, [0.0], alphas, [0.0], alphas, [0.0, 0.0]])
    ts = SymTridiagonal(diag=np.zeros(20), offdiag=offdiag)
    vals, vecs = tridiag_eig(ts, which=which)
    ref_vals, ref_vecs = loop_tridiag_eig(ts, which)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)
    assert np.array_equal(tridiag_eig(ts, which=which, vectors=False)[0], ref_vals)


def test_tridiag_clustered_spectrum():
    # Pairs of glued blocks create near-degenerate eigenvalues; vectors must
    # stay orthonormal and accurate.
    rng = np.random.default_rng(11)
    alphas = rng.uniform(0.5, 1.5, 39)
    alphas[0::2] *= 1e-6
    ts = SymTridiagonal(diag=np.zeros(40), offdiag=alphas)
    vals, vecs = tridiag_eig(ts, which="all")
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(40)) <= 1e-12 * 40
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


@pytest.mark.parametrize("glue", [1e-8, 1e-12])
def test_tridiag_glued_wilkinson(glue, monkeypatch):
    # Ten copies of Wilkinson's W21+ joined by a tiny glue: each eigenvalue
    # of W21+ is repeated to within about the glue, so inverse iteration
    # returns nearly parallel vectors and Gram-Schmidt must restart from a
    # random vector.  The restart's generator is seeded with a 4-tuple
    # ending in 2; counting those calls shows the path is taken.
    restarts = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, tuple) and len(seed) == 4 and seed[-1] == 2:
            restarts.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    offdiag = np.ones(209)
    offdiag[20::21] = glue
    ts = SymTridiagonal(diag=np.tile(np.abs(np.arange(21) - 10.0), 10),
                        offdiag=offdiag)
    vals, vecs = tridiag_eig(ts, which="all")
    assert restarts
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(210)) <= 1e-12 * 210
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


def test_tridiag_perturbed_shift_retry(monkeypatch):
    # Zero starting vectors normalize to NaN, so every first inverse
    # iteration fails and each eigenvector must come from the perturbed-shift
    # retry, whose generator is seeded with a 4-tuple ending in 1.
    import bse.kernels as kernels

    rng = np.random.default_rng(5)
    ts = SymTridiagonal(diag=rng.standard_normal(30), offdiag=rng.uniform(0.5, 1.5, 29))
    retries = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, tuple) and len(seed) == 4 and seed[-1] == 1:
            retries.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    monkeypatch.setattr(kernels, "_start_vectors",
                        lambda m, block_start, local_idx: np.zeros((m, local_idx.shape[0])))
    with np.errstate(invalid="ignore"):
        vals, vecs = tridiag_eig(ts, which="all")
    assert len(retries) == 30
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(30)) <= 1e-12 * 30
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


def test_tridiag_retry_exhausted_raises(monkeypatch):
    import bse.kernels as kernels

    rng = np.random.default_rng(5)
    ts = SymTridiagonal(diag=rng.standard_normal(30), offdiag=rng.uniform(0.5, 1.5, 29))
    vals, _ = tridiag_eig(ts, which="all", vectors=False)
    monkeypatch.setattr(kernels, "_solve_shifted", lambda fact, rhs: np.zeros_like(rhs))
    with pytest.raises(ConvergenceError, match=re.escape(f"eigenvalue {float(vals[0])!r} ")):
        tridiag_eig(ts, which="all")


def test_tridiag_general_symmetric():
    d = np.array([4.0, 1.0, 3.0, -2.0, 0.5])
    e = np.array([1.0, 0.5, 2.0, 1.5])
    ts = SymTridiagonal(diag=d, offdiag=e)
    vals, vecs = tridiag_eig(ts, which="all")
    dense = ts.t_matrix()
    assert np.allclose(vals, np.linalg.eigvalsh(dense), atol=1e-13)
    assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-13)


# ---------------------------------------------------------------------------
# Jacobi SVD


def test_jacobi_diagonal():
    u, s, v = jacobi_svd(np.diag([3.0, 2.0]))
    assert np.array_equal(s, [3.0, 2.0])
    assert np.allclose(np.abs(u), np.eye(2))
    assert np.allclose(np.abs(v), np.eye(2))


def test_jacobi_golden_ratio_pair():
    u, s, v = jacobi_svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    phi = (np.sqrt(5.0) + 1.0) / 2.0
    assert np.allclose(s, [phi, phi - 1.0], atol=1e-15)
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.linalg.norm((u * s) @ v.T - c) <= 1e-15 * 4


def test_jacobi_permutation():
    _, s, _ = jacobi_svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(s, [1.0, 1.0])


@pytest.mark.parametrize("m,seed", [(20, 0), (100, 1)])
def test_jacobi_reconstruction(m, seed):
    c = np.random.default_rng(seed).standard_normal((m, m))
    u, s, v = jacobi_svd(c)
    nrm = np.linalg.norm(c)
    assert np.linalg.norm((u * s) @ v.T - c) <= 1e-13 * nrm
    assert np.linalg.norm(u.T @ u - np.eye(m)) <= 1e-13 * m
    assert np.linalg.norm(v.T @ v - np.eye(m)) <= 1e-13 * m
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_jacobi_rotation_invariance():
    c = np.random.default_rng(2).standard_normal((24, 24))
    _, s0, _ = jacobi_svd(c)
    q1 = random_rotation(24, 3)
    q2 = random_rotation(24, 4)
    _, s1, _ = jacobi_svd(q1 @ c @ q2)
    assert np.max(np.abs(s1 - s0)) <= 1e-13 * s0[0]


def test_jacobi_rank_deficient():
    c = np.zeros((3, 3))
    c[0, 0] = 2.0
    u, s, v = jacobi_svd(c)
    assert np.allclose(s, [2.0, 0.0, 0.0])
    assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-14


# ---------------------------------------------------------------------------
# Hermitian eigensolver: complex Householder reduction at order n


def test_hermitian_diagonal():
    vals, _ = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(vals, [3.0, 1.0], atol=1e-15)


def test_hermitian_two_by_two():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    vals, vecs = hermitian_eig(a)
    assert np.allclose(vals, [3.0, 1.0], atol=1e-14)
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermitian_random_residual(seed):
    a = random_hermitian(16, seed)
    vals, vecs = hermitian_eig(a)
    nrm = np.linalg.norm(a)
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-13 * nrm
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(16)) <= 1e-13 * 16
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) <= 1e-13 * nrm


def test_hermitian_degenerate():
    # Double eigenvalue 2 plus simple eigenvalues; the basis of the
    # degenerate eigenspace must still be orthonormal with a small residual.
    a = np.diag([2.0, 2.0, 5.0, -1.0]).astype(complex)
    q = np.linalg.qr(random_hermitian(4, 9) + 4j * np.eye(4))[0]
    a = q @ a @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    vals, vecs = hermitian_eig(a)
    assert np.allclose(vals, [5.0, 2.0, 2.0, -1.0], atol=1e-13)
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(4)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1])
def test_hermitian_orthonormal_at_order_128(seed):
    a = random_hermitian(128, seed)
    vals, vecs = hermitian_eig(a)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(128)) <= 1e-13
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 3e-15 * np.linalg.norm(a)


def test_hermitian_complex_tridiagonal():
    # Already tridiagonal with complex couplings, the last one included: every
    # column needs only the phase-only reflector (zero tail, Im x0 != 0).
    rng = np.random.default_rng(21)
    couplings = rng.uniform(0.5, 1.5, 9) * np.exp(1j * rng.uniform(0.3, 2.8, 9))
    a = np.diag(rng.uniform(-2.0, 2.0, 10)) + np.diag(couplings, -1)
    a = a + np.diag(couplings.conj(), 1)
    vals, vecs = hermitian_eig(a)
    nrm = np.linalg.norm(a)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) <= 1e-14 * nrm
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-14 * nrm
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(10)) <= 1e-13


def test_hermitian_identity():
    vals, vecs = hermitian_eig(np.eye(6, dtype=complex))
    assert np.allclose(vals, np.ones(6), atol=1e-15)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(6)) <= 1e-13


def test_hermitian_values_only():
    vals, vecs = hermitian_eig(random_hermitian(8, 3), vectors=False)
    assert vecs is None
    assert np.max(np.abs(vals - np.linalg.eigvalsh(random_hermitian(8, 3))[::-1])) <= 1e-13


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
