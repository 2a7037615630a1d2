"""Kernel-level tests: every factorization is checked against either a frozen
analytic value or a dense numpy oracle that is independent of the kernel."""

import re
import warnings

import numpy as np
import pytest

from bse.embeddings import build_m
from bse.kernels import (_NB, _PANEL, _START_SEED, ConvergenceError, NotPositiveDefinite,
                         SymTridiagonal, _reduce_to_tridiagonal, _reflector, cholesky,
                         hermitian_eig, jacobi_svd, phase_fold, skew_tridiagonalize,
                         sym_tridiagonalize, tridiag_eig)

from matrices import (column_cholesky, graded_real_operator, near_indefinite_operator,
                      random_hermitian, random_rotation, random_skew, random_spd,
                      random_symmetric)


def omega(op):
    return np.block([[op.a, op.b], [op.b.conj(), op.a.conj()]])


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


def indefinite_at(p, n, is_complex, seed):
    """Well-conditioned Hermitian matrix whose pivot p is -0.5: its (p, p)
    entry is lowered by the Schur complement of the leading p x p block."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if is_complex:
        g = g + 1j * rng.standard_normal((n, n))
    s = g @ g.conj().T / n + np.eye(n)
    s = 0.5 * (s + s.conj().T)
    schur = s[p, p] - s[p, :p] @ np.linalg.solve(s[:p, :p], s[:p, p])
    s[p, p] -= schur.real + 0.5
    return s


# Breakdowns inside the first panel, at its last column, at the first column
# of the second, and deep in the matrix.
@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p", [_PANEL - 1, _PANEL, _PANEL + 1, 200])
def test_blocked_cholesky_breaks_down_where_the_column_loop_does(p, is_complex):
    s = indefinite_at(p, 256, is_complex, seed=p)
    with pytest.raises(NotPositiveDefinite) as blocked:
        cholesky(s)
    with pytest.raises(NotPositiveDefinite) as loop:
        column_cholesky(s)
    assert blocked.value.pivot_index == loop.value.pivot_index == p
    assert blocked.value.pivot_value == pytest.approx(loop.value.pivot_value, rel=1e-12)
    assert loop.value.pivot_value == pytest.approx(-0.5, rel=1e-8)


def test_cholesky_leaves_its_argument_unchanged():
    # Whether it factors or breaks down.
    s = random_spd(3 * _PANEL + 5, seed=2)
    neg = -s
    before = s.tobytes(), neg.tobytes()
    cholesky(s)
    with pytest.raises(NotPositiveDefinite):
        cholesky(neg)
    assert (s.tobytes(), neg.tobytes()) == before


def graded_spd(m, seed):
    """D C D with C well-conditioned SPD and D graded over eight decades."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, m))
    d = np.logspace(0, -8, m)
    return (d[:, None] * (g @ g.T / m + np.eye(m))) * d


@pytest.mark.parametrize("make", [
    pytest.param(lambda: build_m(near_indefinite_operator(100)), id="near_indefinite_M"),
    pytest.param(lambda: omega(near_indefinite_operator(100)), id="near_indefinite_Omega"),
    pytest.param(lambda: graded_spd(200, 0), id="graded"),
    pytest.param(lambda: build_m(graded_real_operator(100, 1e-6, 1)), id="graded_M")])
def test_blocked_cholesky_residual_matches_the_column_loop(make):
    s = make()

    def residual(low):
        return np.linalg.norm(low @ low.conj().T - s) / np.linalg.norm(s)

    low = cholesky(s)
    assert np.array_equal(low, np.tril(low))
    assert residual(low) <= 2.0 * residual(column_cholesky(s))


# ---------------------------------------------------------------------------
# Tridiagonal reductions

# Orders around the panel boundaries of the blocked reduction (_NB wide).
# Order m has m - 1 reflectors: for nb - 1 and nb they fill less than one
# panel, for nb + 1 exactly one, and for 2 nb + 3 they take three panels.
# Skew input needs an even order.
PANEL_SIZES = (_NB - 1, _NB, _NB + 1, 2 * _NB + 3)
SKEW_PANEL_SIZES = sorted({m + m % 2 for m in PANEL_SIZES})


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


@pytest.mark.parametrize("m,seed", [(8, 0), (8, 1), (100, 2),
                                    *((m, 5) for m in SKEW_PANEL_SIZES)])
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
    *(pytest.param(m, 5, random_symmetric, id=f"{m}-5") for m in PANEL_SIZES),
    *(pytest.param(m, 5, random_hermitian, id=f"{m}-5-hermitian") for m in PANEL_SIZES),
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


def test_already_tridiagonal_across_panels():
    # Every column is already reduced (tau = 0 throughout every panel): the
    # coefficients come out exactly and Q is exactly the identity.
    rng = np.random.default_rng(12)
    m = 2 * _NB + 4
    d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
    st = sym_tridiagonalize(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    assert np.array_equal(st.diag, d) and np.array_equal(st.offdiag, e)
    assert np.array_equal(st.q_matrix(), np.eye(m))
    sk = skew_tridiagonalize(np.diag(e, 1) - np.diag(e, -1))
    assert np.array_equal(sk.alphas, e)
    assert np.array_equal(sk.q_matrix(), np.eye(m))


def test_skew_zero_column_inside_panel():
    # W = diag(W1, W2) with W1 of order j+1: the reflectors before column j
    # act on rows up to j only, so column j is still exactly zero below the
    # diagonal when it is reached, in the middle of the second panel.
    m, j = 2 * _NB + 4, _NB + _NB // 2
    w = random_skew(m, 13)
    w[j + 1:, :j + 1] = 0.0
    w[:j + 1, j + 1:] = 0.0
    st = skew_tridiagonalize(w)
    assert st.taus[j] == 0.0 and st.alphas[j] == 0.0
    q = st.q_matrix()
    assert np.linalg.norm(q @ st.t_matrix() @ q.T - w) <= 1e-13 * np.linalg.norm(w)
    assert np.linalg.norm(q.T @ q - np.eye(m)) <= 1e-13 * m


def test_hermitian_phase_only_reflectors_across_panels():
    # Complex couplings on a tridiagonal matrix: each reflector only turns a
    # coupling real (zero tail, tau != 0), in every panel.
    rng = np.random.default_rng(14)
    m = 2 * _NB + 3
    couplings = rng.uniform(0.5, 1.5, m - 1) * np.exp(1j * rng.uniform(0.3, 2.8, m - 1))
    s = np.diag(rng.standard_normal(m)) + np.diag(couplings, -1)
    s = s + np.diag(couplings.conj(), 1)
    st = sym_tridiagonalize(s)
    assert np.all(st.taus != 0.0)
    q = st.q_matrix()
    assert np.linalg.norm(q @ st.t_matrix() @ q.conj().T - s) <= 1e-13 * np.linalg.norm(s)
    assert np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-13 * m


def unblocked_reduction(a, skew):
    """(diag, subdiag, taus) of a, reduced column by column: one reflector,
    then one rank-2 update of the whole trailing matrix, A <- P^H A P."""
    a = a.copy()
    m, s = a.shape[0], -1.0 if skew else 1.0
    taus = np.zeros(m - 1, dtype=a.dtype)
    sub = np.zeros(m - 1)
    for k in range(m - 1):
        v, taus[k], sub[k] = _reflector(a[k + 1:, k])
        p = taus[k] * (a[k + 1:, k + 1:] @ v)
        if not skew:
            p -= 0.5 * taus[k] * (p.conj() @ v) * v
        a[k + 1:, k + 1:] -= np.outer(p, v.conj()) + s * np.outer(v, p.conj())
    return np.diagonal(a).real.copy(), sub, taus


@pytest.mark.parametrize("make, skew", [
    pytest.param(random_skew, True, id="skew"),
    pytest.param(random_symmetric, False, id="symmetric"),
    pytest.param(random_hermitian, False, id="hermitian"),
])
def test_reduction_matches_unblocked_reference(make, skew):
    # A = diag(D1, C, D2): D1 dense through column j0, so that column j0 is
    # already reduced (tau = 0); C tridiagonal with complex couplings (for
    # Hermitian input phase-only reflectors, tau != 0); D2 dense to the end.
    # Columns j0 .. j0 + 4 lie inside the second panel, and D2 reaches the
    # third.
    m, j0 = 2 * _NB + 3, _NB + 8
    a = make(m, 17)
    a[:j0 + 1, j0 + 1:] = 0.0
    a[j0 + 1:, :j0 + 1] = 0.0
    c = slice(j0 + 1, j0 + 5)
    a[c, c] = np.diag(np.diagonal(a)[c]) + np.diag(np.diagonal(a, -1)[c][:-1], -1)
    a[c, c] += (-1.0 if skew else 1.0) * np.tril(a[c, c], -1).conj().T
    a[c, j0 + 5:] = 0.0
    a[j0 + 5:, c] = 0.0
    got = _reduce_to_tridiagonal(a.copy(), skew)
    ref = unblocked_reduction(a, skew)
    assert ref[2][j0] == 0.0 and got[2][j0] == 0.0
    if np.iscomplexobj(a):
        assert np.all(ref[2][j0 + 1:j0 + 4] != 0.0)
        assert not np.any(a[j0 + 3:, j0 + 1]) and a[j0 + 2, j0 + 1].imag != 0.0
    for name, x, y in zip(("diag", "subdiag", "taus"), got, ref):
        if name == "diag" and skew:
            continue  # workspace for skew input
        assert np.linalg.norm(x - y) <= 1e-13 * np.linalg.norm(y), name


@pytest.mark.parametrize("k", [-600, -560, 560, 600])
def test_reductions_power_of_two_equivariant(k):
    # Scaling by 2**k is exact, and so is every step of the reductions when
    # the reflector norms neither overflow nor underflow.
    m, scale = 3 * _NB + 2, np.ldexp(1.0, k)
    w = random_skew(m, 0)
    assert np.array_equal(skew_tridiagonalize(w * scale).alphas,
                          scale * skew_tridiagonalize(w).alphas)
    for s in (random_symmetric(m, 1), random_hermitian(m, 1)):
        ref, st = sym_tridiagonalize(s), sym_tridiagonalize(s * scale)
        assert np.array_equal(st.diag, scale * ref.diag)
        assert np.array_equal(st.offdiag, scale * ref.offdiag)


def explicit_q(t):
    """Q = P_0 P_1 ... P_(m-2) formed densely, P_k = I - tau_k v_k v_k^H, from
    the stored reflectors and taus."""
    q = np.eye(t.m, dtype=np.result_type(t.reflectors, t.taus))
    for k, tau in enumerate(t.taus):
        v = np.zeros(t.m, dtype=q.dtype)
        v[k + 1:] = t.reflectors[k + 1:, k]
        q = q - tau * np.outer(q @ v, v.conj())
    return q


# Orders around the compact-WY block boundaries of apply_q (_PANEL
# reflectors wide), as PANEL_SIZES are around the reduction's.
APPLY_Q_SIZES = (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 3)
SKEW_APPLY_Q_SIZES = sorted({m + m % 2 for m in APPLY_Q_SIZES})


@pytest.mark.parametrize("ncols", [1, 7])
@pytest.mark.parametrize("complex_c", [False, True], ids=["real_c", "complex_c"])
@pytest.mark.parametrize("reduce,make,m", [
    pytest.param(skew_tridiagonalize, random_skew, 2 * _NB + 4, id="real"),
    pytest.param(sym_tridiagonalize, random_hermitian, 2 * _NB + 4, id="complex"),
    *(pytest.param(skew_tridiagonalize, random_skew, m, id=f"real-{m}")
      for m in SKEW_APPLY_Q_SIZES),
    *(pytest.param(sym_tridiagonalize, random_hermitian, m, id=f"complex-{m}")
      for m in APPLY_Q_SIZES),
])
def test_apply_q_matches_explicit_product(reduce, make, m, complex_c, ncols):
    t = reduce(make(m, 15))
    rng = np.random.default_rng(16)
    c = rng.standard_normal((m, ncols))
    if complex_c:
        c = c + 1j * rng.standard_normal((m, ncols))
    assert np.linalg.norm(t.apply_q(c) - explicit_q(t) @ c) <= 1e-14 * np.linalg.norm(c)


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
    assert np.array_equal(np.sort(pos_vals), all_vals[30:])
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
    from bse.kernels import _sturm_counts
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40)) * 2
        alphas = rng.uniform(0.1, 3.0, m - 1)
        counts = _sturm_counts(np.zeros(m), alphas, np.array([0.0]))
        assert counts.tolist() == [m // 2]


def loop_sturm_counts(d, e, xs):
    """Reference Sturm counts: the recurrence on the pivots q of T - x I with
    a guard that sets every |q| < PIVMIN to -PIVMIN."""
    from bse.kernels import PIVMIN
    q = d[0] - xs
    q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = d[i] - xs - (e[i - 1] * e[i - 1]) / q
        q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
        counts += q < 0.0
    return counts


def _count_cases():
    rng = np.random.default_rng(21)
    dyadic = np.concatenate([[0.0, -0.0, 1.0, -1.0], np.arange(-24, 25) / 8.0])
    for m in (2, 3, 7, 63, 64, 65, 128, 129, 200):
        d, e = rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
        yield f"random-{m}", d, e, np.concatenate([rng.uniform(-3.0, 3.0, 200), d, [0.0]])
    for m in (2, 3, 5, 10, 33, 64, 65, 66):
        yield f"zero-diag-{m}", np.zeros(m), np.ones(m - 1), dyadic
    w = np.abs(np.arange(21) - 10.0)
    yield "wilkinson-21", w, np.ones(20), np.concatenate([w, -w, w + 0.5])
    for m in (4, 9, 70):
        d = rng.integers(-4, 5, m).astype(float)
        e = rng.integers(1, 3, m - 1).astype(float)
        yield f"integer-{m}", d, e, np.arange(-64, 65) / 8.0
    # 1e-170 squares to 0, which meets a zero pivot at shifts on the diagonal;
    # at generic shifts the floored square leaves every count as it was.
    e = rng.uniform(0.5, 1.5, 39)
    e[17] = 1e-170
    yield "tiny-coupling", np.zeros(40), e, rng.uniform(-3.0, 3.0, 500)


COUNT_CASES = list(_count_cases())


@pytest.mark.parametrize("name,d,e,xs", COUNT_CASES, ids=[case[0] for case in COUNT_CASES])
def test_sturm_counts_match_guarded_loop(name, d, e, xs):
    from bse.kernels import _sturm_counts
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _sturm_counts(d, e, xs)
    assert np.geterr() == state
    assert np.array_equal(counts, loop_sturm_counts(d, e, xs))


@pytest.mark.parametrize("m", [127, 128, 129, 130, 131, 132, 257, 258, 259])
def test_sturm_counts_across_fills(m):
    # Each chain carries its last pivot from one fill of the pivot buffer to
    # the next; the twist reads the last two steps, which straddle a fill
    # when m // 2 is one more than a multiple of the buffer's rows.
    from bse.kernels import _sturm_counts
    rng = np.random.default_rng(m)
    d, e = rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
    xs = rng.uniform(-3.0, 3.0, 300)
    assert np.array_equal(_sturm_counts(d, e, xs), loop_sturm_counts(d, e, xs))


def test_sturm_counts_tiny_coupling_at_zero():
    # A coupling whose square underflows, at the shift 0 of a zero diagonal:
    # the floored square keeps a zero pivot from producing 0/0, and the
    # spectrum stays symmetric, half of it below 0 and half above.
    from bse.kernels import _sturm_counts
    for m, at in ((4, 2), (10, 8), (40, 17)):
        e = np.random.default_rng(m).uniform(0.5, 1.5, m - 1)
        e[at] = 1e-170
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sturm_counts(np.zeros(m), e, np.array([0.0, -0.0])).tolist() == [m // 2] * 2
        vals, _ = tridiag_eig(SymTridiagonal(np.zeros(m), e), which="positive", vectors=False)
        assert np.all(vals > 0.0)


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


def test_tridiag_rejects_bad_which():
    with pytest.raises(ValueError, match="which must be"):
        tridiag_eig(SymTridiagonal(np.zeros(2), np.ones(1)), which="largest")


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


def normwise_coupling_t(at):
    """Zero-diagonal T of order 80 whose coupling ``at`` is 0.5 eps |T|."""
    from bse.kernels import EPS
    e = np.random.default_rng(23).uniform(0.5, 1.5, 79)
    e[at] = 0.0
    e[at] = 0.5 * EPS * np.max(np.append(e, 0.0) + np.insert(e, 0, 0.0))
    return SymTridiagonal(diag=np.zeros(80), offdiag=e)


@pytest.mark.parametrize("which", ["all", "positive"])
@pytest.mark.parametrize("at, orders", [(39, [40, 40]), (40, [80])])
def test_tridiag_normwise_split_between_even_blocks(at, orders, which, monkeypatch):
    # A coupling of 0.5 eps |T| (|T| the largest absolute row sum) on a zero
    # diagonal is cut where both sides have even order, and every vector
    # then lives inside one block.  A cut at an even index would leave two
    # odd blocks, rounding a tiny singular value of the Golub-Kahan form to a
    # zero eigenvalue, so there T stays whole.
    import bse.kernels as kernels
    ts = normwise_coupling_t(at)
    bisected = []
    bisect_values = kernels._bisect_values

    def spy(d, e, first=0):
        bisected.append(d.shape[0])
        return bisect_values(d, e, first)

    monkeypatch.setattr(kernels, "_bisect_values", spy)
    vals, vecs = tridiag_eig(ts, which=which)
    assert bisected == orders
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    k = vecs.shape[1]
    ref = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(vals - (ref if which == "all" else ref[40:][::-1]))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2
    if len(orders) == 2:
        for j in range(k):
            support = np.flatnonzero(vecs[:, j])
            assert support[-1] < 40 or support[0] >= 40


def loop_tridiag_eig(t, which):
    """Reference for tridiag_eig's bookkeeping as per-entry loops: a scan for
    negligible couplings (relative or normwise), a sort of (value, block,
    local index) tuples and per-block lists of (local index, output column)."""
    import bse.kernels as kernels

    d, e, m = t.diag, t.offdiag, t.m
    norm = max(abs(d[i]) + (abs(e[i]) if i < m - 1 else 0.0) + (abs(e[i - 1]) if i else 0.0)
               for i in range(m))
    blocks, start = [], 0
    for i in range(m - 1):
        # Relative, or normwise where a zero diagonal leaves both sides even.
        if (abs(e[i]) <= kernels.EPS * (abs(d[i]) + abs(d[i + 1]))
                or abs(e[i]) <= kernels.EPS * norm and (any(d) or i % 2 == 1)):
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
    # each block's vectors are both pinned bitwise.  Two blocks of 40 behind
    # a normwise cut pin that rule too.
    alphas = np.random.default_rng(9).uniform(0.5, 1.5, 5)
    offdiag = np.concatenate([alphas, [0.0], alphas, [0.0], alphas, [0.0, 0.0]])
    for ts in (SymTridiagonal(diag=np.zeros(20), offdiag=offdiag), normwise_coupling_t(39)):
        vals, vecs = tridiag_eig(ts, which=which)
        ref_vals, ref_vecs = loop_tridiag_eig(ts, which)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        assert np.array_equal(tridiag_eig(ts, which=which, vectors=False)[0], ref_vals)


def loop_bisect_values(d, e, first=0):
    """Reference for ``_bisect_values`` that counts every index's shift on its
    own, so that intervals shared before the values are isolated are counted
    once per index."""
    from bse.core import _scale_exponent
    from bse.kernels import EPS, PIVMIN, SAFMIN, _sturm_counts
    k = _scale_exponent(np.concatenate((d, e)))
    d, e = np.ldexp(d, -k), np.ldexp(e, -k)
    indices = np.arange(first, d.shape[0])
    radius = np.append(np.abs(e), 0.0) + np.insert(np.abs(e), 0, 0.0)
    lo0, hi0 = float(np.min(d - radius)), float(np.max(d + radius))
    pad = 2.0 * EPS * max(abs(lo0), abs(hi0)) + 2.0 * PIVMIN
    lo = np.full(indices.shape[0], lo0 - pad)
    hi = np.full(indices.shape[0], hi0 + pad)
    for _ in range(160):
        if not np.any(hi - lo > 2.0 * EPS * (np.abs(lo) + np.abs(hi)) + 2.0 * SAFMIN):
            break
        mid = 0.5 * (lo + hi)
        counts = np.array([_sturm_counts(d, e, mid[j:j + 1])[0] for j in range(mid.shape[0])])
        go_left = counts > indices
        hi, lo = np.where(go_left, mid, hi), np.where(go_left, lo, mid)
    return np.ldexp(0.5 * (lo + hi), k)


@pytest.mark.parametrize("first", [0, 21])
@pytest.mark.parametrize("name", ["random", "glued-wilkinson", "zero-diagonal"])
def test_bisect_values_count_each_shift_once(name, first):
    # Counting each distinct midpoint once gives bitwise the values of
    # counting every index: a count at one shift does not depend on the
    # others in the batch.  Glued copies of W7+ hold values equal to the last
    # bit, whose intervals stay shared to the end.
    import bse.kernels as kernels
    rng = np.random.default_rng(17)
    if name == "random":
        d, e = rng.uniform(-1.0, 1.0, 42), rng.uniform(-1.0, 1.0, 41)
    elif name == "glued-wilkinson":
        d, e = np.tile(np.abs(np.arange(7) - 3.0), 6), np.ones(41)
        e[6::7] = 1e-15
    else:
        d, e = np.zeros(42), rng.uniform(0.2, 2.0, 41)
    vals = kernels._bisect_values(d, e, first)
    assert np.array_equal(vals, loop_bisect_values(d, e, first))


def test_tridiag_positive_bisects_upper_half(monkeypatch):
    # Split blocks of 5, 7, 6, 1 and 1: for 'positive' each block of order b
    # bisects only its b - b // 2 largest eigenvalues, an odd block's zero
    # among them, and the result is bitwise that of bisecting all of them.
    # Shifts shared by several intervals are counted once, so a block's
    # largest batch, not every batch, holds one shift per value.
    import bse.kernels as kernels
    rng = np.random.default_rng(13)
    offdiag = np.concatenate([rng.uniform(0.5, 1.5, 4), [0.0], rng.uniform(0.5, 1.5, 6),
                              [0.0], rng.uniform(0.5, 1.5, 5), [0.0, 0.0]])
    ts = SymTridiagonal(diag=np.zeros(20), offdiag=offdiag)
    ref_vals, ref_vecs = loop_tridiag_eig(ts, "positive")
    batches = {}
    sturm_counts = kernels._sturm_counts

    def spy(d, e, xs):
        batches.setdefault(d.shape[0], set()).add(xs.shape[0])
        return sturm_counts(d, e, xs)

    monkeypatch.setattr(kernels, "_sturm_counts", spy)
    vals, vecs = tridiag_eig(ts, which="positive")
    assert {b: max(sizes) for b, sizes in batches.items()} == {5: 3, 7: 4, 6: 3}
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


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


@pytest.mark.parametrize("glue", [1e-8, 1e-12, 1e-14])
def test_tridiag_glued_wilkinson(glue, monkeypatch):
    # Ten copies of Wilkinson's W21+ joined by a tiny glue: each eigenvalue
    # of W21+ is repeated to within about the glue, so inverse iteration
    # cannot tell the copies' vectors apart.  They share one shift, and the
    # Rayleigh-Ritz step, a ``jacobi_svd`` call per step, separates them.
    import bse.kernels as kernels

    ritz_sizes = []
    jacobi_svd = kernels.jacobi_svd

    def spy(c):
        ritz_sizes.append(c.shape[0])
        return jacobi_svd(c)

    monkeypatch.setattr(kernels, "jacobi_svd", spy)
    offdiag = np.ones(209)
    offdiag[20::21] = glue
    ts = SymTridiagonal(diag=np.tile(np.abs(np.arange(21) - 10.0), 10),
                        offdiag=offdiag)
    vals, vecs = tridiag_eig(ts, which="all")
    assert ritz_sizes and max(ritz_sizes) >= 10
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(dense))) <= 1e-12 * norm2
    assert np.linalg.norm(vecs.T @ vecs - np.eye(210)) <= 1e-12 * 210
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


def _glued_copies():
    # Five copies of one order-24 zero-diagonal block glued at 1e-14: every
    # eigenvalue is repeated five times to within about the glue.
    block = np.random.default_rng(3).uniform(0.2, 2.0, 23)
    offdiag = np.concatenate([np.append(block, 1e-14)] * 5)[:-1]
    return SymTridiagonal(diag=np.zeros(120), offdiag=offdiag)


def _spy_block_passes(monkeypatch):
    """Record the column count of every CholeskyQR pass and every breakdown."""
    import bse.kernels as kernels

    passes, breakdowns = [], []
    cholesky_qr = kernels._cholesky_qr

    def spy(v):
        passes.append(v.shape[1])
        try:
            return cholesky_qr(v)
        except NotPositiveDefinite:
            breakdowns.append(v.shape[1])
            raise

    monkeypatch.setattr(kernels, "_cholesky_qr", spy)
    return passes, breakdowns


@pytest.mark.parametrize("which", ["all", "positive"])
def test_tridiag_glued_copies_share_a_shift(which, monkeypatch):
    # Each group of five nearly equal eigenvalues shares one shift, and its
    # columns are orthonormalized after the first solve, so the Gram matrix
    # never breaks down; the Rayleigh-Ritz step keeps the residual near
    # 1e-15 |T|_F, where orthonormalizing the mixed columns alone leaves
    # 3e-14..5e-14.
    _, breakdowns = _spy_block_passes(monkeypatch)
    ts = _glued_copies()
    vals, vecs = tridiag_eig(ts, which=which)
    dense = ts.t_matrix()
    k = vecs.shape[1]
    assert not breakdowns
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-14 * np.linalg.norm(dense)


def _gram_breakdowns(monkeypatch, failing_calls):
    """Make the given calls (1-based) of ``kernels._cholesky`` break down at
    pivot 0; return the list of calls made and that of restart seeds."""
    import bse.kernels as kernels

    calls, restarts = [], []
    cholesky, default_rng = kernels._cholesky, np.random.default_rng

    def breakdown(low, what):
        calls.append(what)
        if len(calls) in failing_calls:
            raise NotPositiveDefinite(0, -1.0, what)
        return cholesky(low, what)

    def spy(seed=None):
        if isinstance(seed, tuple) and len(seed) == 4:
            restarts.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(kernels, "_cholesky", breakdown)
    monkeypatch.setattr(np.random, "default_rng", spy)
    return calls, restarts


def _gram_breakdown_case():
    return SymTridiagonal(diag=np.zeros(80),
                          offdiag=np.random.default_rng(21).uniform(0.2, 2.0, 79))


@pytest.mark.parametrize("which", ["all", "positive"])
@pytest.mark.parametrize("failing_pass", [0, 1])
def test_tridiag_gram_breakdown_falls_back(which, failing_pass, monkeypatch):
    # A Gram matrix that is not numerically positive definite, in the first
    # or the second CholeskyQR pass, restarts the pivot's Rayleigh-Ritz range
    # (here column 0 alone) once and recomputes the batch; no NotPositiveDefinite
    # escapes, and the vectors agree with the unbroken run's to rounding.
    ts = _gram_breakdown_case()
    _, block_vecs = tridiag_eig(ts, which=which)
    calls, restarts = _gram_breakdowns(monkeypatch, {failing_pass + 1})
    vals, vecs = tridiag_eig(ts, which=which)
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    k = vecs.shape[1]
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2
    assert len(calls) == failing_pass + 3
    assert restarts == [(_START_SEED, 0, 0 if which == "all" else 40, 1)]
    assert np.max(np.abs(vecs - block_vecs)) <= 1e-12


@pytest.mark.parametrize("which", ["all", "positive"])
def test_tridiag_gram_breakdown_twice_raises(which, monkeypatch):
    # A breakdown in the restarted batch too ends in a ConvergenceError that
    # names the pivot's eigenvalue, never in a NaN or NotPositiveDefinite.
    ts = _gram_breakdown_case()
    vals, _ = tridiag_eig(ts, which=which, vectors=False)
    first = float(vals[0] if which == "all" else vals[-1])
    calls, _ = _gram_breakdowns(monkeypatch, {1, 2})
    with pytest.raises(ConvergenceError, match=re.escape(f"eigenvalue {first!r} after a restart")):
        tridiag_eig(ts, which=which)
    assert len(calls) == 2


def test_tridiag_block_orthogonality_at_scale(monkeypatch):
    # The phase-folded T of random_bse(256, 1): all 256 positive eigenpairs
    # take the block path, two CholeskyQR passes of every column.  The bounds
    # are about 10x the measured 6.2e-15 and 1.9e-16.
    from bse.core import random_bse
    from bse.solvers import _skew_form

    ts = phase_fold(_skew_form(random_bse(256, 1))[1])
    passes, breakdowns = _spy_block_passes(monkeypatch)
    vals, vecs = tridiag_eig(ts, which="positive")
    assert passes == [256, 256] and not breakdowns
    dense = ts.t_matrix()
    assert np.linalg.norm(vecs.T @ vecs - np.eye(256)) <= 6e-14
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 2e-15 * np.linalg.norm(dense)


def test_tridiag_group_takes_in_a_close_eigenvalue_below():
    # T = Q diag(base, 0.3, 0.3, 0.3 - 1.0005e3 eps |T|) Q^T: the double 0.3
    # forms a group whose shift would lie 1e3 eps |T| below it, about where
    # the third eigenvalue is; that eigenvalue would outgrow the group's columns
    # there, so the group takes it in and shifts below all three.
    from bse.kernels import EPS
    base = np.sort(np.random.default_rng(17).uniform(-1.0, 1.0, 20))
    q = random_rotation(23, 17)

    def reduced(lam):
        st = sym_tridiagonalize((q * lam) @ q.T)
        return SymTridiagonal(st.diag, st.offdiag)

    ts = reduced(np.concatenate([base, [0.3, 0.3, 0.0]]))
    anorm = np.max(np.abs(ts.diag) + np.append(np.abs(ts.offdiag), 0.0)
                   + np.insert(np.abs(ts.offdiag), 0, 0.0))
    ts = reduced(np.concatenate([base, [0.3, 0.3, 0.3 - 1.0005e3 * EPS * anorm]]))
    vals, vecs = tridiag_eig(ts)
    dense = ts.t_matrix()
    assert np.linalg.norm(vecs.T @ vecs - np.eye(23)) <= 1e-12 * 23
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-14 * np.linalg.norm(dense)


def _split_blocks():
    alphas = np.random.default_rng(9).uniform(0.5, 1.5, 5)
    offdiag = np.concatenate([alphas, [0.0], alphas, [0.0], alphas, [0.0, 0.0]])
    return SymTridiagonal(diag=np.zeros(20), offdiag=offdiag)


def _glued_wilkinson():
    offdiag = np.ones(209)
    offdiag[20::21] = 1e-12
    return SymTridiagonal(diag=np.tile(np.abs(np.arange(21) - 10.0), 10),
                          offdiag=offdiag)


def _random_tridiagonal():
    rng = np.random.default_rng(4)
    return SymTridiagonal(diag=rng.standard_normal(30), offdiag=rng.standard_normal(29))


@pytest.mark.parametrize("make_t", [_split_blocks, _glued_wilkinson, _random_tridiagonal])
def test_tridiag_vector_sign_convention(make_t):
    # Each column's entry of largest magnitude (the first of equal ones) is
    # positive, so a rounding-level change to T cannot flip a whole column.
    ts = make_t()
    # 'positive' needs a zero diagonal.
    for which in ("all",) if ts.diag.any() else ("all", "positive"):
        vecs = tridiag_eig(ts, which=which)[1]
        top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
        assert np.all(top > 0.0)


def test_tridiag_perturbed_shift_retry(monkeypatch):
    # Zero starting vectors normalize to NaN, so every first inverse
    # iteration fails and each eigenvector must come from a restart, whose
    # generator is seeded with a 4-tuple ending in the attempt number 1.
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
    start_vectors = kernels._start_vectors
    monkeypatch.setattr(kernels, "_start_vectors",
                        lambda m, block_start, local_idx, attempt=0:
                        start_vectors(m, block_start, local_idx, attempt) if attempt
                        else np.zeros((m, local_idx.shape[0])))
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


@pytest.mark.parametrize("which", ["all", "positive"])
def test_tridiag_restart_after_overflow_is_silent(which, monkeypatch):
    # A last coupling of 1e-170 leaves a last pivot near 1e-171 at two of
    # the computed eigenvalues, so the solves there overflow; the restart at
    # a perturbed shift recomputes those columns without a RuntimeWarning,
    # which the suite turns into an error.  The first restart already moves
    # off the failed shift, so no column needs a second one.
    restarts = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if isinstance(seed, tuple) and len(seed) == 4:
            restarts.append(seed[-1])
        return default_rng(seed)

    rng = np.random.default_rng(1)
    for m in (4, 6, 10, 20):
        rng.uniform(0.2, 2.0, m - 1)
    e = rng.uniform(0.2, 2.0, 33)
    e[-1] = 1e-170
    ts = SymTridiagonal(diag=np.zeros(34), offdiag=e)
    monkeypatch.setattr(np.random, "default_rng", spy)
    vals, vecs = tridiag_eig(ts, which=which)
    assert restarts and set(restarts) == {1}
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    k = vecs.shape[1]
    assert np.linalg.norm(vecs.T @ vecs - np.eye(k)) <= 1e-12 * k
    assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


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


@pytest.mark.parametrize("m,seed", [(20, 0), (100, 1), (21, 2), (65, 3), (1, 4)])
def test_jacobi_reconstruction(m, seed):
    c = np.random.default_rng(seed).standard_normal((m, m))
    u, s, v = jacobi_svd(c)
    nrm = np.linalg.norm(c)
    assert np.linalg.norm((u * s) @ v.T - c) <= 1e-13 * nrm
    assert np.linalg.norm(u.T @ u - np.eye(m)) <= 1e-13 * m
    assert np.linalg.norm(v.T @ v - np.eye(m)) <= 1e-13 * m
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_jacobi_graded_rows(seed):
    # C = diag(d) Q with d from 1 down to 1e-36: its singular values are d,
    # and one-sided Jacobi finds even the smallest to high relative accuracy.
    d = 10.0 ** -np.arange(0, 40, 4.0)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((10, 10)))
    c = d[:, None] * q
    u, s, v = jacobi_svd(c)
    assert np.max(np.abs(s - d) / d) <= 1e-13
    assert np.linalg.norm((u * s) @ v.T - c) <= 1e-13 * np.linalg.norm(c)


def test_jacobi_rotation_invariance():
    c = np.random.default_rng(2).standard_normal((24, 24))
    _, s0, _ = jacobi_svd(c)
    q1 = random_rotation(24, 3)
    q2 = random_rotation(24, 4)
    _, s1, _ = jacobi_svd(q1 @ c @ q2)
    assert np.max(np.abs(s1 - s0)) <= 1e-13 * s0[0]


def test_jacobi_exhausted_sweeps_raise(monkeypatch):
    import bse.kernels

    monkeypatch.setattr(bse.kernels, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps"):
        jacobi_svd(np.random.default_rng(0).standard_normal((6, 6)))


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


@pytest.mark.parametrize("scale", [2.0 ** -520, 1e-200, 1e160])
def test_hermitian_values_at_extreme_scales(scale):
    # A is scaled into range by a power of two before the reduction, which
    # would otherwise underflow or overflow.
    a = random_hermitian(12, 0)
    ref, _ = hermitian_eig(a, vectors=False)
    vals, _ = hermitian_eig(a * scale, vectors=False)
    assert np.all(np.abs(vals - scale * ref) <= 1e-12 * np.abs(scale * ref))


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
