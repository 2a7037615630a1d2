"""Self-contained dense factorization and eigensolver kernels.

Everything here is built directly on ndarray arithmetic: Cholesky, one
Householder tridiagonalization shared by symmetric, skew-symmetric and
complex Hermitian matrices, a bisection (Sturm sequence) plus
inverse-iteration eigensolver for symmetric tridiagonal matrices, one-sided
Jacobi SVD, and a complex Hermitian eigensolver that reduces A at its own
order to a real symmetric tridiagonal matrix.  No LAPACK-backed
factorization or eigensolver is called in this module; ``numpy.linalg`` is
used for norms only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS, check_structure

SAFMIN = float(np.finfo(np.float64).tiny)


class NotPositiveDefinite(ArithmeticError):
    """Cholesky pivot breakdown: the matrix is not positive definite."""

    def __init__(self, pivot_index: int, pivot_value: float, what: str = "matrix"):
        super().__init__(f"{what} is not positive definite: "
                         f"pivot {pivot_value:.6e} at index {pivot_index}")
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value


class ConvergenceError(RuntimeError):
    """An iterative kernel exhausted its retry budget without converging."""


def _square(x, dtype) -> np.ndarray:
    """x as an array of ``dtype``; ValueError unless it is a square matrix."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    return x


# ----------------------------------------------------------------------------
# Cholesky


def cholesky(s: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower-triangular factor L with L L^H = S for a symmetric (or complex
    Hermitian) positive definite S.  The diagonal of L is strictly positive.

    Raises NotPositiveDefinite carrying the index and value of the first
    nonpositive pivot.  ``what`` labels the matrix in the error message.
    """
    low = np.array(_square(s, np.complex128 if np.iscomplexobj(s) else np.float64))
    for j in range(low.shape[0]):
        if j:
            low[j:, j] -= low[j:, :j] @ low[j, :j].conj()
        pivot = float(low[j, j].real)
        if not pivot > 0.0:
            raise NotPositiveDefinite(j, pivot, what)
        dj = np.sqrt(pivot)
        low[j, j] = dj
        low[j + 1:, j] /= dj
    return np.tril(low)


# ----------------------------------------------------------------------------
# Householder tridiagonalization


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float | complex, float]:
    """Householder vector v (v[0] = 1) and tau with H^H x = beta e1, where
    H = I - tau v v^H, beta is real and tau is complex for complex x.

    tau = 0 signals that x is already of the required form.  A complex x
    whose tail is zero but whose head is not real still needs the
    phase-only reflector that makes beta real.
    """
    tail_norm = float(np.linalg.norm(x[1:]))
    x0 = x[0]
    if tail_norm == 0.0 and x0.imag == 0.0:
        return np.zeros_like(x), 0.0, float(x0.real)
    beta = -np.copysign(np.hypot(abs(x0), tail_norm),
                        x0.real if x0.real != 0.0 else 1.0)
    v0 = x0 - beta
    v = x / v0
    v[0] = 1.0
    tau = -v0 / beta
    return v, tau, float(beta)


def _reduce_to_tridiagonal(a: np.ndarray, skew: bool):
    """Householder similarity reduction of a, in place; returns (diag,
    subdiag, taus).

    Reflector k overwrites column k below the diagonal, a[k+1:, k], with its
    leading one stored (a zero column where tau_k = 0), the layout of
    LAPACK's xSYTRD/xHETRD; the diagonal and upper triangle are left as
    workspace.  Skew-symmetric input uses the rank-2 update A - p v^T + v p^T
    (the quadratic term vanishes because v^T A v = 0); symmetric or Hermitian
    input uses A - v w^H - w v^H.  The loop runs through k = m-2 so that the
    last coupling of a Hermitian matrix is rotated to a real number: diag and
    subdiag are real, taus has m-1 (for complex input complex) entries, and
    for real input the last tau is 0.
    """
    m = a.shape[0]
    taus = np.zeros(max(m - 1, 0), dtype=a.dtype)
    sub = np.zeros(max(m - 1, 0))
    for k in range(m - 1):
        v, tau, beta = _reflector(a[k + 1:, k])
        a[k + 1:, k] = v
        sub[k] = beta
        if tau == 0.0:
            continue
        taus[k] = tau
        blk = a[k + 1:, k + 1:]
        p = tau * (blk @ v)
        if skew:
            blk -= np.outer(p, v)
            blk += np.outer(v, p)
        else:
            pv = p - (0.5 * tau * (p.conj() @ v)) * v
            blk -= np.outer(v, pv.conj())
            blk -= np.outer(pv, v.conj())
    return np.diagonal(a).real.copy(), sub, taus


def _apply_reflectors(vs: np.ndarray, taus: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply the accumulated unitary factor U to c, reflector by reflector.
    U = P_0 P_1 ... applied on the left, with P_k = I - tau_k v_k v_k^H and
    v_k = vs[k+1:, k] as ``_reduce_to_tridiagonal`` stores it."""
    is_complex = np.iscomplexobj(c) or np.iscomplexobj(vs)
    out = np.array(c, dtype=np.complex128 if is_complex else np.float64)
    for k in range(len(taus) - 1, -1, -1):
        tau = taus[k]
        if tau == 0.0:
            continue
        v = vs[k + 1:, k]
        blk = out[k + 1:]
        blk -= np.outer(tau * v, v.conj() @ blk)
    return out


@dataclass(frozen=True)
class SkewTridiagonal:
    """Result of reducing a real skew-symmetric W to W = U T U^T with
    T = tridiag(alpha; 0; -alpha).  U is held in factored form and applied
    on demand: ``reflectors`` is the m x m array the reduction ran in, with
    reflector k in ``reflectors[k+1:, k]`` (leading one stored) and scalar
    ``taus[k]``; its diagonal and upper triangle are workspace."""

    alphas: np.ndarray
    reflectors: np.ndarray
    taus: np.ndarray

    @property
    def m(self) -> int:
        return self.reflectors.shape[0]

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        return _apply_reflectors(self.reflectors, self.taus, c)

    def q_matrix(self) -> np.ndarray:
        return self.apply_q(np.eye(self.m))

    def t_matrix(self) -> np.ndarray:
        return np.diag(self.alphas, 1) - np.diag(self.alphas, -1)


@dataclass(frozen=True)
class SymTridiagonal:
    """Real symmetric tridiagonal matrix; carries the orthogonal (unitary for
    Hermitian input) reduction factor when it came out of
    ``sym_tridiagonalize`` (None otherwise), in the layout of
    ``SkewTridiagonal``: reflector k in ``reflectors[k+1:, k]`` with scalar
    ``taus[k]``, the rest of ``reflectors`` workspace."""

    diag: np.ndarray
    offdiag: np.ndarray
    reflectors: np.ndarray | None = None
    taus: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.diag.shape[0]

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        if self.reflectors is None:
            return np.array(c)
        return _apply_reflectors(self.reflectors, self.taus, c)

    def q_matrix(self) -> np.ndarray:
        return self.apply_q(np.eye(self.m))

    def t_matrix(self) -> np.ndarray:
        return (np.diag(self.diag)
                + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1))


def skew_tridiagonalize(w: np.ndarray) -> SkewTridiagonal:
    """Reduce a real skew-symmetric matrix of even dimension to tridiagonal
    form by Householder reflections.

    The zero diagonal of T is exact by construction and never stored; only
    the superdiagonal coefficients alpha are kept.
    """
    w = _square(w, np.float64)
    if w.shape[0] % 2 != 0:
        raise ValueError("skew-symmetric reduction expects even dimension")
    check_structure(w, "skew-symmetric")
    w = 0.5 * (w - w.T)
    _, sub, taus = _reduce_to_tridiagonal(w, skew=True)
    # T[k+1, k] = sub[k], so the superdiagonal is its negation.
    return SkewTridiagonal(alphas=-sub, reflectors=w, taus=taus)


def sym_tridiagonalize(s: np.ndarray) -> SymTridiagonal:
    """Reduce a real symmetric or complex Hermitian matrix to a real
    symmetric tridiagonal T = Q^H S Q, keeping the orthogonal (unitary)
    factor Q as stored reflectors."""
    is_complex = np.iscomplexobj(s)
    s = _square(s, np.complex128 if is_complex else np.float64)
    check_structure(s, "Hermitian" if is_complex else "symmetric")
    s = 0.5 * (s + s.conj().T)
    diag, sub, taus = _reduce_to_tridiagonal(s, skew=False)
    return SymTridiagonal(diag=diag, offdiag=sub, reflectors=s, taus=taus)


def phase_fold(t: SkewTridiagonal) -> SymTridiagonal:
    """Fold the skew-symmetric tridiagonal T into the real symmetric
    tridiagonal -i D^H T D, where D = diag(i^0, i^1, ..., i^(m-1)).

    The similarity turns the (alpha, -alpha) off-diagonal pair into (alpha,
    alpha) and keeps the zero diagonal, so no arithmetic is performed: the
    coefficients are relabeled.  D is implicit and reappears in the
    eigenvector back-transformation.
    """
    return SymTridiagonal(diag=np.zeros(t.m), offdiag=np.array(t.alphas))


# ----------------------------------------------------------------------------
# Symmetric tridiagonal eigensolver: bisection + inverse iteration


def _pivmin(e: np.ndarray) -> float:
    return SAFMIN * max(1.0, float(np.max(e * e, initial=0.0)))


def _sturm_counts(d: np.ndarray, e: np.ndarray, xs: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in the batch xs, by
    the Sturm sequence of the shifted LDL^T factorization."""
    q = d[0] - xs
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = d[i] - xs - (e[i - 1] * e[i - 1]) / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
    return counts


def _bisect_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of an irreducible block of order >= 2 by
    bisection on Sturm counts.  Converges each interval to a width of
    2 eps (|a| + |b|) plus a tiny absolute floor."""
    indices = np.arange(d.shape[0])
    pivmin = _pivmin(e)
    radius = np.zeros(d.shape[0])
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo0 = float(np.min(d - radius))
    hi0 = float(np.max(d + radius))
    pad = 2.0 * EPS * max(abs(lo0), abs(hi0)) + 2.0 * pivmin
    lo = np.full(indices.shape[0], lo0 - pad)
    hi = np.full(indices.shape[0], hi0 + pad)
    for _ in range(160):
        width = hi - lo
        tol = 2.0 * EPS * (np.abs(lo) + np.abs(hi)) + 2.0 * SAFMIN
        if not np.any(width > tol):
            break
        mid = 0.5 * (lo + hi)
        counts = _sturm_counts(d, e, mid, pivmin)
        go_left = counts > indices
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
    return 0.5 * (lo + hi)


def _factor_shifted(d: np.ndarray, e: np.ndarray, lams: np.ndarray,
                    pivmin: float):
    """LU factorizations with partial pivoting of (T - lam I), vectorized
    over the batch of shifts.  U has two superdiagonals from pivoting."""
    m = d.shape[0]
    k = lams.shape[0]
    u0 = np.empty((m, k))
    u1 = np.empty((m - 1, k))
    u2 = np.zeros((m - 2, k))
    mult = np.empty_like(u1)
    swap = np.zeros(u1.shape, dtype=bool)

    def guarded(x):
        return np.where(np.abs(x) < pivmin, np.where(x < 0.0, -pivmin, pivmin), x)

    x = d[0] - lams
    y = np.full(k, e[0])
    for i in range(m - 1):
        sub = e[i]
        a_next = d[i + 1] - lams
        b_next = e[i + 1] if i + 1 < m - 1 else 0.0
        do_swap = np.abs(x) < abs(sub)
        swap[i] = do_swap
        xg = guarded(x)
        m_ns = sub / xg
        m_sw = x / sub if sub != 0.0 else np.zeros(k)
        mult[i] = np.where(do_swap, m_sw, m_ns)
        u0[i] = np.where(do_swap, sub, xg)
        u1[i] = np.where(do_swap, a_next, y)
        if i < m - 2:
            u2[i] = np.where(do_swap, b_next, 0.0)
        x = np.where(do_swap, y - m_sw * a_next, a_next - m_ns * y)
        y = np.where(do_swap, -m_sw * b_next, b_next)
    u0[m - 1] = guarded(x)
    return mult, swap, u0, u1, u2


def _solve_shifted(fact, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored batch of shifted systems for a batch of right-hand
    sides (one column per shift)."""
    mult, swap, u0, u1, u2 = fact
    m = u0.shape[0]
    w = np.array(rhs)
    for i in range(m - 1):
        top = np.where(swap[i], w[i + 1], w[i])
        bot = np.where(swap[i], w[i], w[i + 1])
        w[i] = top
        w[i + 1] = bot - mult[i] * top
    v = np.empty_like(w)
    v[m - 1] = w[m - 1] / u0[m - 1]
    v[m - 2] = (w[m - 2] - u1[m - 2] * v[m - 1]) / u0[m - 2]
    for i in range(m - 3, -1, -1):
        v[i] = (w[i] - u1[i] * v[i + 1] - u2[i] * v[i + 2]) / u0[i]
    return v


_START_SEED = 0x5EED


def _start_vectors(m: int, block_start: int, local_idx: np.ndarray) -> np.ndarray:
    """Deterministic random starting vectors, seeded per eigenvalue so that
    results do not depend on batching."""
    cols = np.empty((m, local_idx.shape[0]))
    for j, li in enumerate(local_idx):
        rng = np.random.default_rng((_START_SEED, block_start, int(li)))
        cols[:, j] = rng.uniform(-1.0, 1.0, m)
    return cols


def _block_vectors(d: np.ndarray, e: np.ndarray, lams: np.ndarray,
                   local_idx: np.ndarray, block_start: int) -> np.ndarray:
    """Inverse-iteration eigenvectors of an irreducible block for the given
    (ascending) eigenvalues, reorthogonalized by two Gram-Schmidt passes
    against every previously accepted vector of the block."""
    m = d.shape[0]
    if m == 1:
        return np.ones((1, lams.shape[0]))
    pivmin = _pivmin(e)
    anorm = float(np.max(np.abs(d) + np.concatenate([[0.0], np.abs(e)])
                         + np.concatenate([np.abs(e), [0.0]])))
    growth_ok = 1.0 / (10.0 * np.sqrt(m) * EPS * max(anorm, SAFMIN / EPS))

    def iterate(shifts, start):
        fact = _factor_shifted(d, e, shifts, pivmin)
        v = start / np.linalg.norm(start, axis=0)
        growth = np.zeros(shifts.shape[0])
        for _ in range(3):
            v = _solve_shifted(fact, v)
            # Rescale by the max entry first: a shift that hits an eigenvalue
            # to full precision produces entries near 1/pivmin, whose squares
            # overflow in a plain norm.
            amax = np.max(np.abs(v), axis=0)
            amax = np.where(amax == 0.0, SAFMIN, amax)
            v = v / amax
            nrm = np.linalg.norm(v, axis=0)
            nrm = np.where(nrm == 0.0, 1.0, nrm)
            growth = np.minimum(amax, 1e300) * nrm
            v = v / nrm
        return v, growth

    vecs, growth = iterate(lams, _start_vectors(m, block_start, local_idx))
    good = (growth >= growth_ok) & np.isfinite(vecs).all(axis=0)
    for j in np.flatnonzero(~good):
        rng = np.random.default_rng((_START_SEED, block_start, int(local_idx[j]), 1))
        for attempt in range(1, 6):
            shift = np.array([lams[j] + attempt * 10.0 * EPS * anorm])
            start = rng.uniform(-1.0, 1.0, (m, 1))
            v, g = iterate(shift, start)
            if g[0] >= growth_ok and np.isfinite(v[:, 0]).all():
                vecs[:, j] = v[:, 0]
                break
        else:
            raise ConvergenceError(
                f"inverse iteration did not converge for eigenvalue {float(lams[j])!r} "
                f"after 5 perturbed retries")

    # Two classical Gram-Schmidt passes against all previous vectors in the
    # block; cluster-only reorthogonalization leaves cross-vector defects of
    # order eps*|T|/gap, which is too coarse for the accuracy targets here.
    # For j = 0, prev is empty and each projection subtracts exact zeros.
    for j in range(vecs.shape[1]):
        z = vecs[:, j]
        prev = vecs[:, :j]
        for _ in range(2):
            z = z - prev @ (prev.T @ z)
        nrm = float(np.linalg.norm(z))
        if nrm < 1e-2:
            rng = np.random.default_rng((_START_SEED, block_start, int(local_idx[j]), 2))
            z = rng.uniform(-1.0, 1.0, m)
            z = z - prev @ (prev.T @ z)
            fact = _factor_shifted(d, e, lams[j:j + 1], pivmin)
            z = _solve_shifted(fact, (z / np.linalg.norm(z))[:, None])[:, 0]
            for _ in range(2):
                z = z - prev @ (prev.T @ z)
            nrm = float(np.linalg.norm(z))
        vecs[:, j] = z / nrm
    return vecs


def tridiag_eig(t: SymTridiagonal, which: str = "all", vectors: bool = True):
    """Eigenvalues (and optionally orthonormal eigenvectors) of a symmetric
    tridiagonal matrix by bisection and inverse iteration.

    Parameters
    ----------
    t : SymTridiagonal
    which : {'all', 'positive'}
        'all' returns every eigenvalue in ascending order.  'positive'
        requires an exactly zero diagonal (symmetric spectrum) and returns
        the m/2 algebraically largest eigenvalues in descending order.
    vectors : bool
        Skip the inverse-iteration stage entirely when False (values only).

    Returns
    -------
    (values, vectors) with vectors None when not requested.
    """
    d = np.asarray(t.diag, dtype=np.float64)
    e = np.asarray(t.offdiag, dtype=np.float64)
    m = d.shape[0]
    if which not in ("all", "positive"):
        raise ValueError("which must be 'all' or 'positive'")
    if which == "positive":
        if m % 2 != 0:
            raise ValueError("'positive' needs an even dimension")
        if np.any(d != 0.0):
            raise ValueError("'positive' requires an exactly zero diagonal")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConvergenceError("tridiagonal eigensolver: T has non-finite entries "
                               "(overflow in the reduction that produced it)")

    # Irreducible blocks [i0, i1): split where a coupling is negligible.
    cuts = (np.flatnonzero(np.abs(e) <= EPS * (np.abs(d[:-1]) + np.abs(d[1:]))) + 1).tolist()
    blocks = list(zip([0, *cuts], [*cuts, m]))
    lam = np.concatenate([d[i0:i1] if i1 - i0 < 2
                          else _bisect_values(d[i0:i1], e[i0:i1 - 1])
                          for i0, i1 in blocks])
    # Ties in value go to the lower position, i.e. by block, then local index.
    order = np.argsort(lam, kind="stable")
    if which == "positive":
        order = order[m // 2:][::-1]
    if not vectors:
        return lam[order], None

    # pos: the selected positions in ascending order, hence grouped by block
    # and ascending in local index within one; cols: their output columns.
    cols = np.argsort(order)
    pos = order[cols]
    vec = np.zeros((m, order.shape[0]))
    for i0, i1 in blocks:
        lo, hi = np.searchsorted(pos, (i0, i1))
        if lo < hi:
            vec[i0:i1, cols[lo:hi]] = _block_vectors(
                d[i0:i1], e[i0:i1 - 1], lam[pos[lo:hi]], pos[lo:hi] - i0, i0)
    return lam[order], vec


# ----------------------------------------------------------------------------
# One-sided Jacobi SVD


#: Sweep budget of ``jacobi_svd`` before it raises ConvergenceError.
JACOBI_MAX_SWEEPS = 30


def jacobi_svd(c: np.ndarray):
    """Singular value decomposition C = U diag(sigma) V^T of a real square
    matrix by one-sided Jacobi rotations.

    Sweeps run until every rotation falls below the threshold
    sqrt(m) * eps; singular values come out descending (ties broken stably
    by original column index).
    """
    u = _square(c, np.float64).copy()
    m = u.shape[0]
    v = np.eye(m)
    tol = np.sqrt(m) * EPS
    for _ in range(JACOBI_MAX_SWEEPS):
        g = u.T @ u  # fresh Gram matrix each sweep to stop drift
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                app, aqq, apq = g[p, p], g[q, q], g[p, q]
                if abs(apq) <= tol * np.sqrt(app) * np.sqrt(aqq):
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                if zeta >= 0.0:
                    tan = 1.0 / (zeta + np.sqrt(1.0 + zeta * zeta))
                else:
                    tan = 1.0 / (zeta - np.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / np.sqrt(1.0 + tan * tan)
                sn = tan * cs
                for mat in (u, v):
                    colp = mat[:, p].copy()
                    mat[:, p] = cs * colp - sn * mat[:, q]
                    mat[:, q] = sn * colp + cs * mat[:, q]
                gp = g[:, p].copy()
                g[:, p] = cs * gp - sn * g[:, q]
                g[:, q] = sn * gp + cs * g[:, q]
                g[p, :] = g[:, p]
                g[q, :] = g[:, q]
                g[p, p] = app - tan * apq
                g[q, q] = aqq + tan * apq
                g[p, q] = g[q, p] = 0.0
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps")

    sigma = np.linalg.norm(u, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = u[:, order]
    v = v[:, order]
    floor = m * EPS * (sigma[0] if sigma.size else 0.0)
    for j in range(m):
        if sigma[j] > floor:
            u[:, j] /= sigma[j]
        else:
            # Deterministic completion of a rank-deficient column.
            for k in range(m):
                cand = np.zeros(m)
                cand[k] = 1.0
                cand -= u[:, :j] @ (u[:, :j].T @ cand)
                nrm = float(np.linalg.norm(cand))
                if nrm > 0.5:
                    u[:, j] = cand / nrm
                    break
    return u, sigma, v


# ----------------------------------------------------------------------------
# Complex Hermitian eigensolver


def hermitian_eig(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a complex Hermitian matrix at its own order.

    A is reduced by complex Householder reflections to a real symmetric
    tridiagonal T = Q^H A Q, T is solved by bisection/inverse iteration, and
    the real eigenvectors of T are mapped back through Q.

    Returns (values descending, vectors) with unit orthonormal columns;
    vectors is None when not requested.
    """
    st = sym_tridiagonalize(np.asarray(a, dtype=np.complex128))
    values, vecs = tridiag_eig(st, which="all", vectors=vectors)
    if not vectors:
        return values[::-1], None
    return values[::-1], st.apply_q(vecs[:, ::-1])
