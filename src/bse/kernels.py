"""Self-contained dense factorization and eigensolver kernels.

Everything here is built directly on ndarray arithmetic: Cholesky,
Householder tridiagonalization of symmetric and skew-symmetric matrices, a
bisection (Sturm sequence) plus inverse-iteration eigensolver for symmetric
tridiagonal matrices, one-sided Jacobi SVD, and a complex Hermitian
eigensolver realized entirely in real arithmetic through the doubling
embedding.  No LAPACK-backed factorization or eigensolver is called in this
module; ``numpy.linalg`` is used for norms only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import embed_hermitian

EPS = float(np.finfo(np.float64).eps)
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


# ----------------------------------------------------------------------------
# Cholesky


def cholesky(s: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower-triangular factor L with L L^H = S for a symmetric (or complex
    Hermitian) positive definite S.  The diagonal of L is strictly positive.

    Raises NotPositiveDefinite carrying the index and value of the first
    nonpositive pivot.  ``what`` labels the matrix in the error message.
    """
    s = np.asarray(s)
    m = s.shape[0]
    if s.ndim != 2 or s.shape != (m, m):
        raise ValueError("cholesky needs a square matrix")
    is_complex = np.iscomplexobj(s)
    low = np.array(s, dtype=np.complex128 if is_complex else np.float64)
    for j in range(m):
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


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Householder vector v (v[0] = 1) and tau with (I - tau v v^T) x = beta e1.

    tau = 0 signals that x is already of the required form.
    """
    tail_norm = float(np.linalg.norm(x[1:]))
    if tail_norm == 0.0:
        return np.zeros_like(x), 0.0, float(x[0])
    x0 = float(x[0])
    beta = -np.copysign(np.hypot(x0, tail_norm), x0 if x0 != 0.0 else 1.0)
    v0 = x0 - beta
    v = x / v0
    v[0] = 1.0
    tau = -v0 / beta
    return v, float(tau), float(beta)


def _reduce_to_tridiagonal(w: np.ndarray, skew: bool):
    """Householder similarity reduction; returns (diag, subdiag, vs, taus).

    The reflector for column k is stored in vs[k+1:, k] with implicit leading
    one; skew-symmetric input uses the rank-2 update A - p v^T + v p^T (the
    quadratic term vanishes because v^T A v = 0), symmetric input the usual
    A - v w^T - w v^T.
    """
    m = w.shape[0]
    a = np.array(w, dtype=np.float64)
    vs = np.zeros((m, m))
    taus = np.zeros(m - 2 if m > 2 else 0)
    sub = np.zeros(m - 1 if m > 1 else 0)
    for k in range(m - 2):
        v, tau, beta = _reflector(a[k + 1:, k].copy())
        sub[k] = beta
        if tau == 0.0:
            continue
        vs[k + 1:, k] = v
        taus[k] = tau
        blk = a[k + 1:, k + 1:]
        p = tau * (blk @ v)
        if skew:
            blk -= np.outer(p, v)
            blk += np.outer(v, p)
        else:
            pv = p - (0.5 * tau * (p @ v)) * v
            blk -= np.outer(v, pv)
            blk -= np.outer(pv, v)
    if m > 1:
        sub[m - 2] = a[m - 1, m - 2]
    return np.diagonal(a).copy(), sub, vs, taus


def _apply_reflectors(vs: np.ndarray, taus: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply the accumulated orthogonal factor U to c, reflector by
    reflector.  U = P_0 P_1 ... applied on the left."""
    out = np.array(c, dtype=np.complex128 if np.iscomplexobj(c) else np.float64)
    for k in range(len(taus) - 1, -1, -1):
        tau = taus[k]
        if tau == 0.0:
            continue
        v = vs[k + 1:, k]
        blk = out[k + 1:]
        blk -= np.outer(tau * v, v @ blk)
    return out


@dataclass(frozen=True)
class SkewTridiagonal:
    """Result of reducing a real skew-symmetric W to W = U T U^T with
    T = tridiag(alpha; 0; -alpha).  U is held in factored reflector form and
    applied on demand."""

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
    """Symmetric tridiagonal matrix; carries the orthogonal reduction factor
    when it came out of ``sym_tridiagonalize`` (None otherwise)."""

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
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[0]
    if w.ndim != 2 or w.shape != (m, m):
        raise ValueError("input must be square")
    if m % 2 != 0:
        raise ValueError("skew-symmetric reduction expects even dimension")
    nrm = float(np.linalg.norm(w))
    if float(np.linalg.norm(w + w.T)) > 100.0 * EPS * max(1.0, nrm):
        raise ValueError("input is not skew-symmetric within tolerance")
    w = 0.5 * (w - w.T)
    _, sub, vs, taus = _reduce_to_tridiagonal(w, skew=True)
    # T[k+1, k] = sub[k], so the superdiagonal is its negation.
    return SkewTridiagonal(alphas=-sub, reflectors=vs, taus=taus)


def sym_tridiagonalize(s: np.ndarray) -> SymTridiagonal:
    """Reduce a real symmetric matrix to tridiagonal form, keeping the
    orthogonal factor as stored reflectors."""
    s = np.asarray(s, dtype=np.float64)
    m = s.shape[0]
    if s.ndim != 2 or s.shape != (m, m):
        raise ValueError("input must be square")
    nrm = float(np.linalg.norm(s))
    if float(np.linalg.norm(s - s.T)) > 100.0 * EPS * max(1.0, nrm):
        raise ValueError("input is not symmetric within tolerance")
    s = 0.5 * (s + s.T)
    diag, sub, vs, taus = _reduce_to_tridiagonal(s, skew=False)
    return SymTridiagonal(diag=diag, offdiag=sub, reflectors=vs, taus=taus)


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


def sturm_count(diag: np.ndarray, offdiag: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below x, by the Sturm sequence of the shifted LDL^T factorization."""
    counts = _sturm_counts(np.asarray(diag, dtype=np.float64),
                           np.asarray(offdiag, dtype=np.float64),
                           np.array([float(x)]),
                           _pivmin(np.asarray(offdiag, dtype=np.float64)))
    return int(counts[0])


def _pivmin(e: np.ndarray) -> float:
    emax2 = float(np.max(e * e)) if e.size else 0.0
    return SAFMIN * max(1.0, emax2)


def _sturm_counts(d: np.ndarray, e: np.ndarray, xs: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """Vectorized Sturm count for a batch of shifts xs."""
    q = d[0] - xs
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    counts = (q < 0.0).astype(np.int64)
    for i in range(1, d.shape[0]):
        q = d[i] - xs - (e[i - 1] * e[i - 1]) / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        counts += q < 0.0
    return counts


def _bisect_values(d: np.ndarray, e: np.ndarray, indices: np.ndarray,
                   pivmin: float) -> np.ndarray:
    """Eigenvalues (ascending 0-based ``indices``) of an irreducible block by
    bisection on Sturm counts.  Converges each interval to a width of
    2 eps (|a| + |b|) plus a tiny absolute floor."""
    radius = np.zeros(d.shape[0])
    if e.size:
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
    u1 = np.empty((m - 1, k)) if m > 1 else np.empty((0, k))
    u2 = np.zeros((m - 2, k)) if m > 2 else np.zeros((0, k))
    mult = np.empty_like(u1)
    swap = np.zeros(u1.shape, dtype=bool)

    def guarded(x):
        return np.where(np.abs(x) < pivmin, np.where(x < 0.0, -pivmin, pivmin), x)

    x = d[0] - lams
    y = np.full(k, e[0]) if m > 1 else np.zeros(k)
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
    if m > 1:
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
        ok = False
        for attempt in range(1, 6):
            shift = np.array([lams[j] + attempt * 10.0 * EPS * anorm])
            start = rng.uniform(-1.0, 1.0, (m, 1))
            v, g = iterate(shift, start)
            if g[0] >= growth_ok and np.isfinite(v[:, 0]).all():
                vecs[:, j] = v[:, 0]
                ok = True
                break
        if not ok:
            raise ConvergenceError(
                f"inverse iteration did not converge for eigenvalue {lams[j]!r} "
                f"after 5 perturbed retries")

    # Two classical Gram-Schmidt passes against all previous vectors in the
    # block; cluster-only reorthogonalization leaves cross-vector defects of
    # order eps*|T|/gap, which is too coarse for the accuracy targets here.
    for j in range(vecs.shape[1]):
        z = vecs[:, j]
        if j:
            prev = vecs[:, :j]
            for _ in range(2):
                z = z - prev @ (prev.T @ z)
        nrm = float(np.linalg.norm(z))
        if nrm < 1e-2:
            rng = np.random.default_rng((_START_SEED, block_start, int(local_idx[j]), 2))
            z = rng.uniform(-1.0, 1.0, m)
            if j:
                prev = vecs[:, :j]
                z = z - prev @ (prev.T @ z)
            fact = _factor_shifted(d, e, lams[j:j + 1], pivmin)
            z = _solve_shifted(fact, (z / np.linalg.norm(z))[:, None])[:, 0]
            if j:
                for _ in range(2):
                    z = z - prev @ (prev.T @ z)
            nrm = float(np.linalg.norm(z))
        vecs[:, j] = z / nrm
    return vecs


def _split_blocks(d: np.ndarray, e: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of the irreducible tridiagonal blocks."""
    m = d.shape[0]
    blocks = []
    start = 0
    for i in range(m - 1):
        if abs(e[i]) <= EPS * (abs(d[i]) + abs(d[i + 1])):
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, m))
    return blocks


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

    blocks = _split_blocks(d, e)
    per_block = []
    tagged = []
    for bi, (i0, i1) in enumerate(blocks):
        db, eb = d[i0:i1], e[i0:i1 - 1]
        if i1 - i0 == 1:
            vals = np.array([db[0]])
        else:
            vals = _bisect_values(db, eb, np.arange(i1 - i0), _pivmin(eb))
        per_block.append(vals)
        tagged.extend((v, bi, li) for li, v in enumerate(vals))
    tagged.sort(key=lambda r: (r[0], r[1], r[2]))

    if which == "positive":
        selected = tagged[m // 2:][::-1]
    else:
        selected = tagged
    values = np.array([r[0] for r in selected])
    if not vectors:
        return values, None

    # Per block, (local index, output column) of every selected eigenvalue.
    wanted: dict[int, list[tuple[int, int]]] = {}
    for col, (_, bi, li) in enumerate(selected):
        wanted.setdefault(bi, []).append((li, col))

    vec = np.zeros((m, len(selected)))
    for bi, pairs in wanted.items():
        pairs.sort()
        local = np.array([li for li, _ in pairs])
        i0, i1 = blocks[bi]
        vec[i0:i1, [col for _, col in pairs]] = _block_vectors(
            d[i0:i1], e[i0:i1 - 1], per_block[bi][local], local, i0)
    return values, vec


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
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    if c.ndim != 2 or c.shape != (m, m):
        raise ValueError("jacobi_svd expects a square real matrix")
    u = c.copy()
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
# Complex Hermitian eigensolver via the real doubling embedding


def hermitian_eig(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a complex Hermitian matrix, computed entirely in
    real arithmetic.

    The matrix is doubled into a real symmetric matrix whose spectrum equals
    that of A with multiplicity two, reduced to tridiagonal form, and solved
    by bisection/inverse iteration.  Doubled eigenvalues are paired and one
    complex eigenvector per pair is extracted via z = p - i q; within a
    degenerate cluster the extracted vectors are orthonormalized by pivoted
    Gram-Schmidt.

    Returns (values descending, vectors) with unit orthonormal columns;
    vectors is None when not requested.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), (np.zeros((0, 0), dtype=np.complex128) if vectors else None)
    atil = embed_hermitian(a)
    st = sym_tridiagonalize(atil)
    vals2, vecs2 = tridiag_eig(st, which="all", vectors=vectors)
    order = np.argsort(-vals2, kind="stable")
    vals2 = vals2[order]
    values = 0.5 * (vals2[0::2] + vals2[1::2])
    if not vectors:
        return values, None

    real_vecs = st.apply_q(vecs2[:, order])
    scale = max(1.0, float(np.max(np.abs(vals2))))
    dtol = 20.0 * n * EPS * scale
    z = np.empty((n, n), dtype=np.complex128)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop - 1] - values[stop] <= dtol:
            stop += 1
        k = stop - start
        cand = real_vecs[:n, 2 * start:2 * stop] - 1j * real_vecs[n:, 2 * start:2 * stop]
        z[:, start:stop] = _pivoted_orthonormal(cand, k)
        start = stop
    return values, z


def _pivoted_orthonormal(cand: np.ndarray, k: int) -> np.ndarray:
    """Select k orthonormal columns from the candidate span, largest residual
    first, with a second Gram-Schmidt pass for full orthogonality."""
    work = cand.astype(np.complex128, copy=True)
    out = np.empty((cand.shape[0], k), dtype=np.complex128)
    for t in range(k):
        norms = np.linalg.norm(work, axis=0)
        j = int(np.argmax(norms))
        u = work[:, j] / norms[j]
        if t:
            prev = out[:, :t]
            u = u - prev @ (prev.conj().T @ u)
            u = u / np.linalg.norm(u)
        out[:, t] = u
        work -= np.outer(u, u.conj() @ work)
    return out
