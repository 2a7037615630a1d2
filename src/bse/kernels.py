"""Self-contained dense factorization and eigensolver kernels, built directly
on ndarray arithmetic: Cholesky; one blocked Householder tridiagonalization
for symmetric, skew-symmetric and complex Hermitian matrices; bisection on
IEEE Sturm counts plus inverse iteration for symmetric tridiagonal matrices;
one-sided Jacobi SVD; and a complex Hermitian eigensolver built from these.
The tridiagonalization keeps a panel's reflectors and update vectors
interleaved in one array beside its conjugate mirror, so that reducing a
column takes one matrix-vector product with the trailing matrix and three
with the panel; the reflectors are applied back in compact-WY blocks of 64.
A Sturm count is the inertia of a twisted factorization of T - x I, whose
forward and backward pivot chains run from both ends of T at once and meet
in the middle; it equals the LDL^T count by Sylvester's law of inertia.
Inverse iteration shares one shift within each group of eigenvalues closer
than 1e3 eps |T|, orthonormalizes all vectors as one block by CholeskyQR2
and separates each group's vectors by a Rayleigh-Ritz step; a failed column
restarts once from a seeded random start.  Both reductions, the tridiagonal
eigensolver and the Jacobi SVD scale their input by an exact power of two to
a largest entry in [0.5, 1), so scaling the input by a power of two scales
the values exactly and leaves the vectors bit-identical.  Each public kernel
makes one working copy of its input, which it leaves as it was (``cholesky``
its factor, a reduction its scaled, (anti)symmetrized copy); other
temporaries are panel-sized.  No LAPACK-backed routine is called;
``numpy.linalg`` is used for norms only.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .core import EPS, _frob, _scale_exponent, _symmetrize, check_structure

SAFMIN = float(np.finfo(np.float64).tiny)

#: Pivot guard of inverse iteration and pad of the bisection interval on a normalized
#: block; 1/PIVMIN ~ 1e292 leaves a guarded solve ~1e16 of headroom below overflow.
PIVMIN = SAFMIN / EPS

_STURM_ROWS = 64  # rows of the pivot buffer of ``_sturm_counts``


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

#: Columns per panel of ``_cholesky`` and of ``_cholesky_qr``'s solve, and
#: reflectors per compact-WY block of ``_Reflected.apply_q``.
_PANEL = 64


def cholesky(s: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower-triangular factor L with L L^H = S for a symmetric (or complex
    Hermitian) positive definite S.  The diagonal of L is strictly positive.
    L is the one working copy, factored in place; S is left as it was.

    Raises NotPositiveDefinite carrying the index and value of the first
    nonpositive pivot.  ``what`` labels the matrix in the error message.
    """
    s = _square(s, np.complex128 if np.iscomplexobj(s) else np.float64)
    return _cholesky(np.array(s), what)


def _cholesky(low: np.ndarray, what: str) -> np.ndarray:
    """``cholesky`` of the square array low, in place, as LAPACK's xPOTRF: a
    GEMM brings each panel of _PANEL columns up to date, and a column loop
    factors it, held transposed so that its columns are contiguous.  Kernels
    call it directly, so a wrapper of ``cholesky`` sees only outside calls."""
    for j0 in range(0, low.shape[0], _PANEL):
        j1 = j0 + _PANEL
        p = low[j0:, j0:j1].T.copy()
        p -= low[j0:j1, :j0].conj() @ low[j0:, :j0].T
        for j in range(p.shape[0]):
            p[j, j:] -= p[:j, j].conj() @ p[:j, j:]
            pivot = float(p[j, j].real)
            if not pivot > 0.0:
                raise NotPositiveDefinite(j0 + j, pivot, what)
            dj = np.sqrt(pivot)
            p[j, :j], p[j, j] = 0.0, dj
            p[j, j + 1:] /= dj
        low[j0:, j0:j1] = p.T
        low[j0:j1, j1:] = 0.0
    return low


# ----------------------------------------------------------------------------
# Householder tridiagonalization


def _reflector(x: np.ndarray) -> tuple[np.ndarray, float | complex, float]:
    """Householder vector v (v[0] = 1) and tau with H^H x = beta e1, where
    H = I - tau v v^H, beta is real and tau is complex for complex x.

    tau = 0 signals that x is already of the required form.  A complex x
    whose tail is zero but whose head is not real still needs the
    phase-only reflector that makes beta real.  The tail norm is the square
    root of a plain sum of squares while that sum is finite and at least
    2**-800, where underflowed squares are below its rounding; ``_frob``
    otherwise.
    """
    tail = x[1:]
    ss = float(np.vdot(tail, tail).real)
    tail_norm = np.sqrt(ss) if 2.0 ** -800 <= ss < np.inf else _frob(tail)
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


#: Columns per panel of ``_reduce_to_tridiagonal`` (``apply_q`` applies
#: its reflectors in blocks of _PANEL).
_NB = 32


def _reduce_to_tridiagonal(a: np.ndarray, skew: bool):
    """Blocked Householder similarity reduction of a, in place; returns
    (diag, subdiag, taus).

    Reflector k overwrites column k below the diagonal, a[k+1:, k], with its
    leading one stored (a zero column where tau_k = 0), the layout of
    LAPACK's xSYTRD/xHETRD; the diagonal and upper triangle are left as
    workspace.  Columns are reduced in panels of _NB, as in xLATRD (Dongarra,
    Hammarling & Sorensen, 1989; the skew panel as in PFAPACK, Wimmer 2012):
    within a panel the trailing matrix is A - W V^H - s V W^H, with s = -1
    for skew-symmetric input (w_k = tau_k A v_k, since v^T A v = 0) and
    s = 1 for symmetric or Hermitian input (w_k = p - tau_k/2 (p^H v_k) v_k
    with p = tau_k A v_k).  The panel keeps v and w interleaved in one array
    Z = [v_0 w_0 v_1 w_1 ...], so that over any prefix of the panel
    W V^H + s V W^H = Z S Z^H, S block diagonal with blocks [[0, s], [1, 0]],
    and beside it X = conj(Z S^T) = [s conj(w_0), conj(v_0), ...], written
    column by column as v_k and w_k are formed.  As X^T = S Z^H, column k
    costs one GEMV with the trailing matrix and three with the panel: its
    update is Z x_k^T, x_k the row of X at row k, and the correction to
    A v_k is Z (X^T v_k), with no conjugated or pair-swapped copy of either.  The trailing matrix is
    updated once per panel, as Z X^T.  Both arrays are allocated once per
    reduction.  The loop runs through k = m-2 so that the last coupling of a
    Hermitian matrix is rotated to a real number: diag and subdiag are real,
    taus has m-1 (for complex input complex) entries, and for real input the
    last tau is 0.
    """
    m = a.shape[0]
    s = -1.0 if skew else 1.0
    cplx = np.iscomplexobj(a)
    taus = np.zeros(max(m - 1, 0), dtype=a.dtype)
    sub = np.zeros(max(m - 1, 0))
    # Into X's columns: conj(v), and s conj(w).
    cj = np.conjugate if cplx else np.positive
    scj = np.negative if skew else cj
    # Z and X of every panel are views of two arrays allocated once.
    zbuf = np.empty((m, 2 * _NB), dtype=a.dtype)
    xbuf = np.empty_like(zbuf)
    for r in range(0, m - 1, _NB):
        nb = min(_NB, m - 1 - r)
        # Panel rows r:, so Z[i, 2j] = v_j and Z[i, 2j+1] = w_j at row r+i,
        # X[i, 2j] = s conj(w_j) and X[i, 2j+1] = conj(v_j).  Rows i <= j of
        # columns 2j and 2j+1 are never read, so neither array is cleared.
        z, x = zbuf[:m - r, :2 * nb], xbuf[:m - r, :2 * nb]
        for j in range(nb):
            k, zp, xp = r + j, z[:, :2 * j], x[:, :2 * j]
            a[k:, k] -= zp[j:] @ xp[j]
            vk, taus[k], sub[k] = _reflector(a[k + 1:, k])
            a[k + 1:, k] = z[j + 1:, 2 * j] = vk
            cj(vk, out=x[j + 1:, 2 * j + 1])
            p = a[k + 1:, k + 1:] @ vk
            p -= zp[j + 1:] @ (vk @ xp[j + 1:])
            p *= taus[k]
            if not skew:
                p -= (0.5 * taus[k] * np.vdot(p, vk)) * vk
            z[j + 1:, 2 * j + 1] = p
            scj(p, out=x[j + 1:, 2 * j])
        # A -= Z S Z^H = Z X^T past the panel, one GEMM per _NB rows: a
        # product the size of the trailing matrix would raise peak memory.
        trailing = a[r + nb:, r + nb:]
        for i in range(0, m - r - nb, _NB):
            trailing[i:i + _NB] -= z[nb + i:nb + i + _NB] @ x[nb:].T
    return np.diagonal(a).real.copy(), sub, taus


class _Reflected:
    """The reduction factor U = P_0 P_1 ... of a tridiagonal result (whose
    fields ``reflectors`` and ``taus`` and order ``m`` a subclass declares),
    held in factored form and applied on demand: ``reflectors`` is the m x m
    array the reduction ran in, with P_k = I - tau_k v_k v_k^H, v_k stored in
    ``reflectors[k+1:, k]`` (leading one stored) and tau_k in ``taus[k]``;
    its diagonal and upper triangle are workspace.  With no ``reflectors``
    the factor is the identity."""

    def apply_q(self, c: np.ndarray) -> np.ndarray:
        """U c.  Each block of _PANEL reflectors is applied at once in
        compact-WY form (Schreiber & Van Loan, 1989), P_k0 ... P_k1-1 =
        I - V T V^H with T upper triangular as xLARFT builds it, the last
        block first.  The product is taken as (V T) (V^H C): on perfbench's
        batch-small inputs the residuals came out about 2 % lower than with
        V (T (V^H C)), at the same speed."""
        vs, taus = self.reflectors, self.taus
        if vs is None:
            return np.array(c)
        is_complex = np.iscomplexobj(c) or np.iscomplexobj(vs)
        out = np.array(c, dtype=np.complex128 if is_complex else np.float64)
        for k0 in reversed(range(0, len(taus), _PANEL)):
            tau = taus[k0:k0 + _PANEL]
            # Above each stored reflector lies workspace, which tril zeroes.
            v = np.tril(vs[k0 + 1:, k0:k0 + tau.shape[0]])
            vh = v.conj().T if np.iscomplexobj(v) else v.T
            vhv = vh @ v
            t = np.diag(tau)
            for i in range(1, tau.shape[0]):
                t[:i, i] = -tau[i] * (t[:i, :i] @ vhv[:i, i])
            blk = out[k0 + 1:]
            blk -= (v @ t) @ (vh @ blk)
        return out

    def q_matrix(self) -> np.ndarray:
        return self.apply_q(np.eye(self.m))


@dataclass(frozen=True)
class SkewTridiagonal(_Reflected):
    """Result of reducing a real skew-symmetric W to W = U T U^T with
    T = tridiag(alpha; 0; -alpha), U held as ``_Reflected`` describes."""

    alphas: np.ndarray
    reflectors: np.ndarray
    taus: np.ndarray

    @property
    def m(self) -> int:
        return self.reflectors.shape[0]

    def t_matrix(self) -> np.ndarray:
        return np.diag(self.alphas, 1) - np.diag(self.alphas, -1)


@dataclass(frozen=True)
class SymTridiagonal(_Reflected):
    """Real symmetric tridiagonal matrix; carries the orthogonal (unitary for
    Hermitian input) reduction factor, as ``_Reflected`` describes, when it
    came out of ``sym_tridiagonalize`` (None otherwise)."""

    diag: np.ndarray
    offdiag: np.ndarray
    reflectors: np.ndarray | None = None
    taus: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.diag.shape[0]

    def t_matrix(self) -> np.ndarray:
        return (np.diag(self.diag)
                + np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1))


def skew_tridiagonalize(w: np.ndarray) -> SkewTridiagonal:
    """Reduce a real skew-symmetric matrix of even dimension to tridiagonal
    form by Householder reflections, run on the working copy 0.5 (W - W^T)
    scaled by an exact power of two to a largest entry in [0.5, 1), where
    rounding in entries that vanish in exact arithmetic stays normal.  The
    zero diagonal of T is exact by construction and never stored; only the
    superdiagonal alpha is kept, scaled back.
    """
    w = _square(w, np.float64)
    if w.shape[0] % 2 != 0:
        raise ValueError("skew-symmetric reduction expects even dimension")
    check_structure(w, "skew-symmetric")
    e = _scale_exponent(w)
    w = _symmetrize(np.ldexp(w, -e), np.negative)
    _, sub, taus = _reduce_to_tridiagonal(w, skew=True)
    # T[k+1, k] = sub[k], so the superdiagonal is its negation.
    return SkewTridiagonal(alphas=np.ldexp(-sub, e), reflectors=w, taus=taus)


def sym_tridiagonalize(s: np.ndarray) -> SymTridiagonal:
    """Reduce a real symmetric or complex Hermitian matrix to a real
    symmetric tridiagonal T = Q^H S Q, keeping the orthogonal (unitary)
    factor Q as stored reflectors.  As ``skew_tridiagonalize``, it runs on
    the working copy 0.5 (S + S^H), exactly scaled, and scales T back."""
    is_complex = np.iscomplexobj(s)
    s = _square(s, np.complex128 if is_complex else np.float64)
    check_structure(s, "Hermitian" if is_complex else "symmetric")
    e = _scale_exponent(s)
    s = _symmetrize(s * np.ldexp(1.0, -e))
    diag, sub, taus = _reduce_to_tridiagonal(s, skew=False)
    return SymTridiagonal(diag=np.ldexp(diag, e), offdiag=np.ldexp(sub, e),
                          reflectors=s, taus=taus)


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


def _sturm_counts(d: np.ndarray, e: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in the batch xs, for
    a T of order m >= 2: the count of nonnegative pivots of the twisted
    factorization T - x I = N_t D_t N_t^T at t = m // 2 (Fernando, SIMAX 18,
    1997), negated as r = -q.  By Sylvester's law of inertia D_t has as many
    negative entries as the LDL^T pivots, so this is the Sturm count.

    The forward chain r_i = (x - d_i) - e_{i-1}^2 / r_{i-1} covers rows
    0..t-1 and the backward chain r_j = (x - d_j) - e_j^2 / r_{j+1} rows
    m-1..t+1 (one row fewer for even m); step i advances forward row i and
    backward row m-1-i as one (2, k) row of the pivot buffer.  Both run
    unguarded: a zero pivot is +0, counts and makes its successor -inf, as
    a guard q = -PIVMIN would, where in the q form its sign would decide
    (Demmel, Dhillon & Ren, ETNA 3, 1995).  The twist pivot
    gamma = (x - d_t) - e_{t-1}^2 / r_{t-1} - e_t^2 / r_{t+1} (no last term
    for m = 2) counts as gamma >= 0, tested as
    (x - d_t) - e_{t-1}^2 / r_{t-1} >= e_t^2 / r_{t+1}: the same test where
    gamma is defined, and a counted zero pivot where its two quotients are
    infinite with opposite signs (each overflowed from a tiny pivot).  No
    NaN can occur: squares are floored at SAFMIN, so no quotient is 0/0 or
    inf/inf; every pivot is the finite x - d minus one quotient; and the
    twist compares its terms instead of adding them.  Shifts of -0.0 become
    +0.0, so no pivot is -0 and a zero pivot's quotient is +inf."""
    m, k = d.shape[0], xs.shape[0]
    t = m // 2
    xs, e2 = xs + 0.0, np.maximum(e * e, SAFMIN)
    # Step i's two diagonal entries and, from step 1 on, the squared couplings
    # to the rows its two chains came from.
    pair_d = np.stack((d[:t], d[:m - 1 - t:-1]), axis=1).ravel()
    pair_e2 = np.stack((e2[:t - 1], e2[:m - 1 - t:-1]), axis=1)
    # [1, -d] @ [x; 1] is x - d exactly (it adds the exact products x and -d
    # once), and BLAS writes it twice as fast as a subtract broadcasting d.
    ones_d, x_ones = np.stack((np.ones(2 * t), -pair_d), axis=1), np.stack((xs, np.ones(k)))
    rows = min(t, _STURM_ROWS)
    # r[0] is the previous fill's last step; quot holds numerators, then
    # quotients, as full (2, k) rows (a broadcast numerator divides slower).
    # One allocation for both: as two, malloc returned them to the system
    # and every sweep faulted their pages in again.
    buf = np.empty((2 * rows + 1, 2, k))
    r, quot = buf[:rows + 1], buf[rows + 1:]
    ok = np.empty((2 * rows, k), dtype=bool)
    pivots, quots = list(r), list(quot)
    counts = np.zeros(k, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for c0 in range(0, t, _STURM_ROWS):
            n, i0 = min(t - c0, _STURM_ROWS), 1 if c0 == 0 else 0
            r[0] = r[-1]
            np.matmul(ones_d[2 * c0:2 * (c0 + n)], x_ones, out=r[1:n + 1].reshape(2 * n, k))
            np.copyto(quot[i0:n], pair_e2[c0 + i0 - 1:c0 + n - 1, :, None])
            for i in range(i0, n):
                np.divide(quots[i], pivots[i], out=quots[i])
                np.subtract(pivots[i + 1], quots[i], out=pivots[i + 1])
            # Rows alternate forward, backward; the m-1 before the twist lead.
            # At most 2 _STURM_ROWS of them: uint8 sums do not wrap.
            v = min(2 * n, m - 1 - 2 * c0)
            np.greater_equal(r[1:n + 1].reshape(2 * n, k)[:v], 0.0, out=ok[:v])
            counts += np.add.reduce(ok[:v].view(np.uint8), axis=0, dtype=np.uint8)
        before = (xs - d[t]) - e2[t - 1] / r[n, 0]
        after = e2[t] / r[n - 1 + m % 2, 1] if m > 2 else 0.0
        counts += before >= after
    return counts


def _bisect_values(d: np.ndarray, e: np.ndarray, first: int = 0) -> np.ndarray:
    """Eigenvalues first..b-1, ascending, of an irreducible block of order
    b >= 2, scaled as ``tridiag_eig`` scales it, by bisection on Sturm
    counts; converges each interval to a width of 2 eps (|a| + |b|) plus a
    tiny absolute floor.  A count at one shift does not depend on the other
    shifts of its batch, so a sweep counts each distinct midpoint once until
    the midpoints are distinct, and then all as they are (same-length
    intervals that separated stay disjoint): the values are bitwise those of
    counting every index."""
    indices = np.arange(first, d.shape[0])
    radius = np.append(np.abs(e), 0.0) + np.insert(np.abs(e), 0, 0.0)
    lo0 = float(np.min(d - radius))
    hi0 = float(np.max(d + radius))
    pad = 2.0 * EPS * max(abs(lo0), abs(hi0)) + 2.0 * PIVMIN
    lo = np.full(indices.shape[0], lo0 - pad)
    hi = np.full(indices.shape[0], hi0 + pad)
    distinct = False
    for _ in range(160):
        width = hi - lo
        tol = 2.0 * EPS * (np.abs(lo) + np.abs(hi)) + 2.0 * SAFMIN
        if not np.any(width > tol):
            break
        mid = 0.5 * (lo + hi)
        shifts, inv = (mid, slice(None)) if distinct else np.unique(mid, return_inverse=True)
        counts, distinct = _sturm_counts(d, e, shifts)[inv], shifts.size == mid.size
        go_left = counts > indices
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
    return 0.5 * (lo + hi)


def _factor_shifted(d: np.ndarray, e: np.ndarray, lams: np.ndarray):
    """LU factorizations with partial pivoting of (T - lam I), vectorized
    over the batch of shifts, for an irreducible T (every coupling nonzero).
    U has two superdiagonals from pivoting; the second, e[i+1] where row i
    swapped and 0 elsewhere, is not stored: (mult, swap, u0, u1, e) is returned."""
    m = d.shape[0]
    k = lams.shape[0]
    e = np.append(e, 0.0)
    u0 = np.empty((m, k))
    u1 = np.empty((m - 1, k))
    mult = np.empty_like(u1)
    swap = np.zeros(u1.shape, dtype=bool)

    def guarded(x):
        return np.where(np.abs(x) < PIVMIN, np.where(x < 0.0, -PIVMIN, PIVMIN), x)

    x = d[0] - lams
    y = np.full(k, e[0])
    for i in range(m - 1):
        sub = e[i]
        a_next = d[i + 1] - lams
        b_next = e[i + 1]
        do_swap = np.abs(x) < abs(sub)
        swap[i] = do_swap
        xg = guarded(x)
        m_ns = sub / xg
        m_sw = x / sub
        mult[i] = np.where(do_swap, m_sw, m_ns)
        u0[i] = np.where(do_swap, sub, xg)
        u1[i] = np.where(do_swap, a_next, y)
        x = np.where(do_swap, y - m_sw * a_next, a_next - m_ns * y)
        y = np.where(do_swap, -m_sw * b_next, b_next)
    u0[m - 1] = guarded(x)
    return mult, swap, u0, u1, e


def _solve_shifted(fact, w: np.ndarray) -> np.ndarray:
    """Solve the factored batch of shifted systems for a batch of right-hand
    sides w (one column per shift), in place: the forward elimination and
    the back substitution both overwrite w, which is returned."""
    mult, swap, u0, u1, e = fact
    m = u0.shape[0]
    for i in range(m - 1):
        top = np.where(swap[i], w[i + 1], w[i])
        bot = np.where(swap[i], w[i], w[i + 1])
        w[i] = top
        w[i + 1] = bot - mult[i] * top
    w[m - 1] /= u0[m - 1]
    w[m - 2] = (w[m - 2] - u1[m - 2] * w[m - 1]) / u0[m - 2]
    for i in range(m - 3, -1, -1):
        w[i] -= u1[i] * w[i + 1]
        np.subtract(w[i], e[i + 1] * w[i + 2], out=w[i], where=swap[i])
        w[i] /= u0[i]
    return w


_START_SEED = 0x5EED

#: Gap to a neighbour, relative to |T|, at or below which ``_block_vectors``
#: puts two eigenvalues in one group, which shares one shift.
_GROUP_GAP = 1e3 * EPS


def _start_vectors(m: int, block_start: int, local_idx: np.ndarray, attempt: int = 0) -> np.ndarray:
    """Deterministic random starting vectors, seeded per eigenvalue (and per
    attempt after the first) so that results do not depend on batching."""
    cols = np.empty((m, local_idx.shape[0]))
    for j, li in enumerate(local_idx):
        seed = (_START_SEED, block_start, int(li)) + ((attempt,) if attempt else ())
        cols[:, j] = np.random.default_rng(seed).uniform(-1.0, 1.0, m)
    return cols


def _cholesky_qr(v: np.ndarray) -> np.ndarray:
    """One CholeskyQR pass, in place: v <- v R^-1 with R^T R = v^T v; returns
    diag(R), for unit columns each one's distance from the span of those
    before it.  A Gram breakdown raises NotPositiveDefinite before v is
    touched.  The solve runs in panels of _PANEL columns: one GEMM brings a
    panel up to date, one applies the inverse of its diagonal block of R."""
    r = _cholesky(v.T @ v, "the Gram matrix of the inverse-iteration vectors").T
    for c0 in range(0, v.shape[1], _PANEL):
        panel = v[:, c0:c0 + _PANEL]
        panel -= v[:, :c0] @ r[:c0, c0:c0 + _PANEL]
        rb = r[c0:c0 + _PANEL, c0:c0 + _PANEL]
        inv = np.zeros(rb.shape)
        for j in range(rb.shape[0]):
            inv[j, j] = 1.0 / rb[j, j]
            inv[:j, j] = (inv[:j, :j] @ rb[:j, j]) * -inv[j, j]
        panel[...] = panel @ inv
    return np.diagonal(r).copy()


def _block_vectors(d: np.ndarray, e: np.ndarray, lams: np.ndarray,
                   local_idx: np.ndarray, block_start: int, k: int) -> np.ndarray:
    """Inverse-iteration eigenvectors of an irreducible block for the given
    (ascending) eigenvalues, the block and its values scaled by 2**-k as
    ``tridiag_eig`` scales them; k serves only to name a failed eigenvalue.

    A group, a run of eigenvalues at most _GROUP_GAP |T| apart, of width w
    shares the shift sigma = lam_lo - o, o = max(10 w, _GROUP_GAP |T|); a lone
    eigenvalue is its own shift.  Three rescaled solves follow (a group's
    columns, random mixtures of its eigenvectors, orthonormalized after the
    first); a column must come out finite and grown by
    1 / (10 sqrt(m) (eps |T| + |lam - shift|)).  CholeskyQR2 (Yamamoto et al.,
    ETNA 44, 2015) orthonormalizes the batch, its first pass leaving each
    column 1e-2 or more from the span of those before it; in between, a
    Rayleigh-Ritz step (Parlett, The Symmetric Eigenvalue Problem, ch. 11)
    makes eigenvectors of each range: a group and every lam where the residual
    (o + w)^3 / |lam - sigma|^2 left in its columns exceeds eps |T|.  A
    rejected or dependent column restarts once, with its range, from a seeded
    random start at its shift + 10 eps |T| (as LAPACK's xSTEIN); a second
    failure raises ConvergenceError."""
    m, n = d.shape[0], lams.shape[0]
    if m == 1:
        return np.ones((1, n))
    anorm = float(np.max(np.abs(d) + np.insert(np.abs(e), 0, 0.0) + np.append(np.abs(e), 0.0)))
    gap = _GROUP_GAP * anorm
    bounds = [*np.flatnonzero(np.insert(np.diff(lams) > gap, 0, True)), n]
    # A group takes in the run below while that lies within 2 o, where it grows as fast.
    for g in range(len(bounds) - 2, 0, -1):
        a, b = bounds[g], bounds[g + 1]
        if b - a > 1 and lams[a] - lams[a - 1] < 2.0 * max(10.0 * (lams[b - 1] - lams[a]), gap):
            del bounds[g]
    starts, sizes = np.array(bounds[:-1]), np.diff(bounds)
    width = lams[starts + sizes - 1] - lams[starts]
    offset = np.maximum(10.0 * width, gap)
    sigma = lams[starts] - np.where(sizes > 1, offset, 0.0)
    groups = np.flatnonzero(sizes > 1)
    reach = np.sqrt((offset + width) ** 3 / (EPS * anorm))
    lo, hi = np.searchsorted(lams, sigma - reach), np.searchsorted(lams, sigma + reach, "right")
    # Ritz ranges [i0, i1), overlaps merged; comp labels a column by its range's start.
    ritz, comp = [], np.arange(n)
    for g in groups[np.argsort(lo[groups], kind="stable")]:
        if ritz and lo[g] < ritz[-1][1]:
            ritz[-1][1] = max(ritz[-1][1], hi[g])
        else:
            ritz.append([lo[g], hi[g]])
    for i0, i1 in ritz:
        comp[i0:i1] = i0
    retry = np.zeros(n, dtype=bool)
    for attempt in range(2):
        vecs = _start_vectors(m, block_start, local_idx)
        if attempt:
            vecs[:, retry] = _start_vectors(m, block_start, local_idx[retry], 1)
        shifts = np.repeat(sigma, sizes) + retry * (10.0 * EPS * anorm)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fact = _factor_shifted(d, e, shifts)
            vecs /= np.linalg.norm(vecs, axis=0)
            for it in range(3):
                vecs = _solve_shifted(fact, vecs)
                # Rescale by the max entry first: a shift that hits an eigenvalue
                # to full precision produces entries near 1/PIVMIN, whose squares
                # overflow in a plain norm.
                amax = np.max(np.abs(vecs), axis=0)
                vecs /= amax
                nrm = np.linalg.norm(vecs, axis=0)
                vecs /= nrm
                for g in groups if it == 0 else ():
                    # A breakdown here is left to the checks below.
                    with contextlib.suppress(NotPositiveDefinite):
                        _cholesky_qr(vecs[:, starts[g]:starts[g] + sizes[g]])
            grown = amax * nrm >= 1.0 / (10.0 * np.sqrt(m) * (EPS * anorm + np.abs(lams - shifts)))
        bad = np.flatnonzero(~(grown & np.isfinite(vecs).all(axis=0)))
        if not bad.size:
            try:
                bad = np.flatnonzero(_cholesky_qr(vecs) < 1e-2)
                if not bad.size:
                    for i0, i1 in ritz:
                        # G = V^T (T - s) V > 0, so its V factor holds its eigenvectors, descending.
                        v, s = vecs[:, i0:i1], lams[i0] - max(10.0 * (lams[i1 - 1] - lams[i0]), gap)
                        tv = (d - s)[:, None] * v
                        tv[1:] += e[:, None] * v[:-1]
                        tv[:-1] += e[:, None] * v[1:]
                        gram = v.T @ tv
                        v[...] = v @ jacobi_svd(0.5 * (gram + gram.T))[2][:, ::-1]
                    _cholesky_qr(vecs)
                    break
            except NotPositiveDefinite as err:
                bad = np.array([err.pivot_index])
        retry |= np.isin(comp, comp[bad])
    else:
        raise ConvergenceError(f"inverse iteration did not converge for eigenvalue "
                               f"{float(np.ldexp(lams[bad[0]], k))!r} after a restart")
    # Make each column's largest-magnitude entry positive: rounding in T flips none.
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    return np.negative(vecs, out=vecs, where=top < 0.0)


def tridiag_eig(t: SymTridiagonal, which: str = "all", vectors: bool = True):
    """Eigenvalues (and optionally orthonormal eigenvectors) of a symmetric
    tridiagonal matrix by bisection and inverse iteration, each irreducible
    block scaled once by an exact power of two so that its largest entry
    lies in [0.5, 1); bisection and inverse iteration both run on the scaled
    block, and only the returned values are scaled back.

    which='all' returns every eigenvalue, ascending; 'positive' requires an
    exactly zero diagonal (symmetric spectrum) and returns the m/2
    algebraically largest, descending.  Returns (values, vectors); with
    vectors=False inverse iteration is skipped and vectors is None.
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

    # Irreducible blocks [i0, i1): split where a coupling is negligible beside
    # its diagonal entries or beside |T| (as LAPACK's xLARRA).  On a zero
    # diagonal an odd cut would round a tiny singular value of the Golub-Kahan
    # form to a zero eigenvalue: there |T| cuts only between even blocks.
    ae = np.abs(e)
    tiny = ae <= EPS * np.max(np.abs(d) + np.append(ae, 0.0) + np.insert(ae, 0, 0.0), initial=0.0)
    if not d.any():
        tiny[0::2] = False
    cuts = (np.flatnonzero(tiny | (ae <= EPS * (np.abs(d[:-1]) + np.abs(d[1:])))) + 1).tolist()
    # Each block is scaled once, by 2**-k to a largest entry in [0.5, 1) (a 1 x 1
    # block, its own eigenvalue, keeps k = 0): lam holds its values in that
    # scale, and only the returned ones are scaled back.
    # 'positive' bisects each block's upper half (with an odd block's zero); the rest is -inf.
    blocks, lam = [], np.full(m, -np.inf)
    for i0, i1 in zip([0, *cuts], [*cuts, m]):
        k = _scale_exponent(np.concatenate((d[i0:i1], e[i0:i1 - 1]))) if i1 - i0 > 1 else 0
        db, eb = np.ldexp(d[i0:i1], -k), np.ldexp(e[i0:i1 - 1], -k)
        blocks.append((i0, i1, db, eb, k))
        first = (i1 - i0) // 2 if which == "positive" else 0
        if i1 - i0 == 2:  # closed form, as LAPACK's xLAE2: bisection costs as much as at 32
            mid, rad = 0.5 * db[0] + 0.5 * db[1], np.hypot(0.5 * db[0] - 0.5 * db[1], eb[0])
            lam[i0 + first:i1] = (mid - rad, mid + rad)[first:]
        else:
            lam[i0 + first:i1] = db if i1 - i0 < 2 else _bisect_values(db, eb, first)
    values = np.concatenate([np.ldexp(lam[i0:i1], k) for i0, i1, _, _, k in blocks])
    # Ties in value go to the lower position, i.e. by block, then local index.
    order = np.argsort(values, kind="stable")
    if which == "positive":
        order = order[m // 2:][::-1]
    if not vectors:
        return values[order], None

    # pos: the selected positions in ascending order, hence grouped by block
    # and ascending in local index within one; cols: their output columns.
    cols = np.argsort(order)
    pos = order[cols]
    step = -1 if which == "positive" else 1
    if len(blocks) == 1 and pos.size and np.array_equal(cols[::step], np.arange(pos.size)):
        # One block whose columns come out in its order (or reversed): its
        # array, or a reversed view of it, is the result.
        _, _, db, eb, k = blocks[0]
        return values[order], _block_vectors(db, eb, lam[pos], pos, 0, k)[:, ::step]
    vec = np.zeros((m, order.shape[0]))
    for i0, i1, db, eb, k in blocks:
        lo, hi = np.searchsorted(pos, (i0, i1))
        if lo < hi:
            vec[i0:i1, cols[lo:hi]] = _block_vectors(
                db, eb, lam[pos[lo:hi]], pos[lo:hi] - i0, i0, k)
    return values[order], vec


# ----------------------------------------------------------------------------
# One-sided Jacobi SVD


#: Sweep budget of ``jacobi_svd`` before it raises ConvergenceError.
JACOBI_MAX_SWEEPS = 30


def jacobi_svd(c: np.ndarray):
    """Singular value decomposition C = U diag(sigma) V^T of a real square
    matrix by one-sided Jacobi rotations in round-robin order (Brent & Luk,
    SISSC 6, 1985).

    A sweep is one round-robin tournament over the ring of column indices
    0..m-1 (plus index m, whose partner sits out, for odd m); each step
    rotates all of its disjoint column pairs at once.  Sweeps run until every
    rotation falls below the threshold sqrt(m) * eps; singular values come
    out descending (ties broken stably by original column index).  The
    sweeps run on C scaled by an exact power of two to a largest entry in
    [0.5, 1), so no column norm overflows or underflows.
    """
    ct = _square(c, np.float64).T
    scale = _scale_exponent(ct)
    m = ct.shape[0]
    uv = np.hstack((np.ldexp(ct, -scale), np.eye(m)))  # row j: U[:, j], then V[:, j]
    tol = np.sqrt(m) * EPS
    ring = np.arange(m + m % 2)
    half = ring.size // 2
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for _ in range(ring.size - 1):
            p, q = np.sort((ring[:half], ring[half:][::-1]), axis=0)
            p, q = p[q < m], q[q < m]
            rp, rq = uv[p], uv[q]
            app = np.einsum("ij,ij->i", rp[:, :m], rp[:, :m])
            aqq = np.einsum("ij,ij->i", rq[:, :m], rq[:, :m])
            apq = np.einsum("ij,ij->i", rp[:, :m], rq[:, :m])
            big = np.abs(apq) > tol * np.sqrt(app) * np.sqrt(aqq)
            p, q, rp, rq, app, aqq, apq = (x[big] for x in (p, q, rp, rq, app, aqq, apq))
            rotated = rotated or p.size > 0
            zeta = (aqq - app) / (2.0 * apq)
            # tan = 1 / (zeta + sign(zeta) sqrt(1 + zeta^2)), with zeta = 0 taken as +.
            sign = np.where(zeta >= 0.0, 1.0, -1.0)
            tan = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            cs = (1.0 / np.sqrt(1.0 + tan * tan))[:, None]
            sn = tan[:, None] * cs
            uv[p] = cs * rp - sn * rq
            uv[q] = sn * rp + cs * rq
            ring[1:] = np.roll(ring[1:], 1)
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge in {JACOBI_MAX_SWEEPS} sweeps")

    sigma = np.linalg.norm(uv[:, :m], axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    u = uv[order, :m].T
    v = uv[order, m:].T
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
    return u, np.ldexp(sigma, scale), v


# ----------------------------------------------------------------------------
# Complex Hermitian eigensolver


def hermitian_eig(a: np.ndarray, vectors: bool = True):
    """Eigendecomposition of a complex Hermitian matrix at its own order.

    A is reduced by complex Householder reflections to a real symmetric
    tridiagonal T = Q^H A Q, T is solved by bisection/inverse iteration, and
    the real eigenvectors of T are mapped back through Q.  The exact scaling
    and the one working copy are ``sym_tridiagonalize``'s.

    Returns (values descending, vectors) with unit orthonormal columns;
    vectors is None when not requested.
    """
    st = sym_tridiagonalize(np.asarray(a, dtype=np.complex128))
    values, vecs = tridiag_eig(st, which="all", vectors=vectors)
    return values[::-1].copy(), None if vecs is None else st.apply_q(vecs[:, ::-1])
