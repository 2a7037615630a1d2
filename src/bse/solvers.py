"""Production eigensolvers for the block operator pair, plus the
non-structure-preserving cross-check and the Tamm-Dancoff gap report.

``solve_complex`` is structure preserving for both kinds of input, and
``solve_real`` is it behind a kind check: it returns strictly positive
eigenvalues, so the expanded spectrum is exactly plus/minus paired and real
by representation.  ``solve_oracle`` goes through the
generalized Hermitian-definite reduction instead; its output pairs up only to
rounding, which is exactly what the comparison tests quantify.
``tda_gap_report``, what ``bse compare`` reports, shares ``solve_complex``'s
reduction but computes eigenvalues only.

The solvers carry no warnings.  A computed half-spectrum that is not all
positive and finite is a solver fault and raises ConvergenceError; whether a
solution is accurate is judged by its measured residuals, ``core``'s
``residual_warnings(*residual_metrics(op, pos))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BseOperator, PositiveEigensystem, _symmetrize
from .embeddings import build_m
from .kernels import (ConvergenceError, NotPositiveDefinite, cholesky, hermitian_eig,
                      phase_fold, skew_tridiagonalize, tridiag_eig)
from .spectra import dos_dominance

_SQRT2 = np.sqrt(2.0)


def _skew_form(op: BseOperator):
    """(L, skew tridiagonal form of W = L^T J L) for M = L L^T: the shared
    prefix of ``solve_complex`` and ``tda_gap_report``.  W is formed in the
    interleaved order (0, n, 1, n+1, ...) of M's rows."""
    n = op.n
    low = cholesky(build_m(op), what="the definiteness embedding M")
    # With L11 = L[:n, :n], W = P - P^T for P = [L11^T [L21 L22]; 0]: skew by
    # construction, with an exactly zero (odd, odd) block.  For real input
    # L21 = 0 zeroes the (even, even) block too: every reflector then stays on
    # one parity, and the reduction is the Golub-Kahan bidiagonalization of
    # L11^T L22.
    w = np.zeros((2 * n, 2 * n))
    w[0::2, 0::2] = low[:n, :n].T @ low[n:, :n]
    w[0::2, 0::2] -= w[0::2, 0::2].T
    w[0::2, 1::2] = low[:n, :n].T @ low[n:, n:]
    w[1::2, 0::2] = -w[0::2, 1::2].T
    return low, skew_tridiagonalize(w)


def solve_complex(op: BseOperator) -> PositiveEigensystem:
    """Structure-preserving solver for both kinds of problem.

    Pipeline: build the real symmetric embedding M, factor M = L L^T, form
    the real skew-symmetric W = L^T J L with its rows and columns in the
    interleaved order P = (0, n, 1, n+1, ...), tridiagonalize it, fold the
    phase diagonal to reach a real symmetric tridiagonal matrix, take its
    positive eigenpairs by bisection/inverse iteration, and back-transform

        Y+ = Q (L (P^T (U (D V+)))),    [X1; X2] = diag(I, -I) Y+ Lambda+^(-1/2)

    with U, L and V+ real: D only permutes quadrant phases, so the real and
    imaginary parts of D V+ are V+ times real phase patterns, and no complex
    array is built before X1 and X2.  The back-transform owns every array
    it makes and combines X1 and X2 in place; ``op`` is read only.  For real
    input U keeps the parities apart, and X1, X2 have zero imaginary parts.

    Raises NotPositiveDefinite when the Cholesky probe of M fails, i.e. the
    definiteness hypothesis is violated.
    """
    n = op.n
    low, skew = _skew_form(op)
    lam, vplus = tridiag_eig(phase_fold(skew), which="positive")
    _check_positive(lam)

    # D = diag(1, i, -1, -i, 1, ...): even rows of D V+ are real, odd ones
    # imaginary.  The row gather ``unmix`` is P^T, undoing the interleave.
    row = np.arange(2 * n) % 4
    unmix = np.r_[0:2 * n:2, 1:2 * n:2]
    gr = low @ skew.apply_q(np.array([1.0, 0.0, -1.0, 0.0])[row, None] * vplus)[unmix]
    gi = low @ skew.apply_q(np.array([0.0, 1.0, 0.0, -1.0])[row, None] * vplus)[unmix]

    # Action of Q = (1/sqrt 2)[[I, -iI], [I, iI]] by block combination, in
    # complex arithmetic: for real input X2 has exact zeros, and the complex
    # products set their signs.
    scale = 1.0 / np.sqrt(lam)
    x1 = 1j * (gi[:n] - gr[n:])
    x1 += gr[:n] + gi[n:]
    x1 /= _SQRT2
    x1 *= scale
    x2 = 1j * (gi[:n] + gr[n:])
    x2 += gr[:n] - gi[n:]
    x2 /= _SQRT2
    np.negative(x2, out=x2)
    x2 *= scale
    return PositiveEigensystem(lambda_plus=lam, x1=x1, x2=x2)


def solve_real(op: BseOperator) -> PositiveEigensystem:
    """``solve_complex`` for an operator of kind 'real'.

    For real input M = diag(A+B, A-B) = diag(L1 L1^T, L2 L2^T), and the
    reduction of the interleaved W is the Golub-Kahan bidiagonalization of
    L1^T L2: the product SVD of the Cholesky factors.

    Raises NotPositiveDefinite identifying which of A+B or A-B failed.
    """
    if op.kind != "real":
        raise ValueError("solve_real requires an operator of kind 'real'")
    try:
        return solve_complex(op)
    except NotPositiveDefinite as exc:
        j = exc.pivot_index
        what = "A+B" if j < op.n else "A-B"
        raise NotPositiveDefinite(j % op.n, exc.pivot_value, what) from exc


def solve_oracle(op: BseOperator) -> np.ndarray:
    """Cross-check solver through the generalized Hermitian-definite route.

    Forms Omega = [[A, B], [conj B, conj A]], factors Omega = L L^H, and
    diagonalizes the Hermitian K = L^H diag(I, -I) L, which is similar to
    H = diag(I, -I) Omega.  Omega, L, K and the eigensolver's one working
    copy are (2n)^2 arrays, at most two live at once.  Returns all 2n
    eigenvalues, descending; their plus/minus pairing holds only to rounding.
    """
    n = op.n
    omega = np.empty((2 * n, 2 * n), dtype=np.complex128)
    omega[:n, :n], omega[:n, n:] = op.a, op.b
    omega[n:, :n], omega[n:, n:] = op.b.conj(), op.a.conj()
    low = cholesky(omega, what="Omega")
    del omega
    # K = L1^H L1 - L2^H L2 for L1 = L[:n], L2 = L[n:], 64 rows at a time (L
    # vanishes above row r0 in columns r0:), made exactly Hermitian in place.
    k = np.empty_like(low)
    for r0 in range(0, 2 * n, 64):
        top, bot = low[r0:n], low[max(r0, n):]
        k[r0:r0 + 64] = top[:, r0:r0 + 64].conj().T @ top - bot[:, r0:r0 + 64].conj().T @ bot
    del low, top, bot
    values, _ = hermitian_eig(_symmetrize(k), vectors=False)
    return values


@dataclass(frozen=True)
class TdaGapReport:
    """Positive spectrum lambda_h of H and Tamm-Dancoff spectrum lambda_a of
    A (descending), overestimation gaps g_j = lambda_a[j] - lambda_h[j], the
    scale max(|lambda_h|, |lambda_a|), ``certified`` = ``dos_dominance`` (no
    gap below -1e-12 * scale)."""

    lambda_h: np.ndarray
    lambda_a: np.ndarray
    gaps: np.ndarray
    max_relative_gap: float
    min_gap: float
    scale: float
    certified: bool


def tda_gap_report(op: BseOperator) -> TdaGapReport:
    """Compare the Tamm-Dancoff spectrum of A against the positive spectrum
    of H (bitwise ``solve_complex``'s), computing eigenvalues only.  Under the
    definiteness hypothesis every gap is nonnegative up to rounding."""
    _, skew = _skew_form(op)
    lam_h, _ = tridiag_eig(phase_fold(skew), which="positive", vectors=False)
    _check_positive(lam_h)
    lam_a, _ = hermitian_eig(op.a, vectors=False)
    gaps = lam_a - lam_h
    scale = max(float(np.max(np.abs(lam_h))), float(np.max(np.abs(lam_a))))
    return TdaGapReport(lambda_h=lam_h, lambda_a=lam_a, gaps=gaps,
                        max_relative_gap=float(np.max(gaps / lam_h)),
                        min_gap=float(np.min(gaps)), scale=scale,
                        certified=dos_dominance(lam_h, lam_a))


def _check_positive(lam: np.ndarray) -> None:
    """ConvergenceError unless the computed positive half-spectrum lam is
    all positive and finite: the definiteness probe passed, so anything else
    is a solver fault."""
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ConvergenceError(f"computed eigenvalues are not all positive and "
                               f"finite (smallest {float(np.min(lam))!r})")
