"""Production eigensolvers for the block operator pair, plus the
non-structure-preserving cross-check and the Tamm-Dancoff gap report.

``solve_complex`` and ``solve_real`` are structure preserving: they return
strictly positive eigenvalues, so the expanded spectrum is exactly plus/minus
paired and real by representation.  ``solve_oracle`` goes through the
generalized Hermitian-definite reduction instead; its output pairs up only to
rounding, which is exactly what the comparison tests quantify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BseOperator, PositiveEigensystem
from .embeddings import build_m
from .kernels import (ConvergenceError, cholesky, hermitian_eig, jacobi_svd,
                      phase_fold, skew_tridiagonalize, tridiag_eig)
from .spectra import dos_dominance

#: Relative eigenvalue spread beyond which the Lambda^(-1/2) scaling starts
#: amplifying rounding errors; triggers a warning, not a failure.
CONDITION_WARN_RATIO = 1e-8

_SQRT2 = np.sqrt(2.0)


def solve_complex(op: BseOperator) -> PositiveEigensystem:
    """Structure-preserving solver for the complex problem.

    Pipeline: build the real symmetric embedding M, factor M = L L^T, form
    the real skew-symmetric W = L^T J L, tridiagonalize it, fold the phase
    diagonal to reach a real symmetric tridiagonal matrix, take its positive
    eigenpairs by bisection/inverse iteration, and back-transform

        Y+ = Q (L (U (D V+))),    [X1; X2] = diag(I, -I) Y+ Lambda+^(-1/2)

    with the complex products split into real ones (U, L, V+ are real and D
    only permutes quadrant phases).

    Raises NotPositiveDefinite when the Cholesky probe of M fails, i.e. the
    definiteness hypothesis is violated.
    """
    n = op.n
    m = build_m(op)
    low = cholesky(m, what="the definiteness embedding M")

    # W = L^T (J L): J L is a row shuffle, then one real product.
    g = np.vstack([low[n:], -low[:n]])
    w = low.T @ g
    w = 0.5 * (w - w.T)

    skew = skew_tridiagonalize(w)
    lam, vplus = tridiag_eig(phase_fold(skew), which="positive")
    warnings = _conditioning_warnings(lam)

    # D V+ has real rows for even indices and imaginary rows for odd ones.
    zr = np.zeros_like(vplus)
    zi = np.zeros_like(vplus)
    zr[0::4] = vplus[0::4]
    zr[2::4] = -vplus[2::4]
    zi[1::4] = vplus[1::4]
    zi[3::4] = -vplus[3::4]
    zr = skew.apply_q(zr)
    zi = skew.apply_q(zi)
    gr = low @ zr
    gi = low @ zi

    # Action of Q = (1/sqrt 2)[[I, -iI], [I, iI]] by block combination.
    top = ((gr[:n] + gi[n:]) + 1j * (gi[:n] - gr[n:])) / _SQRT2
    bot = ((gr[:n] - gi[n:]) + 1j * (gi[:n] + gr[n:])) / _SQRT2
    scale = 1.0 / np.sqrt(lam)
    x1 = top * scale
    x2 = -bot * scale
    return PositiveEigensystem(lambda_plus=lam, x1=x1, x2=x2, warnings=warnings)


def solve_real(op: BseOperator) -> PositiveEigensystem:
    """Product-SVD solver for the real problem.

    With A + B = L1 L1^T and A - B = L2 L2^T, the singular value
    decomposition L2^T L1 = U Lambda+ V^T yields

        X1 = (L2 U + L1 V) Lambda+^(-1/2) / 2
        X2 = (L2 U - L1 V) Lambda+^(-1/2) / 2

    normalized so that X1^T X1 - X2^T X2 = I.

    Raises NotPositiveDefinite identifying which of A+B or A-B failed.
    """
    if op.kind != "real":
        raise ValueError("solve_real requires an operator of kind 'real'")
    a = op.a.real
    b = op.b.real
    l1 = cholesky(a + b, what="A+B")
    l2 = cholesky(a - b, what="A-B")
    u, lam, v = jacobi_svd(l2.T @ l1)
    warnings = _conditioning_warnings(lam)
    scale = 0.5 / np.sqrt(lam)
    l2u = l2 @ u
    l1v = l1 @ v
    x1 = (l2u + l1v) * scale
    x2 = (l2u - l1v) * scale
    return PositiveEigensystem(lambda_plus=lam,
                               x1=x1.astype(np.complex128),
                               x2=x2.astype(np.complex128),
                               warnings=warnings)


def solve_tda(a: np.ndarray):
    """Tamm-Dancoff path: drop the off-diagonal blocks and diagonalize the
    Hermitian block A alone.  Returns (values descending, vectors)."""
    return hermitian_eig(a, vectors=True)


def solve_oracle(op: BseOperator) -> np.ndarray:
    """Cross-check solver through the generalized Hermitian-definite route.

    Forms Omega = [[A, B], [conj B, conj A]], factors Omega = L L^H, and
    diagonalizes the Hermitian matrix L^H diag(I, -I) L, which is similar to
    H = diag(I, -I) Omega.  Returns all 2n eigenvalues, descending.  Nothing
    enforces the plus/minus pairing here, so it holds only to rounding.
    """
    a, b = op.a, op.b
    omega = np.block([[a, b], [b.conj(), a.conj()]])
    low = cholesky(omega, what="Omega")
    signs = np.concatenate([np.ones(op.n), -np.ones(op.n)])
    k = (low.conj().T * signs) @ low
    k = 0.5 * (k + k.conj().T)
    values, _ = hermitian_eig(k, vectors=False)
    return values


@dataclass(frozen=True)
class TdaGapReport:
    """Per-index overestimation gaps g_j = lambda_j(A) - lambda_j(H) of the
    Tamm-Dancoff approximation, with the largest relative gap and a
    certificate that no gap dips below the rounding floor."""

    gaps: np.ndarray
    max_relative_gap: float
    min_gap: float
    scale: float
    certified: bool

    @classmethod
    def from_spectra(cls, lam_h: np.ndarray, lam_a: np.ndarray) -> TdaGapReport:
        """Report for the positive spectrum lam_h of H and the spectrum lam_a
        of A, both descending.  ``scale`` is max(|lam_h|, |lam_a|) and
        ``certified`` is ``dos_dominance(lam_h, lam_a)``: every gap is at
        least -1e-12 * scale."""
        gaps = lam_a - lam_h
        scale = max(float(np.max(np.abs(lam_h))), float(np.max(np.abs(lam_a))))
        return cls(gaps=gaps, max_relative_gap=float(np.max(gaps / lam_h)),
                   min_gap=float(np.min(gaps)), scale=scale,
                   certified=dos_dominance(lam_h, lam_a))


def tda_gap_report(op: BseOperator) -> TdaGapReport:
    """Compare the Tamm-Dancoff spectrum of A against the positive spectrum
    of the full problem.  Under the definiteness hypothesis every gap is
    nonnegative up to rounding, which ``certified`` states."""
    lam_a, _ = hermitian_eig(op.a, vectors=False)
    return TdaGapReport.from_spectra(solve_complex(op).lambda_plus, lam_a)


def _conditioning_warnings(lam: np.ndarray) -> tuple[str, ...]:
    """Conditioning warnings for a computed positive half-spectrum lam.  The
    definiteness probe passed, so a non-positive or non-finite value is a
    solver fault and raises ConvergenceError."""
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ConvergenceError(f"computed eigenvalues are not all positive and "
                               f"finite (smallest {float(np.min(lam))!r})")
    if lam.size and lam[-1] < CONDITION_WARN_RATIO * lam[0]:
        return (f"ill conditioned: smallest eigenvalue {lam[-1]:.3e} is below "
                f"{CONDITION_WARN_RATIO:g} of the largest {lam[0]:.3e}; the "
                f"Lambda^(-1/2) normalization amplifies rounding errors",)
    return ()
