"""Real/complex structural transforms.

The unitary

    Q = (1/sqrt(2)) [[I, -iI], [I, iI]]

links the complex block operator H to real objects:

    Q^H H Q = -i J M = i H_r,      J = [[0, I], [-I, 0]],

where M is real symmetric positive definite (under the definiteness
hypothesis) and H_r is a real Hamiltonian matrix.  Q is never materialized;
its action is index arithmetic and scalar combinations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BseOperator, FullEigensystem, PositiveEigensystem,
                   _readonly, check_structure)


@dataclass(frozen=True)
class RealHamiltonian:
    """Blocks of a real Hamiltonian matrix [[H11, H12], [H21, -H11^T]] with
    H12 and H21 symmetric."""

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray

    def __post_init__(self):
        h11 = np.array(self.h11, dtype=np.float64)
        h12 = np.array(self.h12, dtype=np.float64)
        h21 = np.array(self.h21, dtype=np.float64)
        n = h11.shape[0]
        for name, blk in (("h11", h11), ("h12", h12), ("h21", h21)):
            if blk.shape != (n, n):
                raise ValueError(f"{name} must be {n} x {n}, got {blk.shape}")
            if not np.isfinite(blk).all():
                raise ValueError(f"{name} must contain only finite entries")
        check_structure(h12, "symmetric", "h12")
        check_structure(h21, "symmetric", "h21")
        object.__setattr__(self, "h11", _readonly(h11))
        object.__setattr__(self, "h12", _readonly(h12))
        object.__setattr__(self, "h21", _readonly(h21))

    @property
    def n(self) -> int:
        return self.h11.shape[0]

    def to_matrix(self) -> np.ndarray:
        """Assemble the dense 2n x 2n matrix; the (2,2) block is -h11^T
        exactly, so the Hamiltonian structure holds bitwise."""
        return np.block([[self.h11, self.h12], [self.h21, -self.h11.T]])


def build_m(op: BseOperator) -> np.ndarray:
    """Real symmetric embedding M of the operator pair:

        M = [[Re(A+B),  Im(A-B)],
             [-Im(A+B), Re(A-B)]]

    The result is averaged with its transpose, so it is bitwise symmetric
    and the downstream Cholesky factorization is deterministic.
    """
    apb = op.a + op.b
    amb = op.a - op.b
    m = np.block([[apb.real, amb.imag], [-apb.imag, amb.real]])
    return 0.5 * (m + m.T)


def build_hr(op: BseOperator) -> np.ndarray:
    """Real Hamiltonian matrix associated with the operator pair:

        H_r = [[Im(A+B), -Re(A-B)],
               [Re(A+B),  Im(A-B)]]

    satisfying spectrum(i H_r) = spectrum(H).  The off-diagonal blocks are
    averaged symmetric and the (2,2) block is written as -H11^T, so the
    Hamiltonian structure (H_r J)^T = H_r J holds exactly.
    """
    apb = op.a + op.b
    amb = op.a - op.b
    h11 = np.ascontiguousarray(apb.imag)
    h12 = -amb.real
    h12 = 0.5 * (h12 + h12.T)
    h21 = apb.real
    h21 = 0.5 * (h21 + h21.T)
    return np.block([[h11, h12], [h21, -h11.T]])


def real_hamiltonian_to_bse(hr: RealHamiltonian) -> BseOperator:
    """Convert a real Hamiltonian eigenvalue problem into an operator pair:

        A = (H12 - H21)/2 + i (H11^T - H11)/2
        B = -(H12 + H21)/2 - i (H11^T + H11)/2

    The spectrum of the resulting H is i times the spectrum of H_r.  Note
    the orientation: composing with ``build_hr`` negates, i.e.
    ``real_hamiltonian_to_bse`` applied to the blocks of ``-build_hr(op)``
    recovers ``op`` to machine precision.
    """
    a = 0.5 * (hr.h12 - hr.h21) + 0.5j * (hr.h11.T - hr.h11)
    b = -0.5 * (hr.h12 + hr.h21) - 0.5j * (hr.h11.T + hr.h11)
    kind = "real" if (np.all(a.imag == 0.0) and np.all(b.imag == 0.0)) else "complex"
    return BseOperator(a=a, b=b, kind=kind)


def expand_full(op: BseOperator, pos: PositiveEigensystem) -> FullEigensystem:
    """Expand the positive half-eigensystem into all 2n right and left
    eigenvectors:

        X = [[X1,  conj X2], [X2,  conj X1]]
        Y = [[X1, -conj X2], [-X2, conj X1]]

    with eigenvalues (lambda_+, -lambda_+); the negative half is the bitwise
    negation.  Costs O(n^2): copies and conjugations only.
    """
    if pos.n != op.n:
        raise ValueError(f"dimension mismatch: operator n={op.n}, eigensystem n={pos.n}")
    x1, x2 = pos.x1, pos.x2
    x = np.block([[x1, x2.conj()], [x2, x1.conj()]])
    y = np.block([[x1, -x2.conj()], [-x2, x1.conj()]])
    lam = np.concatenate([pos.lambda_plus, -pos.lambda_plus])
    return FullEigensystem(x=x, y=y, lam=lam)
