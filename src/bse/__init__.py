"""Structure-preserving dense eigensolvers for Bethe-Salpeter eigenvalue
problems.

The package solves the eigenproblem of H = [[A, B], [-conj B, -conj A]]
(A Hermitian, B symmetric) through real-arithmetic embeddings, so computed
spectra are exactly plus/minus paired and real; it also provides the
Tamm-Dancoff comparison path, a non-structure-preserving cross-check solver,
and Gaussian-broadened spectral density / absorption curves.
"""

from .core import (BseOperator, FullEigensystem, PositiveEigensystem,
                   ValidationReport, assemble_h, make_operator, random_bse,
                   residual_metrics, residual_warnings, validate)
from .embeddings import (RealHamiltonian, build_hr, build_m, expand_full,
                         real_hamiltonian_to_bse)
from .kernels import (ConvergenceError, NotPositiveDefinite, SkewTridiagonal,
                      SymTridiagonal, cholesky, hermitian_eig, jacobi_svd,
                      phase_fold, skew_tridiagonalize, sym_tridiagonalize,
                      tridiag_eig)
from .solvers import (TdaGapReport, solve_complex, solve_oracle, solve_real,
                      tda_gap_report)
from .spectra import (DipoleData, SpectrumCurve, absorption_spectrum,
                      dos_dominance, spectral_density)

__version__ = "0.1.0"

__all__ = [
    "BseOperator", "FullEigensystem", "PositiveEigensystem", "ValidationReport",
    "assemble_h", "make_operator", "random_bse", "residual_metrics",
    "residual_warnings", "validate",
    "RealHamiltonian", "build_hr", "build_m", "expand_full",
    "real_hamiltonian_to_bse",
    "ConvergenceError", "NotPositiveDefinite", "SkewTridiagonal", "SymTridiagonal",
    "cholesky", "hermitian_eig", "jacobi_svd", "phase_fold", "skew_tridiagonalize",
    "sym_tridiagonalize", "tridiag_eig",
    "TdaGapReport", "solve_complex", "solve_oracle", "solve_real",
    "tda_gap_report",
    "DipoleData", "SpectrumCurve", "absorption_spectrum", "dos_dominance",
    "spectral_density",
    "__version__",
]
