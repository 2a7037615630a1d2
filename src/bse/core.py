"""Operator container, hypothesis validation, problem generator, residual metrics.

The block operator pair (A, B) defines the 2n x 2n non-Hermitian matrix

    H = [[ A,        B      ],
         [-conj(B), -conj(A)]]

with A Hermitian and B (complex) symmetric.  Everything downstream relies on
exactly this structure, so construction rejects inputs that violate it instead
of silently repairing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Relative symmetry tolerance; the threshold applied to the defect
#: ||A - A^H||_F is SYM_RTOL * max(1, ||A||_F).
SYM_RTOL = 100.0 * EPS


def _frob(x: np.ndarray) -> float:
    """||x||_F without spurious overflow or underflow.

    The plain norm is kept when it is finite and at least 2**-400, where no
    square can have overflowed and squares lost to underflow are below
    rounding.  Otherwise x is scaled by the power of two 2**-e, where
    max|x| = f * 2**e with f in [0.5, 1), and the norm is scaled back; both
    scalings are exact.
    """
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(x))
    if 2.0 ** -400 <= nrm < np.inf:
        return nrm
    amax = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < amax < np.inf:
        return nrm
    e = max(int(np.frexp(amax)[1]), -1023)  # 2**1023 is the largest finite scale
    return float(np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -e)), e))


_DEFECT = {"Hermitian": lambda x: x - x.conj().T, "symmetric": lambda x: x - x.T,
           "skew-symmetric": lambda x: x + x.T}


def structure_defect(x: np.ndarray, structure: str) -> tuple[float, bool]:
    """Relative defect ||x - x'||_F / ||x||_F (0 for a zero x), where x' is
    x^H, x^T or -x^T for ``structure`` 'Hermitian', 'symmetric' or
    'skew-symmetric', and whether the absolute defect ||x - x'||_F is within
    SYM_RTOL * max(1, ||x||_F)."""
    nrm = _frob(x)
    defect = _frob(_DEFECT[structure](x))
    return (defect / nrm if nrm else 0.0), defect <= SYM_RTOL * max(1.0, nrm)


def check_structure(x: np.ndarray, structure: str, name: str = "input",
                    hint: str = "") -> None:
    """Raise ValueError, naming ``name`` and appending ``hint``, unless x has
    the given structure within tolerance (see ``structure_defect``)."""
    rel, ok = structure_defect(x, structure)
    if not ok:
        raise ValueError(f"{name} is not {structure} within tolerance: "
                         f"relative defect {rel:.3e}{hint}")


def _readonly(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class BseOperator:
    """The pair (A, B) with A Hermitian and B symmetric; ``kind`` marks
    whether the problem is real (imaginary parts exactly zero) or complex.

    Instances are immutable; the stored arrays are read-only complex128 copies.
    """

    a: np.ndarray
    b: np.ndarray
    kind: str

    def __post_init__(self):
        a = np.array(self.a, dtype=np.complex128)
        b = np.array(self.b, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"A and B shapes differ: {a.shape} vs {b.shape}")
        if self.kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("A and B must contain only finite entries")
        if self.kind == "real" and (np.any(a.imag != 0.0) or np.any(b.imag != 0.0)):
            raise ValueError("kind='real' requires exactly zero imaginary parts")
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))

    @property
    def n(self) -> int:
        return self.a.shape[0]


def make_operator(a, b, kind: str | None = None, symmetrize: bool = False) -> BseOperator:
    """Build a validated BseOperator from array-likes.

    Inputs whose symmetry defect exceeds ``SYM_RTOL`` are rejected unless
    ``symmetrize`` is set, in which case A <- (A + A^H)/2 and B <- (B + B^T)/2
    are applied first.

    Parameters
    ----------
    a, b : array_like, n x n
        Candidate Hermitian / symmetric blocks.
    kind : {'real', 'complex'}, optional
        Inferred from the data when omitted (real iff both imaginary parts
        are exactly zero).
    symmetrize : bool
        Average away symmetry defects instead of rejecting.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if symmetrize:
        a = 0.5 * (a + a.conj().T)
        b = 0.5 * (b + b.T)
    if kind is None:
        kind = "real" if (np.all(a.imag == 0.0) and np.all(b.imag == 0.0)) else "complex"
    op = BseOperator(a=a, b=b, kind=kind)
    hint = "; pass symmetrize=True to average it away"
    check_structure(op.a, "Hermitian", "A", hint)
    check_structure(op.b, "symmetric", "B", hint)
    return op


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on an operator pair.

    ``margin`` is the smallest diagonal pivot encountered by the Cholesky
    probe of the real embedding M (the failing, nonpositive pivot when the
    probe breaks down).
    """

    symmetry_ok: bool
    definiteness_ok: bool
    sym_defects: tuple[float, float]
    margin: float

    @property
    def ok(self) -> bool:
        return self.symmetry_ok and self.definiteness_ok


@dataclass(frozen=True)
class PositiveEigensystem:
    """Positive half of the spectrum: lambda_1 >= ... >= lambda_n > 0 with the
    right-eigenvector blocks X1, X2 normalized so X1^H X1 - X2^H X2 = I.
    Arrays already of the stored dtype are owned, made read-only in place."""

    lambda_plus: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        lam = np.asarray(self.lambda_plus, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.complex128)
        x2 = np.asarray(self.x2, dtype=np.complex128)
        n = lam.shape[0]
        if x1.shape != (n, n) or x2.shape != (n, n):
            raise ValueError("eigenvector blocks must be n x n")
        if n and not np.all(lam > 0.0):
            raise ValueError("all eigenvalues must be strictly positive")
        if n > 1 and np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "lambda_plus", _readonly(lam))
        object.__setattr__(self, "x1", _readonly(x1))
        object.__setattr__(self, "x2", _readonly(x2))

    @property
    def n(self) -> int:
        return self.lambda_plus.shape[0]


@dataclass(frozen=True)
class FullEigensystem:
    """All 2n eigenpairs: right eigenvectors X, left eigenvectors Y (with
    Y^H X = I), and eigenvalues ordered (lambda_+, -lambda_+); the negated
    half is the bitwise negation of the positive half.  Arrays already of the
    stored dtype are owned, made read-only in place."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.complex128)
        y = np.asarray(self.y, dtype=np.complex128)
        lam = np.asarray(self.lam, dtype=np.float64)
        m = lam.shape[0]
        if m % 2 != 0:
            raise ValueError("eigenvalue count must be even")
        if x.shape != (m, m) or y.shape != (m, m):
            raise ValueError("X and Y must be 2n x 2n")
        n = m // 2
        if m and not np.array_equal(lam[n:], -lam[:n]):
            raise ValueError("lambda[n:] must be the exact negation of lambda[:n]")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "lam", _readonly(lam))

    @property
    def n(self) -> int:
        return self.lam.shape[0] // 2


def validate(op: BseOperator) -> ValidationReport:
    """Check the two structural hypotheses: (A Hermitian, B symmetric) and
    positive definiteness of [[A, B], [conj B, conj A]].

    The definiteness probe runs a Cholesky factorization of the real
    symmetric embedding M, never of the complex block matrix, so the whole
    check stays in real arithmetic.
    """
    # Imported here: embeddings/kernels import this module for the types.
    from .embeddings import build_m
    from .kernels import NotPositiveDefinite, cholesky

    defect_a, ok_a = structure_defect(op.a, "Hermitian")
    defect_b, ok_b = structure_defect(op.b, "symmetric")

    m = build_m(op)
    try:
        low = cholesky(m)
        d = np.diagonal(low)
        margin = float(np.min(d) ** 2) if d.size else 0.0
        pd_ok = True
    except NotPositiveDefinite as err:
        margin = float(err.pivot_value)
        pd_ok = False
    return ValidationReport(symmetry_ok=ok_a and ok_b, definiteness_ok=pd_ok,
                            sym_defects=(defect_a, defect_b), margin=margin)


def assemble_h(op: BseOperator) -> np.ndarray:
    """Materialize the dense 2n x 2n matrix H = [[A, B], [-conj B, -conj A]].

    Only tests and the cross-checking solver need the assembled matrix; the
    production pipeline works with the real embedding instead.
    """
    a, b = op.a, op.b
    return np.block([[a, b], [-b.conj(), -a.conj()]])


def random_bse(n: int, seed: int, margin: float = 1.0, kind: str = "complex") -> BseOperator:
    """Deterministic random operator that satisfies both validation checks.

    A Hermitian A0 and symmetric B0 with entries in [-1, 1] are drawn, then A
    is shifted by (||A0||_F + ||B0||_F + margin) I.  The Frobenius norms
    overestimate the spectral norms, so the shift guarantees definiteness;
    the probe is still run and the shift doubled in the (theoretically
    unreachable) event of failure.
    """
    if kind not in ("real", "complex"):
        raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    rng = np.random.default_rng(seed)

    def draw():
        g = rng.uniform(-1.0, 1.0, (n, n))
        return g + 1j * rng.uniform(-1.0, 1.0, (n, n)) if kind == "complex" else g

    g = draw()
    a0 = 0.5 * (g + g.conj().T)
    g2 = draw()
    b0 = 0.5 * (g2 + g2.T)
    shift = _frob(a0) + _frob(b0) + margin
    for _ in range(64):
        op = make_operator(a0 + shift * np.eye(n), b0, kind=kind)
        if validate(op).definiteness_ok:
            return op
        shift *= 2.0
    raise RuntimeError("definiteness probe kept failing despite re-shifting")


def residual_metrics(op: BseOperator, full: FullEigensystem) -> tuple[float, float]:
    """The two accuracy metrics of a computed full eigensystem:

        r1 = ||Y^H H X - Lambda||_F / ||H||_F
        r2 = ||Y^H X - I||_F / sqrt(2n)
    """
    if full.n != op.n:
        raise ValueError(f"dimension mismatch: operator n={op.n}, eigensystem n={full.n}")
    h = assemble_h(op)
    m = 2 * op.n
    yh = full.y.conj().T
    r1 = _frob(yh @ (h @ full.x) - np.diag(full.lam)) / _frob(h)
    r2 = _frob(yh @ full.x - np.eye(m)) / np.sqrt(m)
    return float(r1), float(r2)
