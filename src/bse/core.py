"""Operator container, hypothesis validation, problem generator, residual metrics.

The block operator pair (A, B) defines the 2n x 2n non-Hermitian matrix

    H = [[ A,        B      ],
         [-conj(B), -conj(A)]]

with A Hermitian and B (complex) symmetric.  Everything downstream relies on
exactly this structure, so ``BseOperator`` checks every hypothesis but
definiteness at construction and rejects a violation instead of silently
repairing it; definiteness is left to ``validate`` and the solvers' probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Relative symmetry tolerance; the threshold applied to the defect
#: ||A - A^H||_F is SYM_RTOL * max(1, ||A||_F).
SYM_RTOL = 100.0 * EPS


def _scale_exponent(x: np.ndarray) -> int:
    """e for the exact rescaling x * 2**-e that brings max|x| into [0.5, 1):
    max|x| = f * 2**e with f in [0.5, 1), clamped at -1023 (2**1023 is the
    largest finite scale), and 0 when max|x| is zero or not finite."""
    amax = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < amax < np.inf:
        return 0
    return max(int(np.frexp(amax)[1]), -1023)


def _frob(x: np.ndarray) -> float:
    """||x||_F without spurious overflow or underflow.

    The plain norm is kept when it is finite and at least 2**-400, where no
    square can have overflowed and squares lost to underflow are below
    rounding.  Otherwise x is scaled by 2**-e (``_scale_exponent``) and the
    norm is scaled back; both scalings are exact.
    """
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(x))
    e = 0 if 2.0 ** -400 <= nrm < np.inf else _scale_exponent(x)
    return float(np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -e)), e)) if e else nrm


def _symmetrize(x: np.ndarray, mirror=np.conjugate) -> np.ndarray:
    """x <- 0.5 (x + mirror(x^T)) in place, 64 rows at a time, and x: the
    bits of 0.5 * (x + mirror(x.T)) with no full-size temporary.  mirror is
    np.conjugate for symmetric or Hermitian x, np.negative for skew x."""
    for r0 in range(0, x.shape[0], 64):
        rows = x[r0:r0 + 64, r0:] + mirror(x[r0:, r0:r0 + 64].T)
        rows *= 0.5
        x[r0:, r0:r0 + 64] = mirror(rows).T
        x[r0:r0 + 64, r0:] = rows
    return x


_MIRROR = {"Hermitian": np.conjugate, "symmetric": np.positive, "skew-symmetric": np.negative}


def structure_defect(x: np.ndarray, structure: str) -> tuple[float, bool]:
    """Relative defect ||x - x'||_F / ||x||_F (0 for a zero x), where x' is
    x^H, x^T or -x^T for ``structure`` 'Hermitian', 'symmetric' or
    'skew-symmetric', and whether the absolute defect ||x - x'||_F is within
    SYM_RTOL * max(1, ||x||_F).  x - x' is formed 64 rows at a time."""
    nrm = _frob(x)
    defect = _frob(np.array([_frob(x[i:i + 64] - _MIRROR[structure](x[:, i:i + 64].T))
                             for i in range(0, x.shape[0], 64)]))
    return (defect / nrm if nrm else 0.0), defect <= SYM_RTOL * max(1.0, nrm)


def check_structure(x: np.ndarray, structure: str, name: str = "input",
                    hint: str = "") -> float:
    """Relative defect of x (see ``structure_defect``); ValueError, naming
    ``name`` and appending ``hint``, unless x has the given structure within
    tolerance."""
    rel, ok = structure_defect(x, structure)
    if not ok:
        raise ValueError(f"{name} is not {structure} within tolerance: "
                         f"relative defect {rel:.3e}{hint}")
    return rel


def _readonly(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x)
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class BseOperator:
    """The pair (A, B) with A Hermitian and B symmetric.

    Construction is the one gate for every hypothesis but definiteness:
    ValueError unless A is square and at least 1 x 1, B has A's shape, every
    entry is finite, and A and B are Hermitian and symmetric within
    ``SYM_RTOL`` (``check_structure``).  Instances are immutable; the stored
    arrays are read-only complex128 copies.  ``sym_defects`` keeps the
    relative defects of A and B that this check measured.
    """

    a: np.ndarray
    b: np.ndarray
    sym_defects: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=np.complex128)
        b = np.array(self.b, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"A must be square and at least 1 x 1, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"A and B shapes differ: {a.shape} vs {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("A and B must contain only finite entries")
        hint = "; pass symmetrize=True to average it away"
        defects = (check_structure(a, "Hermitian", "A", hint),
                   check_structure(b, "symmetric", "B", hint))
        object.__setattr__(self, "sym_defects", defects)
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def kind(self) -> str:
        """'real' when both imaginary parts are exactly zero, else 'complex'."""
        return "complex" if self.a.imag.any() or self.b.imag.any() else "real"


def make_operator(a, b, kind: str | None = None, symmetrize: bool = False) -> BseOperator:
    """Build a BseOperator from array-likes.

    With ``symmetrize`` set, A <- (A + A^H)/2 and B <- (B + B^T)/2 are
    applied first; otherwise inputs whose symmetry defect exceeds ``SYM_RTOL``
    are rejected by ``BseOperator`` itself.

    Parameters
    ----------
    a, b : array_like, n x n
        Candidate Hermitian / symmetric blocks.
    kind : {'real', 'complex'}, optional
        The expected ``BseOperator.kind``; ValueError when the data differ.
    symmetrize : bool
        Average away symmetry defects instead of rejecting.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if symmetrize:
        a = 0.5 * (a + a.conj().T)
        b = 0.5 * (b + b.T)
    op = BseOperator(a=a, b=b)
    if kind is not None and op.kind != kind:
        raise ValueError(f"expected a {kind} operator, got a {op.kind} one")
    return op


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the definiteness probe on an operator pair.

    ``sym_defects`` are the relative symmetry defects of A and B, as
    ``BseOperator`` measured them when it checked them.  ``margin`` is the
    smallest diagonal pivot encountered by the Cholesky probe of the real
    embedding M (the failing, nonpositive pivot when the probe breaks down);
    ``ok`` is whether the probe succeeded.
    """

    ok: bool
    sym_defects: tuple[float, float]
    margin: float


@dataclass(frozen=True)
class PositiveEigensystem:
    """Positive half of the spectrum: lambda_1 >= ... >= lambda_n > 0 with the
    right-eigenvector blocks X1, X2 normalized so X1^H X1 - X2^H X2 = I.
    Arrays already of the stored dtype are owned, made read-only in place."""

    lambda_plus: np.ndarray
    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambda_plus, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.complex128)
        x2 = np.asarray(self.x2, dtype=np.complex128)
        n = lam.shape[0]
        if x1.shape != (n, n) or x2.shape != (n, n):
            raise ValueError("eigenvector blocks must be n x n")
        if not np.all(lam > 0.0):
            raise ValueError("all eigenvalues must be strictly positive")
        if np.any(np.diff(lam) > 0.0):
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
        if not np.array_equal(lam[n:], -lam[:n]):
            raise ValueError("lambda[n:] must be the exact negation of lambda[:n]")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "lam", _readonly(lam))

    @property
    def n(self) -> int:
        return self.lam.shape[0] // 2


def validate(op: BseOperator) -> ValidationReport:
    """Check the one hypothesis that ``BseOperator`` leaves open: positive
    definiteness of [[A, B], [conj B, conj A]].  The report also carries the
    relative symmetry defects of A and B.

    The definiteness probe runs a Cholesky factorization of the real
    symmetric embedding M, never of the complex block matrix, so the whole
    check stays in real arithmetic.
    """
    # Imported here: embeddings/kernels import this module for the types.
    from .embeddings import build_m
    from .kernels import NotPositiveDefinite, cholesky

    try:
        margin = float(np.min(np.diagonal(cholesky(build_m(op)))) ** 2)
        ok = True
    except NotPositiveDefinite as err:
        margin = float(err.pivot_value)
        ok = False
    return ValidationReport(ok=ok, sym_defects=op.sym_defects, margin=margin)


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
        op = make_operator(a0 + shift * np.eye(n), b0)
        if validate(op).ok:
            return op
        shift *= 2.0
    raise RuntimeError("definiteness probe kept failing despite re-shifting")


#: The accuracy target for both residual metrics.
RESIDUAL_TARGET = 5e-14


def residual_warnings(r1: float, r2: float) -> tuple[str, ...]:
    """The accuracy verdict on ``residual_metrics``' (r1, r2): one message
    for each metric above ``RESIDUAL_TARGET``, none when both meet it."""
    return tuple(f"{name}={value:.3e} exceeds the {RESIDUAL_TARGET:g} target"
                 for name, value in (("r1", r1), ("r2", r2)) if value > RESIDUAL_TARGET)


def residual_metrics(op: BseOperator,
                     system: PositiveEigensystem | FullEigensystem) -> tuple[float, float]:
    """The two accuracy metrics of a computed eigensystem:

        r1 = ||Y^H H X - Lambda||_F / ||H||_F
        r2 = ||Y^H X - I||_F / sqrt(2n)

    for the full eigensystem X, Y, Lambda; a ``PositiveEigensystem`` stands
    for its ``expand_full``, X = [[X1, conj X2], [X2, conj X1]] and
    Y = diag(I, -I) X diag(I, -I).  The second half of every product is then
    the conjugated, swapped first half, and with u = A X1 + B X2,
    v = A conj X2 + B conj X1 and K = X1^H conj X2 the metrics are exactly

        r1 = hypot(||X1^H u + X2^H conj v - Lambda_+||_F,
                   ||X1^H v + X2^H conj u||_F) / hypot(||A||_F, ||B||_F)
        r2 = hypot(||X1^H X1 - X2^H X2 - I||_F, ||K - K^T||_F) / sqrt(n),

    88 n^3 real flops instead of 192 n^3, computed from X1 and X2 in n x n
    temporaries that this function owns and overwrites; ``op`` and
    ``system`` are read only.  A ``FullEigensystem`` whose X and Y have
    exactly ``expand_full``'s layout (six blocks compared for equality) is
    sliced into X1 and X2 and gets the same metrics; any other gets the full
    products (``_full_residuals``).
    """
    if system.n != op.n:
        raise ValueError(f"dimension mismatch: operator n={op.n}, eigensystem n={system.n}")
    n = op.n
    if isinstance(system, PositiveEigensystem):
        return _paired_residuals(op, system.lambda_plus, system.x1, system.x2)
    x, y = system.x, system.y
    paired = (np.array_equal(x[:n, n:], x[n:, :n].conj())
              and np.array_equal(x[n:, n:], x[:n, :n].conj())
              and np.array_equal(y[:n, :n], x[:n, :n]) and np.array_equal(y[n:, :n], -x[n:, :n])
              and np.array_equal(y[:n, n:], -x[:n, n:]) and np.array_equal(y[n:, n:], x[n:, n:]))
    if not paired:
        return _full_residuals(op, system)
    return _paired_residuals(op, system.lam[:n], x[:n, :n], x[n:, :n])


def _paired_residuals(op: BseOperator, lam: np.ndarray, x1: np.ndarray,
                      x2: np.ndarray) -> tuple[float, float]:
    """r1 and r2 of ``residual_metrics`` from Lambda_+, X1 and X2."""
    n, a, b = op.n, op.a, op.b
    c1, c2 = x1.conj(), x2.conj()
    u = a @ x1
    u += b @ x2
    v = a @ c2
    v += b @ c1
    # X2^H conj v = conj(X2^T v) and X2^H conj u = conj(X2^T u).
    t = c1.T @ u
    t += np.conj(x2.T @ v)
    t[np.diag_indices(n)] -= lam
    on_diag = _frob(t)
    np.matmul(c1.T, v, out=t)
    t += np.conj(x2.T @ u)
    r1 = math.hypot(on_diag, _frob(t)) / math.hypot(_frob(a), _frob(b))
    np.matmul(c1.T, x1, out=t)
    t -= c2.T @ x2
    t[np.diag_indices(n)] -= 1.0
    k = c1.T @ c2
    r2 = math.hypot(_frob(t), _frob(k - k.T)) / math.sqrt(n)
    return float(r1), float(r2)


def _full_residuals(op: BseOperator, full: FullEigensystem) -> tuple[float, float]:
    """r1 and r2 from the full 2n x 2n products."""
    h = assemble_h(op)
    m = 2 * op.n
    yh = full.y.conj().T
    r1 = _frob(yh @ (h @ full.x) - np.diag(full.lam)) / _frob(h)
    r2 = _frob(yh @ full.x - np.eye(m)) / np.sqrt(m)
    return float(r1), float(r2)
