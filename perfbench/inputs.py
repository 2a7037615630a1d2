"""Seeded input generator for the benchmark.

Every input is drawn from ``numpy.random.default_rng([seed, index])``, so
the same seed gives the same matrices and byte-identical Matrix Market
files.  ``bse.random_bse`` is deliberately not used: the program under test
receives only the generated matrices.

Each input has a Hermitian A, a symmetric B and a diagonal shift of A that
makes [[A, B], [conj B, conj A]] positive definite.  The four input
properties are:

- ``generic``: dense random blocks; the shift is the Frobenius bound
  |A0|_F + |B0|_F + 1, as in the program's own generator.
- ``near_degenerate``: identical diagonal blocks joined by a coupling of
  size ``COUPLING``, so eigenvalues come in pairs split by about that much.
- ``decoupled``: distinct diagonal blocks and no coupling, so the spectrum
  is the union of two independent ones.
- ``small_margin``: dense random blocks shifted so that the smallest
  eigenvalue of the definiteness matrix is ``SMALL_MARGIN`` times the
  spectral norm of its unshifted part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

PROPERTIES = ("generic", "near_degenerate", "decoupled", "small_margin")

#: Entry scale of the coupling between the identical blocks of a
#: near-degenerate input.
COUPLING = 1e-6

#: Smallest eigenvalue of the definiteness matrix of a small-margin input,
#: relative to the spectral norm of its unshifted part.
SMALL_MARGIN = 1e-5


@dataclass(frozen=True)
class Input:
    """One generated problem: the blocks the program receives, plus where
    they were written (file workloads) or the operator built from them
    (library workloads)."""

    index: int
    n: int
    prop: str
    kind: str
    a: np.ndarray
    b: np.ndarray
    a_path: Path | None = None
    b_path: Path | None = None
    op: object = None

    def omega(self) -> np.ndarray:
        return omega(self.a, self.b)

    def h(self) -> np.ndarray:
        """The 2n x 2n matrix H = [[A, B], [-conj B, -conj A]]."""
        return np.block([[self.a, self.b], [-self.b.conj(), -self.a.conj()]])


def omega(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The definiteness matrix [[A, B], [conj B, conj A]]."""
    return np.block([[a, b], [b.conj(), a.conj()]])


def _draw(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    g = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "complex":
        g = g + 1j * rng.uniform(-1.0, 1.0, (n, n))
    return g


def _hermitian(rng, n, kind):
    g = _draw(rng, n, kind)
    return 0.5 * (g + g.conj().T)


def _symmetric(rng, n, kind):
    g = _draw(rng, n, kind)
    return 0.5 * (g + g.T)


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0] + y.shape[0],) * 2, dtype=np.result_type(x, y))
    out[:x.shape[0], :x.shape[0]] = x
    out[x.shape[0]:, x.shape[0]:] = y
    return out


def generate(seed: int, index: int, n: int, prop: str, kind: str) -> Input:
    """Input number ``index`` of the run seeded with ``seed``."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown input property {prop!r}")
    if kind not in ("real", "complex"):
        raise ValueError(f"unknown kind {kind!r}")
    if n < 2 or n % 2:
        raise ValueError("n must be even and at least 2")
    rng = np.random.default_rng([seed, index])
    half = n // 2
    if prop == "near_degenerate":
        a1, b1 = _hermitian(rng, half, kind), _symmetric(rng, half, kind)
        a0 = _block_diag(a1, a1) + COUPLING * _hermitian(rng, n, kind)
        b0 = _block_diag(b1, b1) + COUPLING * _symmetric(rng, n, kind)
    elif prop == "decoupled":
        a0 = _block_diag(_hermitian(rng, half, kind), _hermitian(rng, half, kind))
        b0 = _block_diag(_symmetric(rng, half, kind), _symmetric(rng, half, kind))
    else:
        a0, b0 = _hermitian(rng, n, kind), _symmetric(rng, n, kind)

    if prop == "small_margin":
        ev = np.linalg.eigvalsh(omega(a0, b0))
        shift = -ev[0] + SMALL_MARGIN * max(abs(ev[0]), abs(ev[-1]))
    else:
        shift = float(np.linalg.norm(a0)) + float(np.linalg.norm(b0)) + 1.0
    a = a0 + shift * np.eye(n)
    dtype = np.complex128 if kind == "complex" else np.float64
    return Input(index=index, n=n, prop=prop, kind=kind,
                 a=np.ascontiguousarray(a, dtype=dtype),
                 b=np.ascontiguousarray(b0, dtype=dtype))


def write_mtx(path: Path, x: np.ndarray, symmetry: str) -> None:
    """Matrix Market array file holding the lower triangle of a symmetric or
    Hermitian matrix, column by column, each number in shortest round-trip
    form so the program reads back exactly the generated values."""
    n = x.shape[0]
    is_complex = np.iscomplexobj(x)
    lines = [f"%%MatrixMarket matrix array {'complex' if is_complex else 'real'} "
             f"{symmetry}", f"{n} {n}"]
    for j in range(n):
        col = x[j:, j]
        if is_complex:
            lines.extend(f"{v.real!r} {v.imag!r}"
                         for v in col.astype(np.complex128).tolist())
        else:
            lines.extend(repr(v) for v in col.astype(np.float64).tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_input(inp: Input, directory: Path) -> Input:
    """Write A (Hermitian storage) and B (symmetric storage) under
    ``directory`` and return the input with its file paths set."""
    directory.mkdir(parents=True, exist_ok=True)
    a_path = directory / f"A{inp.index}.mtx"
    b_path = directory / f"B{inp.index}.mtx"
    write_mtx(a_path, inp.a, "hermitian" if inp.kind == "complex" else "symmetric")
    write_mtx(b_path, inp.b, "symmetric")
    return replace(inp, a_path=a_path, b_path=b_path)
