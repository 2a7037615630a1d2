"""Gaussian-broadened spectral density and optical absorption curves.

The delta peaks of the exact densities are replaced by unit-mass Gaussians of
width sigma; each term is truncated at eight standard deviations, which
changes the curve by less than 1e-15 of the peak height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PositiveEigensystem, _readonly

#: Default broadening width, relative to the largest |lambda| broadened.
DEFAULT_RELATIVE_SIGMA = 1e-3

#: Default number of grid points when no grid is supplied.
DEFAULT_GRID_POINTS = 2001

_TRUNCATE_SIGMAS = 8.0


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled (omega, value) pairs with their broadening width.

    ``kind`` is 'dos' (values nonnegative) or 'absorption' (values may be
    signed).  For absorption, ``normalization_defect`` records how far the
    left/right eigenvector pairings deviated from the exact y_j^H x_j = 1.
    """

    omegas: np.ndarray
    values: np.ndarray
    sigma: float
    kind: str
    normalization_defect: float | None = None

    def __post_init__(self):
        omegas = np.array(self.omegas, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise ValueError("omegas and values must be 1-D of equal length")
        if omegas.size > 1 and not np.all(np.diff(omegas) > 0.0):
            raise ValueError("omegas must be strictly increasing")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.kind not in ("dos", "absorption"):
            raise ValueError("kind must be 'dos' or 'absorption'")
        object.__setattr__(self, "omegas", _readonly(omegas))
        object.__setattr__(self, "values", _readonly(values))


@dataclass(frozen=True)
class DipoleData:
    """Right and left dipole vectors of length 2n."""

    d_r: np.ndarray
    d_l: np.ndarray

    def __post_init__(self):
        d_r = np.array(self.d_r, dtype=np.complex128)
        d_l = np.array(self.d_l, dtype=np.complex128)
        if d_r.ndim != 1 or d_r.shape != d_l.shape:
            raise ValueError("dipole vectors must be 1-D of equal length")
        if not (np.isfinite(d_r).all() and np.isfinite(d_l).all()):
            raise ValueError("dipole vectors must be finite")
        object.__setattr__(self, "d_r", _readonly(d_r))
        object.__setattr__(self, "d_l", _readonly(d_l))


def default_grid(lam: np.ndarray, sigma: float) -> np.ndarray:
    """Uniform grid of DEFAULT_GRID_POINTS points spanning
    [min lam - 10 sigma, max lam + 10 sigma]."""
    lam = np.asarray(lam, dtype=np.float64)
    return np.linspace(float(np.min(lam)) - 10.0 * sigma,
                       float(np.max(lam)) + 10.0 * sigma, DEFAULT_GRID_POINTS)


def _sigma(lam: np.ndarray, sigma: float | None) -> float:
    """sigma, or DEFAULT_RELATIVE_SIGMA * max |lam| when it is None."""
    if sigma is None:
        sigma = DEFAULT_RELATIVE_SIGMA * float(np.max(np.abs(lam), initial=0.0))
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return float(sigma)


def _gaussian_mix(grid: np.ndarray, centers: np.ndarray, weights: np.ndarray,
                  sigma: float) -> np.ndarray:
    """Sum of weighted unit-mass Gaussians, each evaluated only within eight
    sigma of its center.  Accumulation order is the center order, so the
    result is deterministic."""
    out = np.zeros(grid.shape[0])
    peak = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)
    reach = _TRUNCATE_SIGMAS * sigma
    for c, w in zip(centers, weights):
        i0 = int(np.searchsorted(grid, c - reach, side="left"))
        i1 = int(np.searchsorted(grid, c + reach, side="right"))
        if i0 == i1:
            continue
        t = (grid[i0:i1] - c) / sigma
        out[i0:i1] += (w * peak) * np.exp(-0.5 * t * t)
    return out


def spectral_density(lam: np.ndarray, grid: np.ndarray | None = None,
                     sigma: float | None = None) -> SpectrumCurve:
    """Broadened density of states: phi(omega) = (1/N) sum_j N(omega -
    lambda_j; sigma) over all N supplied eigenvalues, sigma 1e-3 max|lambda_j| by default.

    On a grid that spans every eigenvalue with at least six sigma of padding
    and resolves sigma, the trapezoidal mass of the curve is 1 to 1e-3.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam.size == 0:
        raise ValueError("empty spectrum")
    sigma = _sigma(lam, sigma)
    if grid is None:
        grid = default_grid(lam, sigma)
    grid = np.asarray(grid, dtype=np.float64)
    weights = np.full(lam.shape[0], 1.0 / lam.shape[0])
    values = _gaussian_mix(grid, lam, weights, sigma)
    return SpectrumCurve(omegas=grid, values=values, sigma=sigma, kind="dos")


def absorption_spectrum(pos: PositiveEigensystem, dip: DipoleData,
                        grid: np.ndarray | None = None,
                        sigma: float | None = None) -> SpectrumCurve:
    """Dipole-weighted absorption curve over the positive eigenvalues:

        eps+(omega) = sum_j Re[(d_r^H x_j)(y_j^H d_l) / (y_j^H x_j)]
                      N(omega - lambda_j; sigma)

    with x_j = [X1; X2] e_j and y_j = [X1; -X2] e_j.  The normalization makes
    every y_j^H x_j equal 1; the division is kept as a safeguard and the
    largest deviation from 1 is reported on the curve; sigma defaults as in spectral_density.
    """
    sigma = _sigma(pos.lambda_plus, sigma)
    n = pos.n
    if dip.d_r.shape[0] != 2 * n:
        raise ValueError(f"dipole vectors must have length {2 * n}")
    x = np.vstack([pos.x1, pos.x2])
    y = np.vstack([pos.x1, -pos.x2])
    pairing = np.sum(y.conj() * x, axis=0)
    if np.any(np.abs(pairing) < 1e-8):
        raise ValueError("invalid eigensystem: |y_j^H x_j| below 1e-8")
    right = dip.d_r.conj() @ x
    left = y.conj().T @ dip.d_l
    weights = (right * left / pairing).real
    if grid is None:
        grid = default_grid(pos.lambda_plus, sigma)
    grid = np.asarray(grid, dtype=np.float64)
    values = _gaussian_mix(grid, pos.lambda_plus, weights, sigma)
    defect = float(np.max(np.abs(pairing - 1.0))) if n else 0.0
    return SpectrumCurve(omegas=grid, values=values, sigma=sigma,
                         kind="absorption", normalization_defect=defect)


def dos_dominance(lambda_h: np.ndarray, lambda_a: np.ndarray) -> bool:
    """True iff the Tamm-Dancoff spectrum sits to the right of the full one,
    index by index: lambda_j(A) >= lambda_j(H) - 1e-12 * scale.

    Both inputs are the positive eigenvalues sorted descending.
    """
    lambda_h = np.asarray(lambda_h, dtype=np.float64)
    lambda_a = np.asarray(lambda_a, dtype=np.float64)
    if lambda_h.shape != lambda_a.shape:
        raise ValueError("spectra must have equal length")
    if lambda_h.size == 0:
        return True
    scale = max(float(np.max(np.abs(lambda_h))), float(np.max(np.abs(lambda_a))))
    return bool(np.all(lambda_a >= lambda_h - 1e-12 * scale))
