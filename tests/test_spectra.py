"""Spectral density and absorption curves: analytic peak values, quadrature
mass, linearity/shift properties, and the dominance comparator."""

import numpy as np
import pytest

from bse.core import make_operator
from bse.kernels import hermitian_eig
from bse.solvers import solve_complex
from bse.spectra import (DipoleData, SpectrumCurve, absorption_spectrum,
                         dos_dominance, spectral_density)


def gauss(t, sigma):
    return np.exp(-0.5 * (t / sigma) ** 2) / (np.sqrt(2.0 * np.pi) * sigma)


def trapezoid_mass(omegas, values):
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(omegas)))


# ---------------------------------------------------------------------------
# spectral_density


def test_dos_peak_value():
    sigma = 5e-4
    curve = spectral_density([1.0, -1.0], grid=np.array([0.0, 1.0]), sigma=sigma)
    # The -1 term is beyond the truncation window; half weight of the peak.
    peak = 0.5 / (np.sqrt(2.0 * np.pi) * sigma)
    assert curve.values[1] == pytest.approx(peak, rel=1e-12)
    assert curve.values[0] == 0.0


def test_dos_symmetric_curve():
    # Dyadic grid points mirror exactly, so the curve is bitwise symmetric.
    grid = np.arange(-256, 257) / 256.0
    curve = spectral_density([0.0], grid=grid, sigma=0.25)
    assert np.array_equal(curve.values, curve.values[::-1])


@pytest.mark.parametrize("seed", [0, 1])
def test_dos_quadrature_mass(seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-2.0, 2.0, 24)
    sigma = 5e-3
    grid = np.arange(lam.min() - 6 * sigma, lam.max() + 6 * sigma, sigma / 4.0)
    curve = spectral_density(lam, grid=grid, sigma=sigma)
    assert trapezoid_mass(curve.omegas, curve.values) == pytest.approx(1.0, abs=1e-3)


def test_dos_multiset_linearity():
    grid = np.linspace(-3.0, 3.0, 301)
    lam1 = np.array([-1.0, 0.5])
    lam2 = np.array([1.5, 2.0, -2.5])
    c_union = spectral_density(np.concatenate([lam1, lam2]), grid=grid, sigma=0.1)
    c1 = spectral_density(lam1, grid=grid, sigma=0.1)
    c2 = spectral_density(lam2, grid=grid, sigma=0.1)
    mix = (2.0 * c1.values + 3.0 * c2.values) / 5.0
    assert np.allclose(c_union.values, mix, rtol=1e-14, atol=1e-14)


def test_dos_shift_equivariance():
    # Dyadic inputs and shift keep the Gaussian arguments bitwise identical.
    lam = np.array([-0.5, 0.25, 1.0])
    grid = np.linspace(-2.0, 2.0, 129)
    shift = 2.0
    base = spectral_density(lam, grid=grid, sigma=0.125)
    moved = spectral_density(lam + shift, grid=grid + shift, sigma=0.125)
    assert np.array_equal(base.values, moved.values)


def test_dos_default_grid():
    curve = spectral_density([1.0, -1.0], sigma=0.01)
    assert curve.omegas.shape == (2001,)
    assert curve.omegas[0] == pytest.approx(-1.1)
    assert curve.omegas[-1] == pytest.approx(1.1)


def test_dos_default_sigma_is_relative():
    # sigma defaults to DEFAULT_RELATIVE_SIGMA * max |lambda|, so the default
    # grid's step of about 1.01 sigma resolves it at any scale.
    from bse.spectra import DEFAULT_RELATIVE_SIGMA
    for scale in (1.0, 1e-300, 1e160):
        lam = scale * np.array([-4.0, -1.0, 1.0, 4.0])
        curve = spectral_density(lam)
        assert curve.sigma == DEFAULT_RELATIVE_SIGMA * (4.0 * scale)
        assert trapezoid_mass(curve.omegas, curve.values) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError, match="sigma must be positive"):
        spectral_density([0.0, 0.0])


def test_dos_errors():
    with pytest.raises(ValueError, match="empty"):
        spectral_density([], sigma=0.1)
    with pytest.raises(ValueError, match="sigma"):
        spectral_density([1.0], sigma=0.0)


def test_curve_invariants():
    with pytest.raises(ValueError):
        SpectrumCurve(omegas=np.array([0.0, 0.0]), values=np.zeros(2),
                      sigma=0.1, kind="dos")
    with pytest.raises(ValueError):
        SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.zeros(3),
                      sigma=0.1, kind="dos")
    with pytest.raises(ValueError, match="sigma"):
        SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.zeros(2),
                      sigma=0.0, kind="dos")
    with pytest.raises(ValueError, match="kind"):
        SpectrumCurve(omegas=np.array([0.0, 1.0]), values=np.zeros(2),
                      sigma=0.1, kind="emission")


def test_dipole_invariants():
    with pytest.raises(ValueError, match="1-D of equal length"):
        DipoleData(d_r=np.ones(2), d_l=np.ones(4))
    with pytest.raises(ValueError, match="1-D of equal length"):
        DipoleData(d_r=np.ones((2, 1)), d_l=np.ones((2, 1)))
    with pytest.raises(ValueError, match="finite"):
        DipoleData(d_r=np.array([1.0, np.inf]), d_l=np.ones(2))


# ---------------------------------------------------------------------------
# absorption_spectrum


def _unit_pos():
    from bse.core import PositiveEigensystem
    return PositiveEigensystem(lambda_plus=np.array([2.0]),
                               x1=np.eye(1, dtype=complex),
                               x2=np.zeros((1, 1), dtype=complex))


def test_absorption_single_unit_peak():
    pos = _unit_pos()
    dip = DipoleData(d_r=np.array([1.0, 0.0]), d_l=np.array([1.0, 0.0]))
    grid = np.linspace(1.5, 2.5, 201)
    curve = absorption_spectrum(pos, dip, grid=grid, sigma=0.05)
    assert np.allclose(curve.values, gauss(grid - 2.0, 0.05), rtol=1e-13, atol=1e-13)
    assert curve.normalization_defect <= 1e-15


def test_absorption_zero_dipole():
    pos = _unit_pos()
    dip = DipoleData(d_r=np.zeros(2), d_l=np.array([1.0, 0.0]))
    curve = absorption_spectrum(pos, dip, grid=np.linspace(0.0, 3.0, 11), sigma=0.1)
    assert np.array_equal(curve.values, np.zeros(11))


def test_absorption_1x1_matches_direct_formula():
    op = make_operator([[2.0]], [[1j]])
    pos = solve_complex(op)
    d = np.array([1.0, 0.0], dtype=complex)
    dip = DipoleData(d_r=d, d_l=d)
    sigma = 0.05
    grid = np.linspace(1.0, 2.5, 301)
    curve = absorption_spectrum(pos, dip, grid=grid, sigma=sigma)

    x = np.array([pos.x1[0, 0], pos.x2[0, 0]])
    y = np.array([pos.x1[0, 0], -pos.x2[0, 0]])
    weight = (d.conj() @ x) * (y.conj() @ d) / (y.conj() @ x)
    direct = weight.real * gauss(grid - pos.lambda_plus[0], sigma)
    assert np.max(np.abs(curve.values - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_absorption_rejects_degenerate_pairing():
    from bse.core import PositiveEigensystem
    pos = PositiveEigensystem(lambda_plus=np.array([1.0]),
                              x1=np.eye(1, dtype=complex),
                              x2=np.eye(1, dtype=complex))
    dip = DipoleData(d_r=np.ones(2), d_l=np.ones(2))
    with pytest.raises(ValueError, match="1e-8"):
        absorption_spectrum(pos, dip, grid=np.linspace(0, 2, 5), sigma=0.1)


def test_absorption_dipole_length_check():
    pos = _unit_pos()
    dip = DipoleData(d_r=np.ones(4), d_l=np.ones(4))
    with pytest.raises(ValueError, match="length"):
        absorption_spectrum(pos, dip, grid=np.linspace(0, 2, 5), sigma=0.1)
    with pytest.raises(ValueError, match="sigma"):
        absorption_spectrum(pos, DipoleData(d_r=np.ones(2), d_l=np.ones(2)), sigma=0.0)


def test_absorption_default_sigma_is_relative():
    dip = DipoleData(d_r=np.array([1.0, 0.0]), d_l=np.array([1.0, 0.0]))
    assert absorption_spectrum(_unit_pos(), dip).sigma == 2e-3


def test_absorption_default_grid():
    dip = DipoleData(d_r=np.array([1.0, 0.0]), d_l=np.array([1.0, 0.0]))
    curve = absorption_spectrum(_unit_pos(), dip, sigma=0.01)
    assert curve.omegas.shape == (2001,)
    assert curve.omegas[0] == pytest.approx(1.9)
    assert curve.omegas[-1] == pytest.approx(2.1)


# ---------------------------------------------------------------------------
# dos_dominance


def test_dominance_identical():
    lam = np.array([3.0, 2.0, 1.0])
    assert dos_dominance(lam, lam)


def test_dominance_shifted_up():
    lam = np.array([3.0, 2.0, 1.0])
    assert dos_dominance(lam, lam + 0.1)


def test_dominance_violated():
    lam_h = np.array([3.0, 2.0, 1.0])
    lam_a = np.array([3.0, 1.9, 1.0])
    assert not dos_dominance(lam_h, lam_a)


def test_dominance_length_mismatch():
    with pytest.raises(ValueError):
        dos_dominance(np.ones(3), np.ones(4))


def test_dominance_empty():
    assert dos_dominance(np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("seed", range(5))
def test_dominance_on_random_instances(seed):
    from bse.core import random_bse
    op = random_bse(8, seed=seed)
    lam_h = solve_complex(op).lambda_plus
    lam_a, _ = hermitian_eig(op.a)
    assert dos_dominance(lam_h, lam_a)
