"""Transform-level tests: frozen hand-derived cases plus eigenvalue
equivalences against a dense numpy oracle."""

import numpy as np
import pytest

from bse.core import assemble_h, make_operator, random_bse
from bse.embeddings import (RealHamiltonian, build_hr, build_m, expand_full,
                            real_hamiltonian_to_bse)
from bse.solvers import solve_complex

from matrices import random_hermitian


def jmat(n):
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


# ---------------------------------------------------------------------------
# build_m


def test_build_m_complex_1x1():
    m = build_m(make_operator([[2.0]], [[1j]]))
    assert np.array_equal(m, np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_build_m_real_block_diagonal():
    m = build_m(make_operator([[2.0]], [[1.0]]))
    assert np.array_equal(m, np.diag([3.0, 1.0]))


def test_build_m_identity():
    assert np.array_equal(build_m(make_operator(np.eye(3), np.zeros((3, 3)))), np.eye(6))


@pytest.mark.parametrize("seed", range(4))
def test_build_m_bitwise_symmetric(seed):
    m = build_m(random_bse(5, seed=seed))
    assert np.array_equal(m, m.T)


# ---------------------------------------------------------------------------
# build_hr


def test_build_hr_complex_1x1():
    hr = build_hr(make_operator([[2.0]], [[1j]]))
    assert np.array_equal(hr, np.array([[1.0, -2.0], [2.0, -1.0]]))
    # i * H_r has the spectrum of H: eigenvalues of H_r are +-i sqrt(3).
    mu = np.linalg.eigvals(hr)
    assert np.allclose(np.sort(mu.imag), [-np.sqrt(3.0), np.sqrt(3.0)], atol=1e-14)
    assert np.allclose(mu.real, 0.0, atol=1e-14)


def test_build_hr_real_1x1():
    hr = build_hr(make_operator([[2.0]], [[1.0]]))
    assert np.array_equal(hr, np.array([[0.0, -1.0], [3.0, 0.0]]))


def test_build_hr_zero():
    hr = build_hr(make_operator(np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.array_equal(hr, np.zeros((4, 4)))


@pytest.mark.parametrize("seed", range(4))
def test_build_hr_hamiltonian_structure_exact(seed):
    op = random_bse(5, seed=seed)
    hr = build_hr(op)
    j = jmat(5)
    hj = hr @ j
    assert np.array_equal(hj, hj.T)


# ---------------------------------------------------------------------------
# real_hamiltonian_to_bse


def test_to_bse_identity_blocks():
    hr = RealHamiltonian(h11=np.zeros((2, 2)), h12=np.eye(2), h21=-np.eye(2))
    op = real_hamiltonian_to_bse(hr)
    assert np.array_equal(op.a, np.eye(2, dtype=complex))
    assert np.array_equal(op.b, np.zeros((2, 2), dtype=complex))


def test_to_bse_pure_h11():
    hr = RealHamiltonian(h11=np.array([[1.0]]), h12=np.zeros((1, 1)),
                         h21=np.zeros((1, 1)))
    op = real_hamiltonian_to_bse(hr)
    assert np.array_equal(op.a, np.zeros((1, 1), dtype=complex))
    assert np.array_equal(op.b, np.array([[-1j]]))


def test_to_bse_zero():
    hr = RealHamiltonian(h11=np.zeros((2, 2)), h12=np.zeros((2, 2)),
                         h21=np.zeros((2, 2)))
    op = real_hamiltonian_to_bse(hr)
    assert np.all(op.a == 0) and np.all(op.b == 0)
    assert op.kind == "real"


def test_to_bse_rejects_asymmetric_blocks():
    with pytest.raises(ValueError):
        RealHamiltonian(h11=np.zeros((2, 2)),
                        h12=np.array([[0.0, 1.0], [0.0, 0.0]]),
                        h21=np.zeros((2, 2)))


def test_real_hamiltonian_rejects_bad_blocks():
    with pytest.raises(ValueError, match="h12 must be 2 x 2"):
        RealHamiltonian(h11=np.zeros((2, 2)), h12=np.zeros((3, 3)), h21=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="h21 must contain only finite"):
        RealHamiltonian(h11=np.zeros((2, 2)), h12=np.zeros((2, 2)),
                        h21=np.full((2, 2), np.nan))


def test_to_bse_symmetrizes_blocks_within_tolerance():
    # h12 and h21 are each symmetric within their own tolerance, about
    # 1e-8 at norm 1e6, but A = (h12 - h21)/2 is of norm ~1 and inherits
    # their defects; the conversion averages them away instead of failing.
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    s = 1e6 / 4 * (g + g.T)
    h12 = s + 1e-9 * rng.standard_normal((4, 4))
    h21 = s + 1e-9 * rng.standard_normal((4, 4)) + np.eye(4)
    op = real_hamiltonian_to_bse(RealHamiltonian(h11=np.zeros((4, 4)), h12=h12, h21=h21))
    assert np.array_equal(op.a, op.a.conj().T) and np.array_equal(op.b, op.b.T)
    assert np.allclose(op.a, -0.5 * np.eye(4), atol=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_recovers_operator(seed):
    # The exact inverse pair is hr |-> -build_hr(op): composing the two
    # verbatim conversion formulas flips the sign.
    op = random_bse(4, seed=seed)
    n = op.n
    hr_mat = -build_hr(op)
    hr = RealHamiltonian(h11=hr_mat[:n, :n], h12=hr_mat[:n, n:], h21=hr_mat[n:, :n])
    back = real_hamiltonian_to_bse(hr)
    # Symmetric blocks need no averaging: the verbatim formulas, bitwise.
    assert np.array_equal(back.a, 0.5 * (hr.h12 - hr.h21) + 0.5j * (hr.h11.T - hr.h11))
    assert np.allclose(back.a, op.a, atol=1e-15 * max(1.0, np.abs(op.a).max()))
    assert np.allclose(back.b, op.b, atol=1e-15 * max(1.0, np.abs(op.b).max()))


def test_round_trip_matrix_level():
    rng = np.random.default_rng(3)
    h11 = rng.standard_normal((3, 3))
    h12 = rng.standard_normal((3, 3))
    h12 = 0.5 * (h12 + h12.T)
    h21 = rng.standard_normal((3, 3))
    h21 = 0.5 * (h21 + h21.T)
    hr = RealHamiltonian(h11=h11, h12=h12, h21=h21)
    op = real_hamiltonian_to_bse(hr)
    assert np.allclose(build_hr(op), -hr.to_matrix(), atol=1e-15)
    # Spectrum correspondence: Lambda(H) = i Lambda(H_r) as multisets.
    lam_h = np.linalg.eigvals(assemble_h(op))
    lam_r = 1j * np.linalg.eigvals(hr.to_matrix())
    key = lambda z: (np.round(z.real, 9), np.round(z.imag, 9))
    assert np.allclose(sorted(lam_h, key=key), sorted(lam_r, key=key), atol=1e-12)


# ---------------------------------------------------------------------------
# expand_full


def test_expand_full_1x1():
    op = make_operator([[2.0]], [[1j]])
    full = expand_full(op, solve_complex(op))
    assert np.linalg.norm(full.y.conj().T @ full.x - np.eye(2)) <= 1e-14
    assert np.array_equal(full.lam[1:], -full.lam[:1])


def test_expand_full_hermitian_limit():
    # X2 = 0 with unitary X1: Y equals X and Y^H X = I.
    from bse.core import PositiveEigensystem
    q = np.linalg.qr(random_hermitian(3, 5))[0]
    pos = PositiveEigensystem(lambda_plus=np.array([3.0, 2.0, 1.0]),
                              x1=q, x2=np.zeros((3, 3), dtype=complex))
    op = make_operator(np.eye(3), np.zeros((3, 3)))
    full = expand_full(op, pos)
    assert np.array_equal(full.x, full.y)
    assert np.linalg.norm(full.y.conj().T @ full.x - np.eye(6)) <= 1e-14


def test_expand_full_bitwise_negation():
    op = random_bse(5, seed=8)
    full = expand_full(op, solve_complex(op))
    assert np.array_equal(full.lam[5:], -full.lam[:5])


def test_expand_full_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        expand_full(random_bse(4, seed=0), solve_complex(random_bse(3, seed=0)))


# ---------------------------------------------------------------------------
# Unitary equivalences (dense numpy oracle)


@pytest.mark.parametrize("seed", range(6))
def test_spectral_equivalences(seed):
    n = 2 + seed % 7
    op = random_bse(n, seed=seed)
    h = assemble_h(op)
    lam_h = np.sort(np.linalg.eigvals(h).real)
    norm2 = np.linalg.norm(h, 2)

    lam_m = np.sort(np.linalg.eigvals(-1j * (jmat(n) @ build_m(op))).real)
    lam_r = np.sort(np.linalg.eigvals(1j * build_hr(op)).real)
    assert np.max(np.abs(lam_m - lam_h)) <= 1e-12 * norm2
    assert np.max(np.abs(lam_r - lam_h)) <= 1e-12 * norm2
