"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from bse.core import assemble_h, make_operator, random_bse, residual_metrics
from bse.embeddings import (RealHamiltonian, build_hr, build_m, expand_full,
                            real_hamiltonian_to_bse)
from bse.kernels import (SymTridiagonal, cholesky, hermitian_eig, jacobi_svd,
                         skew_tridiagonalize, sym_tridiagonalize, tridiag_eig)
from bse.solvers import solve_complex, solve_oracle, solve_real, solve_tda
from bse.spectra import DipoleData, absorption_spectrum, dos_dominance, spectral_density

from matrices import random_skew, random_spd, random_symmetric


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_residual_reproduction():
    """r1 = |Y^H H X - L|_F/|H|_F and r2 = |Y^H X - I|_F/sqrt(2n) stay below
    5e-14 for 10 seeds at each of n = 32, 128, 512."""
    worst_r1 = worst_r2 = 0.0
    for n in (32, 128, 512):
        for seed in range(10):
            op = random_bse(n, seed=seed)
            r1, r2 = residual_metrics(op, expand_full(op, solve_complex(op)))
            worst_r1 = max(worst_r1, r1)
            worst_r2 = max(worst_r2, r2)
        print(f"[acceptance]   n={n}: worst r1={worst_r1:.3e} r2={worst_r2:.3e}")
    _report("1 (residual reproduction)", worst_r1 <= 5e-14 and worst_r2 <= 5e-14,
            f"max r1={worst_r1:.3e}, max r2={worst_r2:.3e}, tolerance 5e-14")


def test_criterion_2_oracle_equivalence():
    """Sorted positive eigenvalues agree elementwise to 1e-12 |H|_2 between
    solve_complex and solve_oracle (50 seeds, n <= 64), and between
    solve_real and solve_complex on real instances."""
    worst = 0.0
    for seed in range(50):
        n = int(np.random.default_rng(seed).integers(2, 65))
        op = random_bse(n, seed=seed)
        lam = solve_complex(op).lambda_plus
        oracle = solve_oracle(op)[:n]
        worst = max(worst, float(np.max(np.abs(lam - oracle)) / lam[0]))
    worst_real = 0.0
    for seed in range(50):
        n = int(np.random.default_rng(1000 + seed).integers(2, 65))
        op = random_bse(n, seed=seed, kind="real")
        lam_c = solve_complex(op).lambda_plus
        lam_r = solve_real(op).lambda_plus
        worst_real = max(worst_real, float(np.max(np.abs(lam_r - lam_c)) / lam_c[0]))
    _report("2 (oracle equivalence)", worst <= 1e-12 and worst_real <= 1e-12,
            f"complex-vs-oracle {worst:.3e}, real-vs-complex {worst_real:.3e}, "
            f"tolerance 1e-12 relative to |H|_2")


def test_criterion_3_structure_preservation():
    """Expanded spectra are exactly plus/minus paired bitwise and real by
    representation; the oracle route shows a measurable pairing defect."""
    paired = real_repr = True
    for seed in range(5):
        op = random_bse(24, seed=seed)
        full = expand_full(op, solve_complex(op))
        paired &= np.array_equal(full.lam[24:], -full.lam[:24])
        real_repr &= full.lam.dtype == np.float64
    defects = []
    for seed in range(8):
        vals = solve_oracle(random_bse(24, seed=seed))
        defects.append(float(np.max(np.abs(vals + vals[::-1]))))
    oracle_imperfect = max(defects) > 0.0
    _report("3 (structure preservation)",
            paired and real_repr and oracle_imperfect,
            f"bitwise pairing={paired}, real dtype={real_repr}, "
            f"max oracle pairing defect={max(defects):.3e} (> 0 expected)")


def test_criterion_4_tda_bound():
    """Over 100 random validated instances with n <= 64, every Tamm-Dancoff
    eigenvalue sits above its counterpart: min gap >= -1e-12 |A|_2, and the
    spectrum-level dominance check holds."""
    worst = np.inf
    dominance_all = True
    for seed in range(100):
        n = int(np.random.default_rng(seed).integers(2, 65))
        op = random_bse(n, seed=seed)
        lam_h = solve_complex(op).lambda_plus
        lam_a, _ = hermitian_eig(op.a, vectors=False)
        scale = float(np.max(np.abs(lam_a)))
        worst = min(worst, float(np.min(lam_a - lam_h) / scale))
        dominance_all &= dos_dominance(lam_h, lam_a)
    _report("4 (TDA overestimation)", worst >= -1e-12 and dominance_all,
            f"min normalized gap {worst:.3e} (>= -1e-12), dominance in all: {dominance_all}")


def test_criterion_5_product_eigenvalue_bound():
    """sqrt(lambda_j(A1 A2)) <= lambda_j((A1+A2)/2) + 1e-12 over 200 random
    Hermitian positive definite pairs of size <= 16."""
    worst = -np.inf
    for seed in range(200):
        n = int(np.random.default_rng(seed).integers(1, 17))
        a1 = random_spd(n, 3000 + seed)
        a2 = random_spd(n, 4000 + seed)
        l2 = cholesky(a2)
        prod_vals, _ = hermitian_eig(l2.conj().T @ a1 @ l2, vectors=False)
        mean_vals, _ = hermitian_eig(0.5 * (a1 + a2), vectors=False)
        worst = max(worst, float(np.max(np.sqrt(prod_vals) - mean_vals)))
    _report("5 (product eigenvalue bound)", worst <= 1e-12,
            f"max violation {worst:.3e} <= 1e-12")


def test_criterion_6_embedding_equivalences():
    """For n <= 8: spectra of -i J M and i H_r match the assembled H (dense
    oracle) to 1e-12 |H|_2 after sorting, and the Hamiltonian round trip
    recovers the operator to machine precision."""
    worst = 0.0
    round_trip_ok = True
    for seed in range(12):
        n = 2 + seed % 7
        op = random_bse(n, seed=seed)
        h = assemble_h(op)
        norm2 = float(np.linalg.norm(h, 2))
        lam_h = np.sort(np.linalg.eigvals(h).real)
        j = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-np.eye(n), np.zeros((n, n))]])
        lam_m = np.sort(np.linalg.eigvals(-1j * (j @ build_m(op))).real)
        lam_r = np.sort(np.linalg.eigvals(1j * build_hr(op)).real)
        worst = max(worst,
                    float(np.max(np.abs(lam_m - lam_h)) / norm2),
                    float(np.max(np.abs(lam_r - lam_h)) / norm2))
        hr_mat = -build_hr(op)
        hr = RealHamiltonian(h11=hr_mat[:n, :n], h12=hr_mat[:n, n:],
                             h21=hr_mat[n:, :n])
        back = real_hamiltonian_to_bse(hr)
        scale = max(1.0, float(np.abs(op.a).max()))
        round_trip_ok &= (np.max(np.abs(back.a - op.a)) <= 1e-14 * scale
                          and np.max(np.abs(back.b - op.b)) <= 1e-14 * scale)
    _report("6 (embedding equivalences)", worst <= 1e-12 and round_trip_ok,
            f"max spectral deviation {worst:.3e} <= 1e-12, round trip ok: {round_trip_ok}")


def test_criterion_7_kernel_suites():
    """100x100 reductions reconstruct to 1e-13 relative, the tridiagonal
    eigensolver matches a dense oracle to 1e-12 |T|_2, and the Jacobi SVD
    reconstructs to 1e-13 relative."""
    w = random_skew(100, seed=0)
    st = skew_tridiagonalize(w)
    q = st.q_matrix()
    skew_rel = float(np.linalg.norm(q @ st.t_matrix() @ q.T - w) / np.linalg.norm(w))

    s = random_symmetric(100, seed=1)
    st2 = sym_tridiagonalize(s)
    q2 = st2.q_matrix()
    sym_rel = float(np.linalg.norm(q2 @ st2.t_matrix() @ q2.T - s) / np.linalg.norm(s))

    alphas = np.random.default_rng(2).uniform(0.2, 2.0, 99)
    ts = SymTridiagonal(diag=np.zeros(100), offdiag=alphas)
    dense = ts.t_matrix()
    vals, vecs = tridiag_eig(ts, which="all")
    tri_dev = float(np.max(np.abs(vals - np.linalg.eigvalsh(dense)))
                    / np.linalg.norm(dense, 2))

    c = np.random.default_rng(3).standard_normal((100, 100))
    u, sig, v = jacobi_svd(c)
    svd_rel = float(np.linalg.norm((u * sig) @ v.T - c) / np.linalg.norm(c))

    ok = skew_rel <= 1e-13 and sym_rel <= 1e-13 and tri_dev <= 1e-12 and svd_rel <= 1e-13
    _report("7 (kernel suites)", ok,
            f"skew recon {skew_rel:.3e}, sym recon {sym_rel:.3e}, "
            f"tridiag vs oracle {tri_dev:.3e}, svd recon {svd_rel:.3e}")


def test_criterion_8_spectra():
    """DOS quadrature mass is 1 +- 1e-3 on a padded grid, and the analytic
    1x1 absorption case matches direct formula substitution to 1e-13."""
    lam = np.random.default_rng(4).uniform(-2.0, 2.0, 32)
    sigma = 5e-3
    grid = np.arange(lam.min() - 6 * sigma, lam.max() + 6 * sigma, sigma / 4.0)
    curve = spectral_density(lam, grid=grid, sigma=sigma)
    mass = float(np.sum(0.5 * (curve.values[1:] + curve.values[:-1])
                        * np.diff(curve.omegas)))

    op = make_operator([[2.0]], [[1j]])
    pos = solve_complex(op)
    d = np.array([1.0, 0.0], dtype=complex)
    sig_a = 0.05
    agrid = np.linspace(1.0, 2.5, 301)
    curve_a = absorption_spectrum(pos, DipoleData(d_r=d, d_l=d),
                                  grid=agrid, sigma=sig_a)
    x = np.array([pos.x1[0, 0], pos.x2[0, 0]])
    y = np.array([pos.x1[0, 0], -pos.x2[0, 0]])
    weight = ((d.conj() @ x) * (y.conj() @ d) / (y.conj() @ x)).real
    direct = weight * np.exp(-0.5 * ((agrid - pos.lambda_plus[0]) / sig_a) ** 2) \
        / (np.sqrt(2 * np.pi) * sig_a)
    dev = float(np.max(np.abs(curve_a.values - direct)) / np.max(np.abs(direct)))

    ok = abs(mass - 1.0) <= 1e-3 and dev <= 1e-13
    _report("8 (spectra)", ok,
            f"dos mass {mass:.6f} (within 1e-3 of 1), absorption deviation {dev:.3e}")


def test_benchmark_report_nonbinding():
    """Timing comparison of the full solver against the Tamm-Dancoff path at
    n = 256.  Informational only: no assertion on the ratio."""
    op = random_bse(256, seed=0)
    t0 = time.perf_counter()
    solve_complex(op)
    t_full = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_tda(op.a)
    t_tda = time.perf_counter() - t0
    print(f"[benchmark] n=256: solve_complex {t_full:.2f}s, solve_tda {t_tda:.2f}s, "
          f"ratio {t_full / t_tda:.2f} (non-binding)")
