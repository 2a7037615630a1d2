"""Property tests over many seeded operators instead of a few fixed ones:
the spectrum of ``solve_complex`` is invariant under the transformations
that preserve the eigenvalues of H, ``solve_real`` agrees with it on real
input, both solvers recover a prescribed graded spectrum to a few eps of its
largest eigenvalue, the solvers commute bitwise with scaling by an even
power of two, and the Sturm count never decreases as the shift grows."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bse.core import make_operator, random_bse, residual_metrics
from bse.embeddings import expand_full
from bse.kernels import SymTridiagonal, _sturm_counts, hermitian_eig, tridiag_eig
from bse.solvers import solve_complex, solve_oracle, solve_real, tda_gap_report

from matrices import graded_real_operator, symplectic_operator

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                             deadline=None)

operators = st.builds(random_bse, n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
                      margin=st.floats(0.01, 10.0))
real_operators = st.builds(random_bse, n=st.integers(1, 16),
                           seed=st.integers(0, 2**32 - 1), margin=st.floats(0.01, 10.0),
                           kind=st.just("real"))


def even(lo, hi):
    return st.integers(lo // 2, hi // 2).map(lambda h: 2 * h)


def assert_same_spectrum(lam, ref):
    assert lam.shape == ref.shape
    assert np.max(np.abs(lam - ref)) <= 1e-12 * ref[0]


@PROPERTY_SETTINGS
@given(op=operators)
def test_conjugation_invariance(op):
    # (A, B) -> (conj A, conj B) conjugates H, whose spectrum is real.
    conj = make_operator(op.a.conj(), op.b.conj())
    assert_same_spectrum(solve_complex(conj).lambda_plus, solve_complex(op).lambda_plus)


@PROPERTY_SETTINGS
@given(op=operators, seed=st.integers(0, 2**32 - 1))
def test_unitary_congruence_invariance(op, seed):
    # A -> U A U^H, B -> U B U^T is the similarity of H by diag(U, conj U).
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((op.n, op.n)) + 1j * rng.standard_normal((op.n, op.n))
    q, r = np.linalg.qr(g)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    moved = make_operator(u @ op.a @ u.conj().T, u @ op.b @ u.T, symmetrize=True)
    assert_same_spectrum(solve_complex(moved).lambda_plus, solve_complex(op).lambda_plus)


@PROPERTY_SETTINGS
@given(op=real_operators)
def test_solve_real_matches_solve_complex(op):
    # The product SVD of the Cholesky factors and the skew reduction of
    # L^T J L are two routes to one spectrum, and the first also meets the
    # residual targets.
    pos = solve_real(op)
    assert_same_spectrum(pos.lambda_plus, solve_complex(op).lambda_plus)
    r1, r2 = residual_metrics(op, expand_full(op, pos))
    assert r1 <= 5e-14 and r2 <= 5e-14


# Square roots of an even power of two are exact, so every rounding of the
# scaled run is the scaled rounding of the unscaled one.


@PROPERTY_SETTINGS
@given(op=operators | real_operators, k=even(-1000, 960))
def test_solve_complex_power_of_two_equivariance(op, k):
    s = 2.0 ** k
    scaled = make_operator(op.a * s, op.b * s)
    pos, scaled_pos = solve_complex(op), solve_complex(scaled)
    assert np.array_equal(scaled_pos.lambda_plus, s * pos.lambda_plus)
    assert np.array_equal(scaled_pos.x1, pos.x1)
    assert np.array_equal(scaled_pos.x2, pos.x2)
    report, scaled_report = tda_gap_report(op), tda_gap_report(scaled)
    assert np.array_equal(scaled_report.lambda_h, s * report.lambda_h)
    assert np.array_equal(scaled_report.lambda_a, s * report.lambda_a)


@PROPERTY_SETTINGS
@given(n=st.integers(1, 32), log_ratio=st.floats(-10.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_graded_spectrum_recovered(n, log_ratio, seed):
    # Lambda is log-spaced from 1 down to the ratio; both solvers are
    # normwise accurate however far the grading goes.
    op = graded_real_operator(n, 10.0 ** log_ratio, seed)
    lam = np.logspace(0, log_ratio, n)
    for solver in (solve_complex, solve_real):
        assert np.max(np.abs(solver(op).lambda_plus - lam)) <= 200 * np.finfo(float).eps


# One decade of distinct values, each repeated 1, 2, 4 or 8 times, at most
# 48 in all, for M = S diag(Lambda, Lambda) S^T with S symplectic.
multiplicities = st.lists(st.tuples(st.floats(-1.0, 0.0), st.sampled_from([1, 2, 4, 8])),
                          min_size=1, max_size=48, unique_by=lambda part: part[0])


def symplectic_case(parts, log_cond, seed):
    """(Lambda descending, operator, the solver's eigensystem) for the parts
    that fit in 48 eigenvalues; S's condition number is 10^log_cond."""
    counts = np.cumsum([count for _, count in parts])
    parts = parts[:np.searchsorted(counts, 48, side="right")]
    lam = np.repeat([10.0 ** x for x, _ in parts], [count for _, count in parts])
    lam = np.sort(lam)[::-1]
    op, s = symplectic_operator(lam, 10.0 ** log_cond, seed)
    assert np.linalg.cond(s) == pytest.approx(10.0 ** log_cond, rel=1e-12)
    return lam, op, solve_complex(op)


@PROPERTY_SETTINGS
@given(parts=multiplicities, log_cond=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_symplectic_spectrum_with_multiplicities(parts, log_cond, seed):
    # Exact multiplicities are recovered to a few eps of lambda_max.  The
    # bound holds up to cond(S) = 10; the error grows about as cond(S)^2, and
    # near cond(S) = 1e2 the generated operator's own spectrum is already
    # some 1e3 eps lambda_max from Lambda, so that range tests the input.
    lam, _, pos = symplectic_case(parts, log_cond, seed)
    assert np.max(np.abs(pos.lambda_plus - lam)) <= 200 * np.finfo(float).eps * lam[0]


@pytest.mark.xfail(strict=True, reason="tridiag_eig's residual compounds along an exact "
                   "cluster: each column divides the earlier columns' residuals by its "
                   "Gram-Schmidt norm (CHANGES.md, FOUND)")
@PROPERTY_SETTINGS
@given(parts=multiplicities, log_cond=st.floats(0.0, 2.0), seed=st.integers(0, 2**32 - 1))
@example(parts=[(-0.665731097835982, 4), (-0.1796875, 1), (-0.17676592392438795, 8),
                (-9.178262771669123e-17, 2)], log_cond=0.0, seed=393)
def test_symplectic_residuals_with_multiplicities(parts, log_cond, seed):
    _, op, pos = symplectic_case(parts, log_cond, seed)
    r1, r2 = residual_metrics(op, pos)
    assert r1 <= 5e-14 and r2 <= 5e-14


@PROPERTY_SETTINGS
@given(op=real_operators, k=even(-1000, 960))
def test_solve_real_power_of_two_equivariance(op, k):
    s = 2.0 ** k
    pos, scaled_pos = solve_real(op), solve_real(make_operator(op.a * s, op.b * s))
    assert np.array_equal(scaled_pos.lambda_plus, s * pos.lambda_plus)
    assert np.array_equal(scaled_pos.x1, pos.x1)
    assert np.array_equal(scaled_pos.x2, pos.x2)


@PROPERTY_SETTINGS
@given(op=operators, k=even(-1000, 960))
def test_hermitian_power_of_two_equivariance(op, k):
    s = 2.0 ** k
    scaled = make_operator(op.a * s, op.b * s)
    assert np.array_equal(solve_oracle(scaled), s * solve_oracle(op))
    values, vectors = hermitian_eig(op.a)
    scaled_values, scaled_vectors = hermitian_eig(scaled.a)
    assert np.array_equal(scaled_values, s * values)
    assert np.array_equal(scaled_vectors, vectors)


@PROPERTY_SETTINGS
@given(order=st.integers(2, 24), copies=st.integers(2, 5), k=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_glued_tridiagonal_eigenvectors(order, copies, k, seed):
    # Copies of one zero-diagonal block joined by a glue of 10^-k have
    # eigenvalues repeated to within about the glue, where inverse iteration
    # must restart; every restart is checked, so the vectors stay accurate and
    # orthonormal, and no RuntimeWarning (an error in this suite) escapes.
    base = np.random.default_rng(seed).uniform(0.2, 2.0, order - 1)
    m = order * copies
    ts = SymTridiagonal(diag=np.zeros(m),
                        offdiag=np.tile(np.append(base, 10.0 ** -k), copies)[:-1])
    dense = ts.t_matrix()
    norm2 = np.linalg.norm(dense, 2)
    for which in ("all", "positive") if m % 2 == 0 else ("all",):
        vals, vecs = tridiag_eig(ts, which=which)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(vecs.shape[1])) <= 1e-12 * m
        assert np.linalg.norm(dense @ vecs - vecs * vals) <= 1e-11 * norm2


def _count_matrix(family, m, seed):
    """(d, e) of a symmetric tridiagonal T of order m from one of four families."""
    rng = np.random.default_rng(seed)
    if family == "random":
        return rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
    if family == "zero-diagonal":
        return np.zeros(m), rng.uniform(0.2, 2.0, m - 1)
    if family == "glued-wilkinson":
        # Copies of W_b+ (diagonal |i - (b-1)/2|, couplings 1) glued at 10^-g.
        b = int(rng.integers(2, 22))
        d = np.tile(np.abs(np.arange(b) - (b - 1) / 2.0), m // b + 1)[:m]
        e = np.ones(m - 1)
        e[b - 1::b] = 10.0 ** -float(rng.uniform(6.0, 15.0))
        return d, e
    # Graded: couplings from 1 down to 1e-12, random signs, zero diagonal.
    grading = np.logspace(0.0, -12.0, m - 1) if m > 2 else np.ones(1)
    return np.zeros(m), grading * rng.choice([-1.0, 1.0], m - 1) * rng.uniform(0.5, 1.0, m - 1)


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["random", "zero-diagonal", "glued-wilkinson", "graded"]),
       m=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_sturm_counts_monotone(family, m, seed):
    # Bisection is correct only while the count is monotone in the shift
    # (Demmel, Dhillon & Ren, ETNA 3, 1995).  Shifts within 30 ulps of every
    # eigenvalue, where rounding decides the pivots' signs, and random ones
    # between them must give counts that never decrease, with no warning;
    # a shift farther than 1e-9 |T| from every eigenvalue counts exactly.
    d, e = _count_matrix(family, m, seed)
    lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    ulps = np.arange(-30, 31)
    rng = np.random.default_rng(seed)
    xs = np.sort(np.concatenate([
        (lam[:, None] + ulps * np.spacing(lam)[:, None]).ravel(),
        rng.uniform(lam[0] - 1.0, lam[-1] + 1.0, 200)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _sturm_counts(d, e, xs)
    assert np.all(np.diff(counts) >= 0)
    far = np.min(np.abs(xs[:, None] - lam), axis=1) > 1e-9 * np.max(np.abs(lam))
    assert np.array_equal(counts[far], np.searchsorted(lam, xs[far]))
