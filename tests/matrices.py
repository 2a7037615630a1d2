"""Seeded random test matrices and reference routines shared by the test
modules."""

import tracemalloc

import numpy as np

from bse.core import make_operator
from bse.kernels import NotPositiveDefinite


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_skew(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return 0.5 * (g - g.T)


def random_spd(n, seed):
    """Hermitian positive definite with a comfortable definiteness margin."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


def random_rotation(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def graded_real_operator(n, ratio, seed):
    """Real (A, B) whose positive spectrum is prescribed: log-spaced from 1
    down to ``ratio``.  With Z = Q diag(e^u) (Q orthogonal, u uniform in
    [-1, 1]) and Lambda that spectrum, A + B = Z Lambda Z^T and
    A - B = Z^-T Lambda Z^-1, so (A - B)(A + B) = Z^-T Lambda^2 Z^T."""
    z = random_rotation(n, seed) * np.exp(np.random.default_rng([seed, 1]).uniform(-1, 1, n))
    zinv = np.linalg.inv(z)
    lam = np.logspace(0, np.log10(ratio), n)
    plus = (z * lam) @ z.T
    minus = (zinv.T * lam) @ zinv
    return make_operator(0.5 * (plus + minus), 0.5 * (plus - minus), symmetrize=True)


def symplectic_operator(lam, cond, seed):
    """(op, S): the complex (A, B) whose embedding M (``build_m``'s layout,
    [[Re(A+B), Im(A-B)], [-Im(A+B), Re(A-B)]]) is S diag(lam, lam) S^T, so
    that its positive spectrum is lam.  S = R [[I, 0], [G, I]] is symplectic,
    with R = [[Re Q, -Im Q], [Im Q, Re Q]] for a random unitary Q and G
    symmetric with eigenvalues in [-g, g], g = sqrt(cond) - 1/sqrt(cond), one
    of them g: the shear's condition number, and so S's, is ``cond``.

    Q, G, S, M, A and B are formed in np.longdouble (Q and G's eigenvectors
    made orthonormal to its precision by one Newton-Schulz step), and A and B
    are rounded to complex128 once, at the end: on x86-64, where longdouble
    has a 64-bit significand, the spectrum of the returned operator is then
    lam up to that final rounding."""
    lam = np.asarray(lam, dtype=np.longdouble)
    n = lam.size
    eye = np.eye(n, dtype=np.longdouble)

    def orthonormal(u):
        u = u.astype(np.clongdouble if np.iscomplexobj(u) else np.longdouble)
        return u @ (1.5 * eye - 0.5 * (u.conj().T @ u))

    rng = np.random.default_rng([seed, 2])
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = orthonormal(q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    z = orthonormal(random_rotation(n, seed))
    g = np.sqrt(cond) - 1.0 / np.sqrt(cond)
    shear = (z * (g * np.concatenate([[1.0], rng.uniform(-1.0, 1.0, n - 1)]))) @ z.T
    s = np.block([[q.real, -q.imag], [q.imag, q.real]]) @ np.block(
        [[eye, 0 * eye], [0.5 * (shear + shear.T), eye]])
    m = (s * np.concatenate([lam, lam])) @ s.T
    apb = m[:n, :n] - 1j * m[n:, :n]
    amb = m[n:, n:] + 1j * m[:n, n:]
    a, b = 0.5 * (apb + amb), 0.5 * (apb - amb)
    a = (0.5 * (a + a.conj().T)).astype(np.complex128)
    b = (0.5 * (b + b.T)).astype(np.complex128)
    return make_operator(a, b), s.astype(float)


def near_indefinite_operator(n, s=1e6, delta=1e-8, seed=0):
    """Omega = s [[X X^H, X X^T], [conj(X X^T), conj(X X^H)]] + s delta I has
    rank n up to delta, and X^H X is real, so lambda_max ~ s sqrt(delta) is
    far below ||M|| ~ s."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    x = u @ rng.standard_normal((n, n)) / np.sqrt(n)
    return make_operator(s * (x @ x.conj().T + delta * np.eye(n)), s * (x @ x.T),
                         symmetrize=True)


def column_cholesky(s):
    """The unblocked column-by-column Cholesky loop, a reference for the
    blocked kernel: same pivot rule, same NotPositiveDefinite."""
    low = np.array(s)
    for j in range(low.shape[0]):
        if j:
            low[j:, j] -= low[j:, :j] @ low[j, :j].conj()
        pivot = float(low[j, j].real)
        if not pivot > 0.0:
            raise NotPositiveDefinite(j, pivot)
        dj = np.sqrt(pivot)
        low[j, j] = dj
        low[j + 1:, j] /= dj
    return np.tril(low)


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory that tracemalloc traced during the
    call, in bytes)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
