"""Seeded random test matrices shared by the test modules."""

import numpy as np

from bse.core import make_operator


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
