"""Seeded random test matrices shared by the test modules."""

import numpy as np


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
