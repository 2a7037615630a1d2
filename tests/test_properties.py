"""Property tests: the spectrum of ``solve_complex`` is invariant under the
transformations that preserve the eigenvalues of H, over many seeded
operators instead of a few fixed ones."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bse.core import make_operator, random_bse
from bse.solvers import solve_complex

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                             deadline=None)

operators = st.builds(random_bse, n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
                      margin=st.floats(0.01, 10.0))


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
