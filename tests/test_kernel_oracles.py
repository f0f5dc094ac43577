"""The package's numpy-only exponentials against scipy's ``expm``.

``_blocks`` builds the beam-splitter blocks by a recurrence in the photon
total and ``matrix_exponential`` diagonalizes the Hermitian iG; ``expm`` uses
scaling-and-squaring and shares no code with either.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcslab import ValidationError, hom_photon_distribution
from qcslab.fock import annihilation, displacement_operator, matrix_exponential
from qcslab.interferometer import _blocks

TOL = 1e-12


def block_generator(total):
    """J_y generator on |k, total−k⟩, k = 0 … total: G[k+1, k] = −G[k, k+1]
    = √((k+1)(total−k))."""
    k = np.arange(total)
    off = np.sqrt((k + 1.0) * (total - k))
    return np.diag(off, -1) - np.diag(off, 1)


@pytest.mark.parametrize("total, column", [(1, 0), (2, 0), (60, 0), (121, 0), (256, 0),
                                           (511, 0)])
def test_bs_block_matches_expm(total, column):
    """The last block of the recurrence, and the Fock-pair p_n read from its
    column for |column, total − column⟩ (vacuum in the first input)."""
    u = deque(_blocks(total), maxlen=1)[0]
    oracle = expm(0.25 * np.pi * block_generator(total))
    assert u.shape == (total + 1,) * 2
    assert np.abs(u @ u.T - np.eye(len(u))).max() < TOL
    assert np.abs(u - oracle).max() < TOL
    hom = hom_photon_distribution(column, total - column)
    assert np.abs(hom - oracle[::-1, column] ** 2).max() < TOL


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(8, 64), frac=st.floats(0.0, 1.0), phase=st.floats(0.0, 2 * np.pi))
def test_displacement_matches_expm(dim, frac, phase):
    beta = np.sqrt(frac * dim / 4) * np.exp(1j * phase)
    a = annihilation(dim)
    oracle = expm(beta * a.conj().T - np.conj(beta) * a)
    assert np.abs(displacement_operator(beta, dim) - oracle).max() < TOL


def test_matrix_exponential_rejects_non_anti_hermitian_generator():
    a = annihilation(6)
    hermitian = a + a.T
    with pytest.raises(ValidationError, match="anti-Hermitian"):
        matrix_exponential(hermitian)
    # a round-off asymmetry passes; a small one beyond round-off does not
    anti = 1j * hermitian
    assert np.allclose(matrix_exponential(anti + 1e-15 * hermitian), expm(anti))
    with pytest.raises(ValidationError):
        matrix_exponential(anti + 1e-9 * hermitian)
