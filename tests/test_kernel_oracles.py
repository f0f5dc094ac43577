"""The package's numpy-only kernels against scipy's ``expm``.

``_blocks`` builds the columns of the beam-splitter blocks that two inputs
need by a recurrence in the photon total, and ``displacement_operator`` gives
the exact elements of D(β) from the scaled Laguerre recurrence that the Wigner
kernel also uses; ``expm`` uses scaling-and-squaring and shares no code with
either. D(β) is exponentiated on a padded space and then truncated, so the
oracle holds the exact elements, not those of the truncated generator.
"""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import displacement
from qcslab import hom_photon_distribution
from qcslab.fock import displacement_operator
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
    """The full block at ``total`` (inputs up to ``total`` in both copies), and
    the Fock-pair p_n read from its column for |column, total − column⟩
    (vacuum in the first input)."""
    u = next(islice(_blocks(total, total), total, None))
    oracle = expm(0.25 * np.pi * block_generator(total))
    assert u.shape == (total + 1,) * 2
    assert np.abs(u @ u.T - np.eye(len(u))).max() < TOL
    assert np.abs(u - oracle).max() < TOL
    hom = hom_photon_distribution(column, total - column)
    assert np.abs(hom - oracle[::-1, column] ** 2).max() < TOL


def test_bs_block_windows_match_expm():
    """Unequal tops: at each total T the window holds the columns
    max(0, T − top_b) … min(T, top_a) of the full block, all T + 1 rows."""
    top_a, top_b = 40, 7
    windows = list(_blocks(top_a, top_b))
    assert len(windows) == top_a + top_b + 1
    for total, u in enumerate(windows):
        lo, hi = max(0, total - top_b), min(total, top_a)
        oracle = expm(0.25 * np.pi * block_generator(total))
        assert u.shape == (total + 1, hi - lo + 1)
        assert np.abs(u - oracle[:, lo:hi + 1]).max() < TOL


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(8, 64), frac=st.floats(0.0, 0.5), phase=st.floats(0.0, 2 * np.pi))
def test_displacement_matches_expm(dim, frac, phase):
    """|β|² up to dim/2; the padding keeps the truncation of the oracle's
    generator far from the elements it is compared on."""
    beta = np.sqrt(frac * dim) * np.exp(1j * phase)
    pad = dim + 80 + int(8 * abs(beta) ** 2)
    oracle = displacement(beta, pad)[:dim, :dim]
    assert np.abs(displacement_operator(beta, dim, dim) - oracle).max() < TOL
    cols = dim // 3
    assert np.array_equal(displacement_operator(beta, dim, cols),
                          displacement_operator(beta, dim, dim)[:, :cols])
