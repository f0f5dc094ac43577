"""Property tests: the block beam-splitter kernel against an independent oracle.

The oracle exponentiates the full two-copy generator Σ_i (a_i† b_i − a_i b_i†)
with scipy's ``expm`` on the whole truncated space and traces out copy a with
``einsum``; it shares no code with the kernel. Both use the same truncated
ladder operators, so they agree to round-off on every input, including states
whose photon-number support reaches the truncated blocks. The full-state tests
draw such states and switch the headroom rule off with a tolerance above the
total probability. ``photon_distribution`` also checks that p_n obeys
0 <= Σ(−1)ⁿp_n = Tr(ρ_a ρ_b), which truncation breaks, so its inputs keep the
headroom rule: they live on levels 0..s with s_a + s_b <= dim − 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcslab import (
    DensityOperator,
    multimode_photon_distribution,
    multimode_two_copy_output,
    photon_distribution,
    tensor,
    two_copy_output,
)

TOL = 1e-12
NO_HEADROOM = {"headroom_tol": 2.0}
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _embed(op, position, dims):
    out = np.eye(1)
    for i, d in enumerate(dims):
        out = np.kron(out, op if i == position else np.eye(d))
    return out


def oracle_joint(rho_a, rho_b):
    """U (ρ_a⊗ρ_b) U† for the pairwise 50:50 beam splitters, reshaped to
    (copy a, copy b, copy a, copy b) axes of shape ``dims`` each."""
    dims = rho_a.dims
    n = len(dims)
    all_dims = dims + dims
    gen = np.zeros((rho_a.dim ** 2,) * 2)
    for i, d in enumerate(dims):
        a = _embed(_ladder(d), i, all_dims)
        b = _embed(_ladder(d), n + i, all_dims)
        gen += a.T @ b - a @ b.T
    u = expm(0.25 * np.pi * gen)
    joint = u @ np.kron(rho_a.matrix, rho_b.matrix) @ u.conj().T
    return joint.reshape((rho_a.dim,) * 4)


def oracle_output(rho_a, rho_b):
    """Difference-mode state Tr_a U (ρ_a⊗ρ_b) U†, flat indices."""
    return np.einsum("anam->nm", oracle_joint(rho_a, rho_b))


@st.composite
def states(draw, dim, support=None):
    """Random mixed state of rank 1-3 on levels 0..support (default: all of
    ``dim``), optionally displaced or squeezed by the operators truncated to
    those levels (hence exactly unitary there), embedded at cutoff ``dim``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, 3))
    levels = dim if support is None else support + 1
    g = rng.normal(size=(levels, rank)) + 1j * rng.normal(size=(levels, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    kind = draw(st.sampled_from(["mixed", "displaced", "squeezed"]))
    if kind != "mixed":
        z = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        a = _ladder(levels)
        if kind == "displaced":
            op = expm(z * a.T - np.conj(z) * a)
        else:
            op = expm(0.5 * (np.conj(z) * a @ a - z * a.T @ a.T))
        rho = op @ rho @ op.conj().T
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:levels, :levels] = 0.5 * (rho + rho.conj().T)
    return DensityOperator(mat, (dim,))


@st.composite
def single_mode_pairs(draw):
    """Two states at a shared cutoff that keep the headroom rule."""
    dim = draw(st.integers(2, 10))
    support_a = draw(st.integers(0, dim - 1))
    support_b = draw(st.integers(0, dim - 1 - support_a))
    return draw(states(dim, support_a)), draw(states(dim, support_b))


@st.composite
def two_mode_states(draw):
    d1, d2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return tensor(draw(states(d1)), draw(states(d2)))


@PROPERTY_SETTINGS
@given(single_mode_pairs())
def test_photon_distribution_matches_oracle(pair):
    rho_a, rho_b = pair
    expected = np.real(np.diag(oracle_output(rho_a, rho_b)))
    pn = photon_distribution(rho_a, rho_b)
    assert np.max(np.abs(pn.probs - np.clip(expected, 0.0, None))) < TOL


@PROPERTY_SETTINGS
@given(st.integers(2, 10).flatmap(states))
def test_two_copy_output_matches_oracle(rho):
    rho_d = two_copy_output(rho, **NO_HEADROOM)
    assert np.max(np.abs(rho_d.matrix - oracle_output(rho, rho))) < TOL


@PROPERTY_SETTINGS
@given(two_mode_states())
def test_multimode_two_copy_output_matches_oracle(rho):
    expected = oracle_output(rho, rho)
    rho_d = multimode_two_copy_output(rho, **NO_HEADROOM)
    assert rho_d.dims == rho.dims
    assert np.max(np.abs(rho_d.matrix - expected)) < TOL
    joint_pn = multimode_photon_distribution(rho, **NO_HEADROOM)
    assert np.max(np.abs(joint_pn.reshape(-1) - np.real(np.diag(expected)))) < TOL
