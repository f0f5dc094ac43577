"""Property tests: the block beam-splitter kernel against an independent oracle.

The oracle exponentiates each pair's generator a_i† b_i − a_i b_i† with
scipy's ``expm`` (the pairs commute, so the stack is their product), applies
the stack to the columns of F_a ⊗ F_b for factors ρ = F F† from ``eigh``, and
traces out copy a with ``einsum``; it shares no code with the kernel. It
embeds the inputs at 2·dim − 1 levels per mode: two copies of a state on
levels 0 … dim − 1 hold at most 2·dim − 2 photons per pair, so on that space
the truncated generator is exact. Most states fill their cutoff, so the
kernel's output has the same 2·dim − 1 levels per mode; pairs with different
top levels give fewer, and the oracle's levels beyond them must be empty.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import ladder, two_copy_output
from qcslab import (
    DensityOperator,
    photon_distribution,
    qcs_direct,
    qcs_multimode,
    tensor,
)

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def pair_unitary(levels):
    """exp((π/4)(a†b − ab†)) on one pair of modes at ``levels`` each, copy a
    slow, as a (levels,) * 4 array: out_a, out_b, in_a, in_b."""
    a = ladder(levels)
    u = expm(0.25 * np.pi * (np.kron(a.T, a) - np.kron(a, a.T)))
    return u.reshape((levels,) * 4)


def embedded_factor(rho, levels):
    """F with ρ = F F†, its rows moved to the flat indices at ``levels`` per mode."""
    w, v = np.linalg.eigh(rho.matrix)
    rows = np.ravel_multi_index(np.unravel_index(np.arange(rho.dim), rho.dims), levels)
    factor = np.zeros((math.prod(levels), rho.dim), dtype=complex)
    factor[rows] = v * np.sqrt(np.clip(w, 0.0, None))
    return factor


def oracle_output(rho_a, rho_b):
    """Difference-mode state Tr_a U (ρ_a⊗ρ_b) U†, flat indices at 2·dim − 1
    levels per mode."""
    levels = tuple(2 * d - 1 for d in rho_a.dims)
    n = len(levels)
    columns = np.einsum("ai,bj->abij", embedded_factor(rho_a, levels),
                        embedded_factor(rho_b, levels))
    psi = columns.reshape(levels + levels + (-1,))
    for mode, size in enumerate(levels):
        psi = np.tensordot(pair_unitary(size), psi, axes=([2, 3], [mode, n + mode]))
        psi = np.moveaxis(psi, [0, 1], [mode, n + mode])
    side = math.prod(levels)
    psi = psi.reshape(side, side, -1)
    return np.einsum("anc,amc->nm", psi, psi.conj())


@st.composite
def states(draw, dim):
    """Random mixed state of rank 1-3 filling the cutoff ``dim``, optionally
    displaced or squeezed by the operators truncated to ``dim`` levels (hence
    exactly unitary there)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, 3))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    kind = draw(st.sampled_from(["mixed", "displaced", "squeezed"]))
    if kind != "mixed":
        z = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        a = ladder(dim)
        if kind == "displaced":
            op = expm(z * a.T - np.conj(z) * a)
        else:
            op = expm(0.5 * (np.conj(z) * a @ a - z * a.T @ a.T))
        rho = op @ rho @ op.conj().T
    return DensityOperator(0.5 * (rho + rho.conj().T), (dim,))


@st.composite
def single_mode_pairs(draw):
    dim = draw(st.integers(2, 10))
    return draw(states(dim)), draw(states(dim))


@st.composite
def unequal_pairs(draw):
    """Two different top levels and two states at one cutoff that fill only
    their own levels 0 … top (a single level is the vacuum), so the two copies
    read windows of different widths."""
    dim = draw(st.integers(2, 10))
    tops = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
    pair = []
    for top in tops:
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[0, 0] = 1.0
        if top:
            matrix[:top + 1, :top + 1] = draw(states(top + 1)).matrix
        pair.append(DensityOperator(matrix, (dim,)))
    return tops, pair


@st.composite
def two_mode_states(draw):
    d1, d2 = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return tensor(draw(states(d1)), draw(states(d2)))


@st.composite
def entangled_two_mode_states(draw):
    """Random mixed state of rank 1-3 on d1 × d2 levels, generically entangled."""
    dims = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (math.prod(dims), draw(st.integers(1, 3)))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityOperator(0.5 * (rho + rho.conj().T), dims)


@PROPERTY_SETTINGS
@given(single_mode_pairs())
def test_photon_distribution_matches_oracle(pair):
    rho_a, rho_b = pair
    expected = np.real(np.diag(oracle_output(rho_a, rho_b)))
    pn = photon_distribution(rho_a, rho_b)
    assert pn.probs.shape == expected.shape
    assert np.max(np.abs(pn.probs - np.clip(expected, 0.0, None))) < TOL


@PROPERTY_SETTINGS
@given(unequal_pairs())
def test_unequal_tops_match_oracle(drawn):
    """p_n has top_a + top_b + 1 levels (at least 2) and ρ_d of two copies of
    ρ_a has 2·top_a + 1; the oracle's levels beyond them are empty."""
    (top_a, top_b), (rho_a, rho_b) = drawn
    expected = np.real(np.diag(oracle_output(rho_a, rho_b)))
    pn = photon_distribution(rho_a, rho_b).probs
    assert len(pn) == max(2, top_a + top_b + 1)
    padded = np.zeros_like(expected)
    padded[:len(pn)] = pn
    assert np.max(np.abs(padded - np.clip(expected, 0.0, None))) < TOL
    expected = oracle_output(rho_a, rho_a)
    rho_d = two_copy_output(rho_a)
    assert rho_d.dims == (max(2, 2 * top_a + 1),)
    padded = np.zeros_like(expected)
    padded[:rho_d.dim, :rho_d.dim] = rho_d.matrix
    assert np.max(np.abs(padded - expected)) < TOL


@PROPERTY_SETTINGS
@given(st.integers(2, 10).flatmap(states))
def test_two_copy_output_matches_oracle(rho):
    rho_d = two_copy_output(rho)
    expected = oracle_output(rho, rho)
    assert rho_d.matrix.shape == expected.shape
    assert np.max(np.abs(rho_d.matrix - expected)) < TOL


@PROPERTY_SETTINGS
@given(two_mode_states())
def test_multimode_two_copy_output_matches_oracle(rho):
    expected = oracle_output(rho, rho)
    rho_d = two_copy_output(rho)
    assert rho_d.dims == tuple(2 * d - 1 for d in rho.dims)
    assert np.max(np.abs(rho_d.matrix - expected)) < TOL
    joint_pn = photon_distribution(rho, rho).probs
    assert np.max(np.abs(joint_pn.reshape(-1) - np.real(np.diag(expected)))) < TOL


@PROPERTY_SETTINGS
@given(entangled_two_mode_states())
def test_entangled_joint_pn_matches_oracle_and_direct_route(rho):
    joint_pn = photon_distribution(rho, rho).probs
    assert joint_pn.shape == tuple(2 * d - 1 for d in rho.dims)
    expected = np.real(np.diag(oracle_output(rho, rho)))
    assert np.max(np.abs(joint_pn.reshape(-1) - np.clip(expected, 0.0, None))) < TOL
    direct = qcs_direct(rho).c_squared
    assert abs(qcs_multimode(rho).c_squared - direct) <= 1e-9 * abs(direct)


@st.composite
def sub_normalized_pairs(draw):
    """Two independent random states of rank 1-3 on one set of 1-3 modes, each
    scaled to a trace in [0.2, 1], as a truncated state's trace falls short of 1."""
    n_modes = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(2, (8, 4, 3)[n_modes - 1]),
                               min_size=n_modes, max_size=n_modes)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pair = []
    for rank in (draw(st.integers(1, 3)), draw(st.integers(1, 3))):
        shape = (math.prod(dims), rank)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = g @ g.conj().T
        rho *= rng.uniform(0.2, 1.0) / np.trace(rho).real
        rho = 0.5 * (rho + rho.conj().T)
        pair.append(DensityOperator(rho, dims, 1.0 - np.trace(rho).real))
    return pair


@PROPERTY_SETTINGS
@given(sub_normalized_pairs())
def test_photon_distribution_moment_identities(pair):
    """Moments of the joint p_n that follow from the inputs alone: Σp_n =
    Tr ρ_a · Tr ρ_b; the parity of the total count, Σ(−1)ⁿp_n = Tr ρ_aρ_b; and
    for each mode k, with the difference mode (a_k − b_k)/√2 and moments of the
    unnormalized inputs, Σn_k·p_n = ½(⟨n̂_k⟩_a Tr ρ_b + Tr ρ_a ⟨n̂_k⟩_b) −
    Re(⟨â_k⟩_a* ⟨â_k⟩_b)."""
    rho_a, rho_b = pair
    probs = photon_distribution(rho_a, rho_b).probs
    levels = np.indices(probs.shape)
    mass = rho_a.trace() * rho_b.trace()
    assert abs(probs.sum() - mass) <= TOL * mass
    overlap = np.trace(rho_a.matrix @ rho_b.matrix).real
    assert abs(((-1.0) ** levels.sum(axis=0) * probs).sum() - overlap) <= TOL * mass
    dims = rho_a.dims
    for k, d in enumerate(dims):
        a_k = np.kron(np.kron(np.eye(math.prod(dims[:k])), ladder(d)),
                      np.eye(math.prod(dims[k + 1:])))
        (n_a, a_a), (n_b, a_b) = ((np.trace(rho.matrix @ a_k.T @ a_k).real,
                                   np.trace(rho.matrix @ a_k)) for rho in pair)
        mean = 0.5 * (n_a * rho_b.trace() + rho_a.trace() * n_b)
        expected = mean - (np.conj(a_a) * a_b).real
        assert abs((levels[k] * probs).sum() - expected) <= TOL * (mean + abs(a_a * a_b))
