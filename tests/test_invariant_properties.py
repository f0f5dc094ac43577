"""Property tests of two physical invariants on random states (the fixed-list
versions are acceptance criteria 5 and 10).

A finite mixture of coherent states is classical, so its C² is at most 1; the
direct route on its truncated density matrix must agree with the closed form.
C² is a property of the state's shape in phase space, so displacing or
rotating a state must leave the direct route's value unchanged. ``displace``
uses the exact elements of D(β), so at any cutoff it either refuses (the
mass moved past the cutoff exceeds the deficit tolerance) or gives the
cutoff-sized block of the same state displaced on a larger space.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_classical_mixture
from qcslab import (
    CutoffError,
    DensityOperator,
    classical_mixture,
    coherent,
    displace,
    fock,
    phase_rotate,
    qcs_classical_mixture,
    qcs_direct,
)

CUTOFF = 48
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(1, 5), st.floats(0.1, 2.0))
def test_classical_mixture_is_classical_on_both_routes(seed, max_terms, max_abs):
    mix = random_classical_mixture(np.random.default_rng(seed), max_terms, max_abs)
    closed = qcs_classical_mixture(mix).c_squared
    direct = qcs_direct(classical_mixture(mix, 40)).c_squared
    assert closed <= 1.0 + 1e-9 and direct <= 1.0 + 1e-9
    assert abs(closed - direct) < 1e-6


@st.composite
def low_states(draw, cutoffs=st.just(CUTOFF)):
    """Random state of rank 1-3 supported on the lowest 2-8 of its cutoff's levels."""
    cutoff = draw(cutoffs)
    support = draw(st.integers(2, 8))
    rank = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(seeds))
    g = np.zeros((cutoff, rank), dtype=complex)
    g[:support] = rng.normal(size=(support, rank)) + 1j * rng.normal(size=(support, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real, (cutoff,))


@settings(max_examples=40, deadline=None)
@given(low_states(), st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi))
def test_direct_route_invariant_under_displacement_and_rotation(rho, radius, angle, theta):
    reference = qcs_direct(rho).c_squared
    moved = qcs_direct(displace(rho, radius * np.exp(1j * angle))).c_squared
    spun = qcs_direct(phase_rotate(rho, theta)).c_squared
    assert abs(moved - reference) <= 1e-12 * reference
    assert abs(spun - reference) <= 1e-12 * reference


@settings(max_examples=60, deadline=None)
@given(low_states(st.integers(8, 40)), st.floats(0.0, 2.5), st.floats(0.0, 2 * np.pi))
def test_displacement_is_exact_or_refused(rho, radius, angle):
    beta = radius * np.exp(1j * angle)
    cutoff = rho.dim
    wide = DensityOperator(np.pad(rho.matrix, (0, 40)), (cutoff + 40,))
    reference = displace(wide, beta).matrix[:cutoff, :cutoff]
    try:
        moved = displace(rho, beta)
    except CutoffError:
        return
    assert np.abs(moved.matrix - reference).max() < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(8, 40), st.floats(0.0, 2.5), st.floats(0.0, 2 * np.pi))
def test_displaced_vacuum_is_coherent(cutoff, radius, angle):
    beta = radius * np.exp(1j * angle)
    try:
        moved, expected = displace(fock(0, cutoff), beta), coherent(beta, cutoff)
    except CutoffError:
        return
    assert np.abs(moved.matrix - expected.matrix).max() < 1e-15
