"""Property tests on random states: the Wigner-gradient and two-copy routes
against the direct commutator route, and the invariants of the two-copy p_n.

Both routes give the exact C² of the truncated state: the direct route sums
|[ρ, r]|² with [ρ, r] formed one Fock level above the cutoff, and the gradient
route integrates the Wigner functions of those commutators at the
cutoff-derived spacing. They share only the padding and
``lowering_commutators`` (checked against dense products in ``test_fock.py``),
so agreement to 1e-9 checks the Laguerre Wigner kernel on ρ and on two
traceless, non-positive operators, together with the trapezoid quadrature.

The two-copy route gives the exact C² of the truncated pair at any cutoff, so
it matches the direct route to 1e-12 on states that fill their cutoff. The
two-copy p_n of a pure state has no odd-n mass (ρ⊗ρ lies in the symmetric
subspace, on which the difference mode has even parity), and its alternating
sum Σ(−1)ⁿp_n is the purity Tr ρ², in (0, 1] for every state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import ladder
from qcslab import (
    DensityOperator,
    photon_distribution,
    purity_direct,
    qcs_direct,
    qcs_two_copy,
    qcs_wigner_gradient,
)


@st.composite
def states(draw, ranks=st.integers(1, 3)):
    """Random state of rank drawn from ``ranks`` on all ``dim`` <= 24 levels,
    optionally displaced or squeezed by the truncated operators (exactly
    unitary there)."""
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(ranks)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    kind = draw(st.sampled_from(["mixed", "displaced", "squeezed"]))
    if kind != "mixed":
        z = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        a = ladder(dim)
        gen = z * a.T - np.conj(z) * a if kind == "displaced" \
            else 0.5 * (np.conj(z) * a @ a - z * a.T @ a.T)
        op = expm(gen)
        rho = op @ rho @ op.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(rho / np.trace(rho).real, (dim,))


@settings(max_examples=40, deadline=None)
@given(states())
def test_gradient_route_matches_direct_route(rho):
    direct = qcs_direct(rho)
    gradient = qcs_wigner_gradient(rho)
    assert abs(gradient.c_squared - direct.c_squared) <= 1e-9 * direct.c_squared
    assert abs(gradient.denominator - direct.denominator) <= 1e-9 * direct.denominator


def two_copy_pn(rho):
    return photon_distribution(rho, rho).probs


@settings(max_examples=40, deadline=None)
@given(states())
def test_two_copy_route_matches_direct_route(rho):
    direct = qcs_direct(rho).c_squared
    two_copy = qcs_two_copy(photon_distribution(rho, rho)).c_squared
    assert abs(two_copy - direct) <= 1e-12 * direct


@settings(max_examples=25, deadline=None)
@given(states(ranks=st.just(1)))
def test_pure_state_has_no_odd_pn_mass(rho):
    assert two_copy_pn(rho)[1::2].sum() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(states(ranks=st.integers(2, 3)))
def test_mixed_state_alternating_sum_is_purity(rho):
    probs = two_copy_pn(rho)
    alternating = probs[::2].sum() - probs[1::2].sum()
    assert 0.0 < alternating <= 1.0
    assert abs(alternating - purity_direct(rho)) <= 1e-12
