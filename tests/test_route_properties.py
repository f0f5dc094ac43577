"""Property tests on random states: the Wigner-gradient and two-copy routes
against the direct commutator route, and the invariants of the two-copy p_n.

Both routes give the exact C² of the truncated state: the direct route sums
|[ρ, r]|² with [ρ, r] formed one Fock level above the cutoff
(``lowering_commutators``), and the gradient route sums the same norms as a
trapezoid rule over the position kernel ⟨u|ρ|v⟩ built from Hermite functions.
The two share no code, so agreement to 1e-9 checks the commutator kernel, the
Hermite recurrence and the quadrature against each other.

The two-copy route gives the exact C² of the truncated pair at any cutoff, so
it matches the direct route to 1e-12 on states that fill their cutoff. The
two-copy p_n of a pure state has no odd-n mass (ρ⊗ρ lies in the symmetric
subspace, on which the difference mode has even parity), and its alternating
sum Σ(−1)ⁿp_n is the purity Tr ρ², in (0, 1] for every state.
"""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import ladder
from qcslab import (
    DensityOperator,
    StateSpec,
    build_state,
    photon_distribution,
    purity_direct,
    qcs_direct,
    qcs_two_copy,
    qcs_wigner_gradient,
)


@st.composite
def states(draw, ranks=st.integers(1, 3), max_dim=24):
    """Random state of rank drawn from ``ranks`` on all ``dim`` <= ``max_dim``
    levels, optionally displaced or squeezed by the truncated operators
    (exactly unitary there)."""
    dim = draw(st.integers(2, max_dim))
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
@given(states(max_dim=40))
def test_gradient_route_matches_direct_route(rho):
    direct = qcs_direct(rho)
    gradient = qcs_wigner_gradient(rho)
    assert abs(gradient.c_squared - direct.c_squared) <= 1e-9 * direct.c_squared
    assert abs(gradient.denominator - direct.denominator) <= 1e-9 * direct.denominator


def _scaled(kernel):
    """``kernel`` with its output scaled by 1 + 1e-6: the commutator list of
    ``lowering_commutators`` or the padded state of ``pad_fock_level``."""
    def scaled(rho):
        out = kernel(rho)
        if isinstance(out, DensityOperator):
            return DensityOperator(out.matrix * (1 + 1e-6), out.dims, out.trace_deficit)
        return [c * (1 + 1e-6) for c in out]
    return scaled


def test_gradient_route_is_independent_of_the_commutator_kernel(monkeypatch):
    # a fault in the direct route's commutators must not move the gradient route
    rho = build_state(StateSpec("squeezed_vacuum", {"r": 0.5}))
    direct, gradient = qcs_direct(rho).c_squared, qcs_wigner_gradient(rho).c_squared
    patched = 0
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qcslab"]:
        for name in ("lowering_commutators", "pad_fock_level"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _scaled(getattr(module, name)))
                patched += 1
    assert patched >= 3  # fock defines both, estimators binds the commutators
    assert abs(qcs_direct(rho).c_squared - direct) > 1e-7 * direct
    assert qcs_wigner_gradient(rho).c_squared == gradient


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
