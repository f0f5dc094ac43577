"""Property test: the Wigner-gradient route against the direct commutator route.

Both routes give the exact C² of the truncated state: the direct route sums
|[ρ, r]|² with [ρ, r] formed one Fock level above the cutoff, and the gradient
route integrates the Wigner functions of those commutators at the
cutoff-derived spacing. They share only the padding and the quadrature
matrices, so agreement to 1e-9 checks the Laguerre Wigner kernel on ρ and on
two traceless, non-positive operators, together with the trapezoid quadrature.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcslab import DensityOperator, qcs_direct, qcs_wigner_gradient


@st.composite
def states(draw):
    """Random rank 1-3 state on all ``dim`` <= 24 levels, optionally displaced
    or squeezed by the truncated operators (exactly unitary there)."""
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, 3))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    kind = draw(st.sampled_from(["mixed", "displaced", "squeezed"]))
    if kind != "mixed":
        z = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
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
