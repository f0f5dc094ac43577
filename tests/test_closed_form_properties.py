"""The two-copy closed forms against the beam-splitter kernel on random specs.

Three kinds carry a closed-form two-copy p_n, the untruncated pair's output:
thermal (1 − q)qⁿ, coherent δ_{n0} and squeezed vacuum |ψ_n(r)|². The kernel
gives the truncated pair's exact p_n. At the default cutoff the two must give
the same C² within compare's tolerance, and each p_n may differ from the other
by no more than the mass the truncation cut from the state (1 − Tr ρ), plus
the kernel's round-off.
"""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcslab import StateSpec, qcs_two_copy
from qcslab.cli import EXACT_ROUTE_TOL
from qcslab.states import KINDS, route_inputs

ROUNDOFF = 1e-12  # the kernel's round-off on one p_n at tops up to 187

coherent = st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(0.0, 2 * np.pi)).map(
    lambda alpha: StateSpec("coherent", {"alpha": [alpha.real, alpha.imag]}))
squeezed = st.floats(-1.5, 1.5).map(lambda r: StateSpec("squeezed_vacuum", {"r": r}))
thermal = st.floats(0.0, 0.85).map(lambda q: StateSpec("thermal", {"q": q}))


def test_the_closed_forms_are_these_kinds():
    closed = {kind for kind, row in KINDS.items() if row.two_copy_pn}
    assert closed == {"coherent", "squeezed_vacuum", "thermal", "displaced"}


@settings(max_examples=30, deadline=None)
@given(st.one_of(coherent, squeezed, thermal))
def test_closed_form_matches_the_kernel_within_the_tail(spec):
    inputs = route_inputs(spec)
    rho, closed, kernel = inputs["state"](), inputs["pn"](), inputs["kernel"]()
    assert closed is not kernel
    c2_closed, c2_kernel = (qcs_two_copy(pn).c_squared for pn in (closed, kernel))
    assert abs(c2_closed - c2_kernel) <= EXACT_ROUTE_TOL
    if spec.kind != "thermal":  # the kernel's levels: 2·top + 1
        assert len(closed) == len(kernel)
    # the longer of the two is the thermal closed form, 2·dim + 1 levels
    levels = max(len(closed), len(kernel))
    gap = np.abs(np.pad(closed.probs, (0, levels - len(closed)))
                 - np.pad(kernel.probs, (0, levels - len(kernel))))
    tail = 1.0 - np.trace(rho.matrix).real
    assert gap.max() <= max(tail, 0.0) + ROUNDOFF
