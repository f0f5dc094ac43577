"""Tests of the default cutoff: a property test on random specs of every kind
with a Fock-space constructor, and squeezed states against their closed form.

The default is the one-copy rule, not twice it: the two-copy kernel is exact
for the truncated pair at any cutoff, so a second copy's headroom buys no
accuracy. At the default, the state builds without CutoffError, leaves a trace
deficit of at most 1e-6, and the direct and two-copy routes give the C² they
give at the doubled cutoff the previous rule chose, within 1e-6·max(1, |C²|),
and agree with each other within compare's tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcslab import (
    StateSpec,
    build_state,
    gaussian_covariance,
    qcs_direct,
    qcs_gaussian,
    qcs_two_copy,
)
from qcslab.cli import EXACT_ROUTE_TOL
from qcslab.states import KINDS, recommended_cutoff, two_copy_pn

amplitude = st.builds(complex, st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))


@st.composite
def mixture_params(draw):
    k = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return {"weights": weights.tolist(),
            "amplitudes": draw(st.lists(amplitude, min_size=k, max_size=k))}


PARAMS = {
    "coherent": st.fixed_dictionaries({"alpha": amplitude}),
    "fock": st.fixed_dictionaries({"n": st.integers(0, 20)}),
    "thermal": st.one_of(st.fixed_dictionaries({"q": st.floats(0.0, 0.7)}),
                         st.fixed_dictionaries({"mean_n": st.floats(0.0, 2.3)})),
    "squeezed_vacuum": st.fixed_dictionaries({"r": st.floats(-0.8, 0.8)}),
    "rho_2M": st.fixed_dictionaries({"M": st.integers(1, 10)}),
    "rho_even_M": st.fixed_dictionaries({"M": st.integers(1, 10)}),
    "mixture": mixture_params(),
}
base_doc = st.sampled_from(sorted(PARAMS)).flatmap(
    lambda kind: PARAMS[kind].map(lambda p: {"kind": kind, "params": p}))
PARAMS["displaced"] = st.fixed_dictionaries({"base": base_doc, "beta": amplitude})

specs = st.sampled_from(sorted(PARAMS)).flatmap(
    lambda kind: PARAMS[kind].map(lambda p: StateSpec(kind, p)))


def test_strategies_cover_every_kind_with_a_fock_constructor():
    assert set(PARAMS) == {kind for kind, row in KINDS.items() if row.build is not None}


def routes(spec, cutoff):
    """(direct C², two-copy C²) at a pinned cutoff, the two-copy p_n as the CLI
    takes it: the kind's closed form if it has one, the kernel otherwise."""
    rho = build_state(spec, cutoff=cutoff)
    return rho, qcs_direct(rho).c_squared, qcs_two_copy(two_copy_pn(spec, cutoff)).c_squared


@settings(max_examples=40, deadline=None)
@given(specs)
def test_default_cutoff_matches_the_doubled_one(spec):
    cutoff = recommended_cutoff(spec)
    rho, direct, two_copy = routes(spec, cutoff)  # raises CutoffError if too tight
    assert rho.trace_deficit <= 1e-6
    # compare's exit code: a displaced spec's two-copy route reads its base, so
    # this also bounds what the displaced state's truncation moves its C²
    assert abs(direct - two_copy) <= EXACT_ROUTE_TOL
    _, direct_doubled, two_copy_doubled = routes(spec, 2 * cutoff)
    assert abs(direct - direct_doubled) <= 1e-6 * max(1.0, abs(direct_doubled))
    assert abs(two_copy - two_copy_doubled) <= 1e-6 * max(1.0, abs(two_copy_doubled))


@pytest.mark.parametrize("spec", [
    StateSpec("squeezed_vacuum", {"r": r}) for r in (1.0, 1.9, -2.0, 2.2)
] + [StateSpec("thermal", {"q": 0.98})])
def test_default_cutoff_holds_slow_tails_to_the_closed_form(spec):
    # cutting levels above s moves a squeezed state's C² by about 2 Σ_{n>s} n p_n,
    # which a probability tail of 1e-9 alone lets grow past compare's 1e-6 from
    # r ≈ 1.9; these tails also reach past the first probe, which must grow
    direct = qcs_direct(build_state(spec)).c_squared
    assert abs(direct - qcs_gaussian(gaussian_covariance(spec)).c_squared) <= 1e-6
