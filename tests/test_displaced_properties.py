"""Displaced specs read their base.

Two copies displaced alike by β leave the difference mode undisplaced,
(μ − μ)/√2 = 0, so a displaced spec's two-copy p_n is its base's at the same
cutoff. The identity holds exactly for the displaced base before truncation:
on a space wide enough to hold D(β)ρD†, the kernel gives the base's p_n to
round-off. At the cutoff itself the displaced state loses the mass δ moved
past it, and its p_n can differ from the base's by more than δ (cross terms
between the kept and the cut levels: 2.5e-10 at δ = 6.3e-11 on a displaced
coherent state at its default cutoff 22). The bound that holds is the trace
norm's: Σ|Δp_n| <= 2‖σ − PσP‖₁ <= 4√δ + 2δ, plus 2δ when the base's p_n is
the closed form of its untruncated state (thermal). A displaced pure base has
amplitudes D(β)ψ, which give the state and the default cutoff of the matrix
probe they replace.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcslab import StateSpec, build_state, displace, photon_distribution
from qcslab import states
from qcslab.fock import DensityOperator
from qcslab.states import recommended_cutoff, spec_amplitudes, two_copy_pn

beta = st.builds(complex, st.floats(-1.06, 1.06), st.floats(-1.06, 1.06))  # |β| <= 1.5
small = st.floats(-1.0, 1.0)


@st.composite
def mixture_params(draw):
    k = draw(st.integers(1, 3))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    weights = raw / raw.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    return {"weights": weights.tolist(),
            "amplitudes": draw(st.lists(st.builds(complex, small, small), min_size=k,
                                        max_size=k))}


PURE = {
    "coherent": st.fixed_dictionaries({"alpha": st.builds(complex, small, small)}),
    "squeezed_vacuum": st.fixed_dictionaries({"r": st.floats(-0.8, 0.8)}),
    "fock": st.fixed_dictionaries({"n": st.integers(0, 10)}),
}
MIXED = {
    "thermal": st.one_of(st.fixed_dictionaries({"q": st.floats(0.0, 0.6)}),
                         st.fixed_dictionaries({"mean_n": st.floats(0.0, 1.5)})),
    "mixture": mixture_params(),
}


def displaced(kinds):
    return st.sampled_from(sorted(kinds)).flatmap(
        lambda kind: st.tuples(kinds[kind], beta).map(
            lambda pb: StateSpec("displaced", {"base": {"kind": kind, "params": pb[0]},
                                               "beta": pb[1]})))


def l1(p, q):
    """Σ|p_n − q_n| over the longer of two p_n, the shorter padded with zeros."""
    n = max(len(p), len(q))
    return float(np.abs(np.pad(p, (0, n - len(p))) - np.pad(q, (0, n - len(q)))).sum())


@settings(max_examples=40, deadline=None)
@given(displaced({**PURE, **MIXED}))
def test_two_copy_pn_of_a_displaced_spec_is_its_base(spec):
    cutoff = recommended_cutoff(spec)
    base = spec.params["base"]
    assert (spec_amplitudes(spec) is None) is (base.kind in MIXED)
    pn = two_copy_pn(spec, cutoff)
    assert np.array_equal(pn.probs, two_copy_pn(base, cutoff).probs)
    # the state the displaced spec builds at the cutoff, within the trace-norm bound
    rho = build_state(spec, cutoff=cutoff)
    delta = rho.trace_deficit
    assert l1(pn.probs, photon_distribution(rho, rho).probs) \
        <= 4 * np.sqrt(delta) + 4 * delta + 1e-12
    # the base displaced on a space wide enough to hold D(β)ρD†: to round-off
    rho_base = build_state(base, cutoff=cutoff)
    wide = 2 * cutoff + 20
    padded = np.zeros((wide, wide), dtype=complex)
    padded[:cutoff, :cutoff] = rho_base.matrix
    moved = displace(DensityOperator(padded, (wide,), rho_base.trace_deficit), spec.params["beta"])
    assert moved.trace_deficit <= rho_base.trace_deficit + 1e-14
    assert l1(photon_distribution(rho_base, rho_base).probs,
              photon_distribution(moved, moved).probs) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(displaced(PURE))
def test_displaced_pure_amplitudes_give_the_displaced_state(spec):
    cutoff = recommended_cutoff(spec)
    psi = spec_amplitudes(spec)(cutoff)
    rho = build_state(spec, cutoff=cutoff)
    assert np.max(np.abs(np.outer(psi, psi.conj()) - rho.matrix)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(displaced(PURE))
def test_displaced_pure_default_cutoff_is_the_matrix_probes(spec):
    # with no amplitudes the probe builds the displaced state and reads its
    # diagonal, as it does for every mixed spec
    with mock.patch.object(states, "spec_amplitudes", lambda spec: None):
        matrix_probe = recommended_cutoff(spec)
    assert recommended_cutoff(spec) == matrix_probe
