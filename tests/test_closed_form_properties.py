"""The two-copy closed forms against the beam-splitter kernel on random specs.

Five kinds carry a closed-form two-copy p_n, the untruncated pair's output:
thermal (1 − q)qⁿ, coherent δ_{n0}, squeezed vacuum |ψ_n(r)|², Fock |n⟩ the
multiphoton Hong–Ou–Mandel law p_{2j} = C(2j, j)·C(2n−2j, n−j)/4ⁿ, and a
coherent mixture Σ_ik w_i w_k Poisson_n(|α_i − α_k|²/2). The kernel gives the
truncated pair's exact p_n. At the default cutoff the two must give the same
C² within compare's tolerance, and each p_n of a pure or Fock-diagonal kind may
differ from the other by no more than the mass the truncation cut from the
state (1 − Tr ρ), plus the kernel's round-off; a mixture's, by the bound on
the truncation derived below. The streamed beam-splitter windows at large totals are
checked against the Hong–Ou–Mandel law, which shares no code with them.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcslab import StateSpec, qcs_two_copy
from qcslab.cli import EXACT_ROUTE_TOL
from qcslab.constructors import fock_pair_pn
from qcslab.interferometer import hom_photon_distribution
from qcslab.states import KINDS, route_inputs

ROUNDOFF = 1e-12  # the kernel's round-off on one p_n at tops up to 187

amplitude = st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(0.0, 2 * np.pi))
coherent = amplitude.map(lambda alpha: StateSpec("coherent", {"alpha": [alpha.real, alpha.imag]}))
squeezed = st.floats(-1.5, 1.5).map(lambda r: StateSpec("squeezed_vacuum", {"r": r}))
thermal = st.floats(0.0, 0.85).map(lambda q: StateSpec("thermal", {"q": q}))
fock = st.integers(0, 120).map(lambda n: StateSpec("fock", {"n": n}))


@st.composite
def mixture(draw):
    """K = 1–4 members drawn from a pool of at most K amplitudes, so members coincide."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(amplitude, min_size=1, max_size=k))
    amps = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = [w / math.fsum(raw) for w in raw[:-1]]
    weights.append(1.0 - math.fsum(weights))
    return StateSpec("mixture", {"weights": weights,
                                 "amplitudes": [[a.real, a.imag] for a in amps]})


def closed_form_purity(spec: StateSpec) -> float:
    """Tr ρ² of the untruncated state: 1 for |n⟩, Σ w_i w_k e^{−|α_i−α_k|²} for a mixture."""
    if spec.kind == "fock":
        return 1.0
    w, a = np.array(spec.params["weights"]), np.array(spec.params["amplitudes"])
    return float(w @ np.exp(-np.abs(a[:, None] - a) ** 2) @ w)


def test_the_closed_forms_are_these_kinds():
    closed = {kind for kind, row in KINDS.items() if row.two_copy_pn}
    assert closed == {"coherent", "squeezed_vacuum", "thermal", "displaced", "fock", "mixture"}


def gap_to_the_kernel(spec: StateSpec) -> tuple[float, float, int]:
    """The largest |p_n| gap between the closed form and the kernel, with the
    mass the truncation cut from the state (1 − Tr ρ) and the cutoff, after
    checking that the two give one C² and that a closed form on the kernel's
    levels has as many of them."""
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
    return gap.max(), 1.0 - np.trace(rho.matrix).real, inputs["cutoff"]()


@settings(max_examples=30, deadline=None)
@given(st.one_of(coherent, squeezed, thermal, fock))
def test_closed_form_matches_the_kernel_within_the_tail(spec):
    gap, tail, _ = gap_to_the_kernel(spec)
    assert gap <= max(tail, 0.0) + ROUNDOFF


@settings(max_examples=30, deadline=None)
@given(mixture())
def test_mixture_closed_form_matches_the_kernel_within_the_pair_tail(spec):
    # a mixture's cross pairs |α_i⟩|α_k⟩ can move p_n by more than the state's
    # tail (4.1e-12 on a tail of 1.5e-13 at cutoff 30). The bound of the
    # truncation itself: with Ψ = ψ_i ⊗ ψ_k and r its part past the cutoff,
    # |Δp_n| = |2Re⟨Π_n Ψ, Π_n r⟩ − ‖Π_n r‖²| per pair, r lies at total photon
    # number T ≥ dim, which the beam splitter keeps, and Π_n commutes with T;
    # Cauchy–Schwarz over n and pairs gives Σ_n |Δp_n| ≤ R + 2√(M·R), with R =
    # 1 − (Tr ρ)² the mass cut from the pair and M the untruncated pair's mass
    # at T ≥ dim (from the state at twice the cutoff, past which at most twice
    # its own tail lies)
    gap, tail, dim = gap_to_the_kernel(spec)
    q = route_inputs(spec, 2 * dim)["state"]().number_marginal()
    pair_mass = math.fsum(np.convolve(q, q)[dim:]) + 2 * max(1.0 - math.fsum(q), 0.0)
    cut = max(1.0 - (1.0 - tail) ** 2, 0.0)
    assert gap <= cut + 2 * math.sqrt(pair_mass * cut) + ROUNDOFF


@settings(max_examples=30, deadline=None)
@given(st.one_of(fock, mixture()))
def test_alternating_sum_is_the_purity(spec):
    # the paper's identity Σ(−1)ⁿp_n = Tr ρ², on the closed form alone
    probs = route_inputs(spec)["pn"]().probs
    signs = (-1.0) ** np.arange(len(probs))
    assert abs(math.fsum(signs * probs) - closed_form_purity(spec)) <= 1e-12


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_streamed_windows_give_the_hong_ou_mandel_law(n):
    # |n⟩|n⟩ reads column n of U_2n, streamed by the recurrence from the held
    # U_64 up to a total of 2n; the closed form is a product of binomial ratios
    assert np.abs(hom_photon_distribution(n, n) - fock_pair_pn(n)).max() <= 1e-13
