"""The planned two-copy p_n kernel against the per-sector loop it replaced.

``oracles.sector_loop_diagonal`` slices each sector's X_T⃗ out of the inputs
and sums each row of U_T⃗ X_T⃗ U_T⃗ᵀ with ``einsum``; the kernel takes all X_T⃗
of a group from one product of strided views and sums the rows with
``vecdot``. The two add the same terms in another order, so they agree to
round-off: 2e-15 of the largest p_n.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sector_loop_diagonal
from qcslab import DensityOperator, photon_distribution
from qcslab.interferometer import _PLAN_BYTES, _groups, _output_diagonal, _plans
from test_interferometer import HELD_EDGE_PAIRS

REL_TOL = 2e-15


def assert_matches_the_loop(rho_a, rho_b):
    want = sector_loop_diagonal(rho_a, rho_b)
    got = _output_diagonal(rho_a, rho_b)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()


def state_with_tops(rng, dims, tops, kind):
    """A random state on levels ≤ tops (per mode) at cutoffs ``dims``:
    ``mixed`` of rank 1-3, ``diagonal`` with random weights, or ``sparse``,
    diagonal on alternate levels only, so that whole sectors vanish."""
    inside = np.ones(dims, dtype=bool)
    for mode, top in enumerate(tops):
        shape = [1] * len(dims)
        shape[mode] = -1
        inside &= np.arange(dims[mode]).reshape(shape) <= top
    if kind == "sparse":
        inside &= np.indices(dims).sum(axis=0) % 2 == 0
    inside = inside.ravel()
    if kind == "mixed":
        g = rng.normal(size=(inside.size, 3)) + 1j * rng.normal(size=(inside.size, 3))
        g[~inside] = 0.0
        g = g[:, :rng.integers(1, 4)]
        matrix = g @ g.conj().T
    else:
        matrix = np.diag(rng.random(inside.size) * inside).astype(complex)
    return DensityOperator(matrix / np.trace(matrix).real, dims)


@st.composite
def pairs(draw):
    """Two different states on one to three modes, with their own top levels;
    one mode reaches totals past the held blocks (T > 64)."""
    n_modes = draw(st.integers(1, 3))
    largest = (40, 6, 4)[n_modes - 1]
    dims = tuple(draw(st.integers(1, largest)) for _ in range(n_modes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return tuple(
        state_with_tops(rng, dims, [draw(st.integers(0, d - 1)) for d in dims],
                        draw(st.sampled_from(["mixed", "diagonal", "sparse"])))
        for _ in range(2))


@settings(max_examples=60, deadline=None)
@given(pair=pairs())
def test_kernel_matches_the_sector_loop(pair):
    assert_matches_the_loop(*pair)


@pytest.mark.parametrize("tops", HELD_EDGE_PAIRS)
def test_kernel_matches_the_sector_loop_across_the_held_blocks(tops):
    rng = np.random.default_rng(sum(tops))
    dims = (max(tops) + 1,)
    for kind in ("mixed", "sparse"):
        rho_a, rho_b = (state_with_tops(rng, dims, (top,), kind) for top in tops)
        assert_matches_the_loop(rho_a, rho_b)


def test_cached_and_streamed_plans_give_the_same_p_n():
    rng = np.random.default_rng(7)
    rho_a, rho_b = (state_with_tops(rng, (32,), (31,), "mixed") for _ in range(2))
    _plans.clear()
    cold = _output_diagonal(rho_a, rho_b)
    assert _plans.nbytes > 0
    assert np.array_equal(_output_diagonal(rho_a, rho_b), cold)
    # a plan whose windows stream is built anew for every call, never cached
    rho = state_with_tops(rng, (40,), (39,), "mixed")
    _plans.clear()
    photon_distribution(rho, rho)
    assert _plans.nbytes == 0


def test_plan_cache_stays_within_its_byte_budget():
    rng = np.random.default_rng(3)
    _plans.clear()
    shapes = [(top, other) for top in range(13, 33) for other in (top, top - 1)]
    assert len(shapes) == 40
    for top, other in shapes:
        photon_distribution(state_with_tops(rng, (33,), (top,), "diagonal"),
                            state_with_tops(rng, (33,), (other,), "diagonal"))
        assert 0 < _plans.nbytes <= _PLAN_BYTES
    # the least recently used plans made room for the later ones
    assert len(_plans._plans) < len(shapes)
    assert ((32,), (31,)) in _plans._plans and ((13,), (13,)) not in _plans._plans


@pytest.mark.parametrize("tops", [((31,), (31,)), ((8,), (8,)), ((64,), (0,)),
                                  ((7, 3), (7, 3)), ((7, 7), (7, 7)), ((3, 2, 1), (3, 2, 1))])
def test_plan_bytes_cover_what_the_plan_holds(tops):
    list(_groups(*tops))  # the held blocks are built outside the count
    tracemalloc.start()
    try:
        plan = tuple(_groups(*tops))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _plans.clear()
    _plans.get(tops, lambda: plan)
    assert traced <= _plans.nbytes
