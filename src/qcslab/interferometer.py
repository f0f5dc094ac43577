"""The two-copy measurement circuit: 50:50 beam splitter(s), reduction to the
difference mode, and the output photon-number distribution p_n.

The beam splitter conserves the total photon number T = k + l of the two modes
it mixes, so it is block-diagonal: on the span of |k, T−k⟩ it acts by the
(T+1)-square real orthogonal block U_T, a Wigner d-matrix at β = π/2, built
from U_{T−1} in O(T²) by a two-sided recurrence (T. Risbo, J. Geodesy 70, 383
(1996)). Every two-copy path runs one kernel on these blocks: each full block
acts on the input columns k it needs and keeps all T+1 output rows, so the
result is exact for the truncated pair ρ_a⊗ρ_b at any cutoff. T stops at
top_a + top_b per mode (top: the highest level whose row of ρ is nonzero),
so the difference mode has top_a + top_b + 1 levels (at least 2). With
X_T[k, k′] = ρ_a[k, k′] ρ_b[T−k, T−k′], the output diagonal is
diag(U_T X_T U_Tᵀ) summed over the traced mode, so p_n costs O(top⁴) and
streams the blocks, the full difference-mode state costs O(top⁵), and no
dim²×dim² matrix is built. For several modes the sectors are tuples of
per-mode totals and the block is the Kronecker product of the per-mode
blocks. Identical thermal inputs also have a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import MemoryGuardError, RoundoffBudgetError, ValidationError
from .fock import DensityOperator

ROUNDOFF_BUDGET = 1e-8
MEMORY_GUARD_DIM = 4096  # largest input side and full block side (product over modes)


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number distribution p_n of the difference mode.

    ``deficit`` is 1 - Σ p_n (truncation loss); ``roundoff`` is the negative
    probability mass clipped to zero.
    """

    probs: np.ndarray
    deficit: float = 0.0
    roundoff: float = 0.0

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PhotonDistribution":
        """Clip round-off negatives and check the invariants Σp_n ≤ 1 and
        0 ≤ Σ(−1)ⁿp_n = Tr(ρ_a ρ_b) ≤ 1, each to within the round-off budget."""
        values = np.asarray(values, dtype=float)
        roundoff = float(-values[values < 0].sum())
        if roundoff > ROUNDOFF_BUDGET:
            raise RoundoffBudgetError(
                f"clipped negative probability mass {roundoff:.3e} exceeds budget "
                f"{ROUNDOFF_BUDGET:.1e}")
        probs = np.clip(values, 0.0, None)
        total = math.fsum(probs)
        alternating = math.fsum(probs[::2]) - math.fsum(probs[1::2])
        if total > 1.0 + ROUNDOFF_BUDGET or not (
                -ROUNDOFF_BUDGET < alternating <= 1.0 + ROUNDOFF_BUDGET):
            raise RoundoffBudgetError(
                f"p_n breaks its invariants beyond round-off {ROUNDOFF_BUDGET:.1e}: "
                f"Σp_n = {total!r} (must be <= 1), Σ(-1)ⁿp_n = {alternating!r} "
                "(must lie in [0, 1])")
        return cls(probs=probs, deficit=1.0 - total, roundoff=roundoff)

    def __len__(self) -> int:
        return len(self.probs)

    def to_csv(self, path) -> None:
        """CSV schema: columns n, p_n, cumulative (header row mandatory)."""
        cumulative = np.cumsum(self.probs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,p_n,cumulative\n")
            for n, (p, c) in enumerate(zip(self.probs, cumulative)):
                fh.write(f"{n},{float(p)!r},{float(c)!r}\n")


# --- the block kernel ---

def _blocks(top: int):
    """U_0, U_1, …, U_top: the blocks of exp((π/4)(a†b − ab†)) on |k, T−k⟩,
    each from the previous one U = U_{T−1} by
    U_T[k′, k] = [√k (√k′ U[k′−1, k−1] − √(T−k′) U[k′, k−1])
                 + √(T−k) (√k′ U[k′−1, k] + √(T−k′) U[k′, k])] / (T√2),
    with the entries outside U zero. Both indices step at once; one-sided
    column recurrences are unstable."""
    root = np.sqrt(np.arange(top + 1.0))
    u = np.ones((1, 1))
    yield u
    for t in range(1, top + 1):
        s, r = root[1:t + 1, None], root[t:0:-1, None]  # √k for k ≥ 1, √(T−k) for k < T
        up = np.zeros((t + 1, t))
        down = np.zeros((t + 1, t))
        up[1:] = s * u  # √k′ U[k′−1, ·]
        down[:-1] = r * u  # √(T−k′) U[k′, ·]
        scale = 1.0 / (t * math.sqrt(2.0))
        u = np.zeros((t + 1, t + 1))
        u[:, 1:] = (up - down) * (scale * s.T)
        u[:, :-1] += (up + down) * (scale * r.T)
        yield u


def _tops(rho: DensityOperator) -> tuple[int, ...]:
    """Per mode, the highest level whose row of ρ has a nonzero entry."""
    rows = np.flatnonzero(np.any(rho.matrix != 0, axis=1))
    return tuple(int(levels.max(initial=0)) for levels in np.unravel_index(rows, rho.dims))


def _check_two_copy(rho_a: DensityOperator, rho_b: DensityOperator):
    """The per-mode top levels of both inputs and the difference mode's levels
    top_a + top_b + 1, at least 2 (the smallest Fock cutoff, so that ρ_d of a
    vacuum mode is a valid input to every other routine). Refuses inputs at
    different cutoffs, and pairs whose input side or largest full block side
    (product over modes) exceeds the memory guard."""
    if rho_a.dims != rho_b.dims:
        raise ValidationError("inputs must share the same cutoff")
    if rho_a.dim > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"input side {rho_a.dim} exceeds memory guard {MEMORY_GUARD_DIM}")
    tops_a, tops_b = _tops(rho_a), _tops(rho_b)
    levels = tuple(max(2, ta + tb + 1) for ta, tb in zip(tops_a, tops_b))
    side = math.prod(levels)
    if side > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"beam-splitter block side {side} exceeds memory guard {MEMORY_GUARD_DIM}")
    return tops_a, tops_b, levels


def _flat(parts, shape) -> np.ndarray:
    """Flat C-order indices of the grid spanned by per-mode index arrays."""
    flat = parts[0]
    for part, size in zip(parts[1:], shape[1:]):
        flat = (flat[:, None] * size + part).ravel()
    return flat


def _sectors(dims, tops_a, tops_b, levels):
    """Per-mode-total sectors T⃗ of two copies, first mode slowest. Yields the
    flat input indices of the copy-a states k⃗ and of the copy-b states T⃗−k⃗
    that the sector needs (k ≤ top_a and T−k ≤ top_b per mode), the flat
    output indices, at ``levels`` per mode, of copy a's m⃗ and of the
    difference mode's T⃗−m⃗ for every output row, and per mode the block's
    columns k. The first mode's blocks stream; the other modes' are held."""
    held = [list(_blocks(n - 1)) for n in levels[1:]]
    for first, u_first in enumerate(_blocks(levels[0] - 1)):
        for rest in itertools.product(*(range(n) for n in levels[1:])):
            totals = (first, *rest)
            spans = [(max(0, t - tb), min(t, ta) + 1)
                     for t, ta, tb in zip(totals, tops_a, tops_b)]
            ks = [np.arange(*span) for span in spans]
            ms = [np.arange(t + 1) for t in totals]
            blocks = [u_first, *(h[t] for h, t in zip(held, rest))]
            yield (_flat(ks, dims), _flat([t - k for t, k in zip(totals, ks)], dims),
                   _flat(ms, levels), _flat([t - m for t, m in zip(totals, ms)], levels),
                   [u[:, lo:hi] for u, (lo, hi) in zip(blocks, spans)])


def _output_diagonal(rho_a: DensityOperator, rho_b: DensityOperator) -> np.ndarray:
    """Diagonal of the difference-mode state Tr_a U(ρ_a⊗ρ_b)U†, shaped
    top_a + top_b + 1 levels per mode, from the (T⃗, T⃗) blocks only. Blocks
    whose X_T is exactly zero are skipped; only the real part of the Hermitian
    X_T reaches the diagonal."""
    tops_a, tops_b, levels = _check_two_copy(rho_a, rho_b)
    a, b = rho_a.matrix, rho_b.matrix
    diag = np.zeros(levels)
    flat = diag.reshape(-1)
    for rows_a, rows_b, _, out_b, columns in _sectors(rho_a.dims, tops_a, tops_b, levels):
        x = (a[rows_a[:, None], rows_a] * b[rows_b[:, None], rows_b]).real
        if x.any():
            u = reduce(np.kron, columns)
            flat[out_b] += np.einsum("ij,ij->i", u @ x, u)
    return diag


# --- public two-copy paths ---

def two_copy_output(rho: DensityOperator) -> DensityOperator:
    """Difference-mode reduced state ρ_d = Tr_a U(ρ⊗ρ)U† of an N-mode state
    through the pairwise 50:50 beam-splitter stack, on 2·top + 1 levels per
    mode, from (T⃗, T⃗′) block pairs: only output rows sharing a copy-a index m⃗
    survive the trace. For a positive ρ, X_{T,T′} vanishes unless both X_{T,T}
    and X_{T′,T′} carry mass."""
    tops, _, levels = _check_two_copy(rho, rho)
    mat = rho.matrix
    live = [(ra, rb, oa, ob, reduce(np.kron, columns))
            for ra, rb, oa, ob, columns in _sectors(rho.dims, tops, tops, levels)
            if (mat[ra[:, None], ra] * mat[rb[:, None], rb]).any()]
    out = np.zeros((math.prod(levels),) * 2, dtype=complex)
    for s, (ra, rb, oa, ob, u) in enumerate(live):
        for ra2, rb2, oa2, ob2, u2 in live[s:]:
            _, i, i2 = np.intersect1d(oa, oa2, assume_unique=True, return_indices=True)
            if not i.size:
                continue
            x = mat[ra[:, None], ra2] * mat[rb[:, None], rb2]
            vals = np.einsum("ij,ij->i", u[i] @ x, u2[i2])
            out[ob[i], ob2[i2]] += vals
            if ra2 is not ra:  # the (T⃗′, T⃗) pair is the Hermitian conjugate
                out[ob2[i2], ob[i]] += vals.conj()
    return DensityOperator(0.5 * (out + out.conj().T), levels,
                           trace_deficit=1.0 - (1.0 - rho.trace_deficit) ** 2)


def photon_distribution(rho_a: DensityOperator,
                        rho_b: DensityOperator) -> PhotonDistribution:
    """p_n of the difference mode for two (possibly distinct) single-mode
    inputs, n = 0 … top_a + top_b."""
    if rho_a.n_modes != 1 or rho_b.n_modes != 1:
        raise ValidationError("photon_distribution expects single-mode states")
    return PhotonDistribution.from_values(_output_diagonal(rho_a, rho_b))


def multimode_photon_distribution(rho: DensityOperator) -> np.ndarray:
    """Joint photon-number distribution of the N difference modes (the diagonal
    of ``two_copy_output(rho)``), shaped 2·top + 1 levels per mode."""
    return _output_diagonal(rho, rho)


def photon_distribution_phase_invariant(diag) -> PhotonDistribution:
    """p_n for two copies of a Fock-diagonal input ρ = Σ λ_m |m⟩⟨m|: the kernel
    on diag(λ), after checking that λ is a sub-normalized distribution."""
    lam = np.asarray(diag, dtype=float)
    if lam.ndim != 1 or not lam.size or lam.min() < -1e-12:
        raise ValidationError("diagonal weights must be a non-empty list of numbers >= 0")
    if lam.sum() > 1.0 + 1e-9:
        raise ValidationError("diagonal weights must sum to at most 1")
    rho = DensityOperator(np.diag(lam).astype(complex), (len(lam),))
    return photon_distribution(rho, rho)


def hom_photon_distribution(big_n: int, big_np: int) -> np.ndarray:
    """p_n for Fock inputs |N⟩⊗|N′⟩: the squared column N of the block U_{N+N′}
    (output row k leaves n = N + N′ − k photons in the difference mode)."""
    if big_n < 0 or big_np < 0:
        raise ValidationError("photon numbers must be non-negative")
    for u in _blocks(big_n + big_np):
        pass
    return u[::-1, big_n] ** 2


def thermal_photon_distribution(q: float, n_max: int) -> PhotonDistribution:
    """Closed-form output for two identical thermal inputs: p_n = (1-q) qⁿ
    (a beam splitter maps a pair of identical thermal states to itself)."""
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"thermal parameter must satisfy 0 <= q < 1, got {q}")
    n = np.arange(n_max + 1)
    return PhotonDistribution(probs=(1.0 - q) * q ** n, deficit=q ** (n_max + 1))
