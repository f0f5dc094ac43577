"""The two-copy measurement circuit: 50:50 beam splitter(s), reduction to the
difference mode, and the output photon-number distribution p_n.

The beam splitter conserves the total photon number T = k + l of the two modes
it mixes, so it is block-diagonal: on the span of |k, T−k⟩ it acts by the
(T+1)-square real orthogonal block U_T, a Wigner d-matrix at β = π/2. Every
two-copy path runs one kernel on these blocks, built only on the input
columns k it reads (k ≤ top_a, T−k ≤ top_b; top: the highest level whose row
of ρ is nonzero) from the same columns of U_{T−1} by a two-sided recurrence
(T. Risbo, J. Geodesy 70, 383 (1996)). The full blocks U_0 … U_64 do not
depend on ρ: each process builds them once, on first use, and holds them
read-only (0.75 MB), so a window with T ≤ 64 is a view of its block; windows
above T = 64 stream from U_64 for the first mode. Each window keeps all T+1
output rows, so the result is exact for the truncated pair ρ_a⊗ρ_b at any
cutoff. T stops at top_a + top_b per mode, so the difference mode has
top_a + top_b + 1 levels (at least 2). With X_T[k, k′] = ρ_a[k, k′]
ρ_b[T−k, T−k′], the output diagonal is diag(U_T X_T U_Tᵀ) summed over the
traced mode, so p_n costs O(top⁴), the full difference-mode state costs
O(top⁵), and no dim²×dim² matrix is built. For several modes the sectors are tuples of per-mode totals,
the block is the Kronecker product of the per-mode ones, and every index is a
per-mode slice. Identical thermal inputs also have a closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

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

_HELD_TOTAL = 64  # U_0 … U_64 are held per process: Σ(T+1)² = 93,665 entries, 0.75 MB


def _step(u: np.ndarray, t: int, lo: int, hi: int, root: np.ndarray) -> np.ndarray:
    """Columns lo … hi of U_t, read-only, from u, the columns max(0, lo − 1) …
    min(hi, t − 1) of U_{t−1} (zero outside), by
    U_T[k′, k] = [√k (√k′ U[k′−1, k−1] − √(T−k′) U[k′, k−1])
                 + √(T−k) (√k′ U[k′−1, k] + √(T−k′) U[k′, k])] / (T√2)
    (root[k] = √k). Column k reads columns k−1 and k only, so the entries are
    the full block's in O(T·width). Both indices step at once; one-sided
    column recurrences are unstable."""
    up = np.zeros((t + 1, hi - lo + 2))  # columns lo−1 … hi of U_{t−1}
    down = np.zeros((t + 1, hi - lo + 2))
    cols = slice(int(lo == 0), int(lo == 0) + u.shape[1])
    up[1:, cols] = root[1:t + 1, None] * u  # √k′ U[k′−1, ·]
    down[:-1, cols] = root[t:0:-1, None] * u  # √(T−k′) U[k′, ·]
    scale = 1.0 / (t * math.sqrt(2.0))
    u = ((up - down)[:, :-1] * (scale * root[lo:hi + 1])
         + (up + down)[:, 1:] * (scale * root[t - hi:t - lo + 1][::-1]))
    u.flags.writeable = False
    return u


@functools.cache
def _held_block(t: int) -> np.ndarray:
    """The full block U_t (t ≤ _HELD_TOTAL), built once per process from U_{t−1}
    and read-only. The blocks are deterministic, so a race between threads can
    only build one twice, never misorder them."""
    if t == 0:
        u = np.ones((1, 1))
        u.flags.writeable = False
        return u
    return _step(_held_block(t - 1), t, 0, t, np.sqrt(np.arange(t + 1.0)))


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


def _downto(top: int, bottom: int = 0) -> slice:
    """The levels top, top − 1, …, bottom."""
    return slice(top, bottom - 1 if bottom else None, -1)


def _modes(top_a: int, top_b: int):
    """Per total T = 0 … top_a + top_b of one mode of two copies: T, the slices
    of the copy-a levels k it reads (lo = max(0, T − top_b) ≤ k ≤ min(T, top_a)
    = hi) and of the copy-b levels T−k in the same order, the output levels
    T … 0, and the read-only window on those columns of the block U_T of
    exp((π/4)(a†b − ab†)) on |k, T−k⟩, all T+1 rows. Up to T = 64 the window is
    a view of the held U_T; above it, each window streams from the previous one
    by ``_step``, starting from the held U_64, and equals that block's columns
    bit for bit."""
    root = np.sqrt(np.arange(top_a + top_b + 1.0))
    for t in range(top_a + top_b + 1):
        lo, hi = max(0, t - top_b), min(t, top_a)
        u = _held_block(t)[:, lo:hi + 1] if t <= _HELD_TOTAL else _step(u, t, lo, hi, root)
        yield t, slice(lo, hi + 1), _downto(t - lo, t - hi), _downto(t), u


def _blocks(top_a: int, top_b: int):
    """The windows of ``_modes``: for each T, columns lo … hi of U_T."""
    for *_, u in _modes(top_a, top_b):
        yield u


def _sectors(tops_a, tops_b):
    """Per-mode-total sectors T⃗ of two copies, first mode slowest, each as the
    tuples (T⃗, copy-a slices, copy-b slices, output slices, windows) over the
    modes. The descriptors of modes 2…N are built once per call and held; the
    first mode's stream with its windows."""
    held = [list(_modes(ta, tb)) for ta, tb in zip(tops_a[1:], tops_b[1:])]
    for first in _modes(tops_a[0], tops_b[0]):
        for rest in itertools.product(*held):
            yield tuple(zip(first, *rest))


def _kron(windows) -> np.ndarray:
    """Kronecker product of per-mode windows, rows m⃗ and columns k⃗ in C order."""
    u = windows[0]
    for w in windows[1:]:
        u = (u[:, None, :, None] * w[None, :, None, :]).reshape(len(u) * len(w), -1)
    return u


def _output_diagonal(rho_a: DensityOperator, rho_b: DensityOperator) -> np.ndarray:
    """Diagonal of the difference-mode state Tr_a U(ρ_a⊗ρ_b)U†, shaped
    top_a + top_b + 1 levels per mode, from the (T⃗, T⃗) blocks only; output row
    m⃗ adds to level T⃗ − m⃗. Blocks whose X_T is exactly zero are skipped; only
    the real part of the Hermitian X_T reaches the diagonal."""
    tops_a, tops_b, levels = _check_two_copy(rho_a, rho_b)
    a, b = rho_a.matrix.reshape(rho_a.dims * 2), rho_b.matrix.reshape(rho_b.dims * 2)
    diag = np.zeros(levels)
    for _, ka, kb, dest, windows in _sectors(tops_a, tops_b):
        x = (a[ka + ka] * b[kb + kb]).real
        if x.any():
            u = _kron(windows)
            view = diag[dest]
            view += np.einsum("ij,ij->i", u @ x.reshape(u.shape[1], -1), u).reshape(view.shape)
    return diag


# --- public two-copy paths ---

def two_copy_output(rho: DensityOperator) -> DensityOperator:
    """Difference-mode reduced state ρ_d = Tr_a U(ρ⊗ρ)U† of an N-mode state
    through the pairwise 50:50 beam-splitter stack, on 2·top + 1 levels per
    mode. A sector pair T⃗ ≤ T⃗′ adds its copy-a rows m⃗ ≤ min(T⃗, T⃗′), the ones
    the trace keeps, at (T⃗ − m⃗, T⃗′ − m⃗); these make P, and ρ_d = P + P† with
    the diagonal (T⃗ = T⃗′) counted once. For a positive ρ, X_{T,T′} vanishes
    unless both X_{T,T} and X_{T′,T′} carry mass."""
    tops, _, levels = _check_two_copy(rho, rho)
    mat = rho.matrix.reshape(rho.dims * 2)
    live = [(totals, ka, kb, dest, windows)
            for totals, ka, kb, dest, windows in _sectors(tops, tops)
            if (mat[ka + ka] * mat[kb + kb]).any()]
    out = np.zeros(levels * 2, dtype=complex)
    axes = list(range(len(levels)))  # einsum(view, axes * 2, axes): writeable view[m⃗, m⃗]
    for s, (totals, ka, kb, dest, windows) in enumerate(live):
        for totals2, ka2, kb2, dest2, windows2 in live[s:]:
            box = [min(t, t2) + 1 for t, t2 in zip(totals, totals2)]
            u, u2 = (_kron([w[:c] for w, c in zip(ws, box)]) for ws in (windows, windows2))
            x = (mat[ka + ka2] * mat[kb + kb2]).reshape(u.shape[1], u2.shape[1])
            view = out[dest + dest2][tuple(slice(c) for c in box * 2)]
            np.einsum(view, axes * 2, axes)[...] += np.einsum("ij,ij->i", u @ x, u2).reshape(box)
    out = out.reshape((math.prod(levels),) * 2)
    out = out + out.conj().T
    np.fill_diagonal(out, 0.5 * out.diagonal())
    return DensityOperator(out, levels, trace_deficit=1.0 - (1.0 - rho.trace_deficit) ** 2)


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
    """p_n for Fock inputs |N⟩⊗|N′⟩: the squared column N of U_{N+N′}, the last
    window (output row k leaves n = N + N′ − k photons in the difference mode)."""
    if big_n < 0 or big_np < 0:
        raise ValidationError("photon numbers must be non-negative")
    for u in _blocks(big_n, big_np):
        pass
    return u[::-1, 0] ** 2


def thermal_photon_distribution(q: float, n_max: int) -> PhotonDistribution:
    """Closed-form output for two identical thermal inputs: p_n = (1-q) qⁿ
    (a beam splitter maps a pair of identical thermal states to itself)."""
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"thermal parameter must satisfy 0 <= q < 1, got {q}")
    n = np.arange(n_max + 1)
    return PhotonDistribution(probs=(1.0 - q) * q ** n, deficit=q ** (n_max + 1))
