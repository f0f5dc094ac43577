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
top_a + top_b + 1 levels (at least 2). With X_T[k, k′] = Re(ρ_a[k, k′]
ρ_b[T−k, T−k′]), the output diagonal is diag(U_T X_T U_Tᵀ) summed over the
traced mode, so p_n costs O(top⁴) and no dim²×dim² matrix is built. For
several modes the sectors are tuples of per-mode totals, the block is the
Kronecker product of the per-mode ones, and every index is a per-mode slice.
Identical thermal inputs also have a closed form.

The p_n kernel runs on a plan built once per pair of top levels. The plan
cuts the sectors into groups: a run of first-mode totals with one total per
later mode. All X_T of a group come from one product of ρ_a's box of levels
with a strided view of ρ_b (no index arrays), one reduction finds the exactly
zero ones, each live sector takes one matmul and one row sum, and one
``bincount`` adds the rows to their levels T − m. A group's box and its
streamed windows stay within fixed entry budgets, so large tops stream in
bounded memory. Plans of pairs whose windows are all held blocks are cached,
least recently used first, within 1 MB; the others are built group by group
as their windows stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MemoryGuardError, RoundoffBudgetError, ValidationError
from .fock import DensityOperator

ROUNDOFF_BUDGET = 1e-8
MEMORY_GUARD_DIM = 4096  # largest input side and full block side (product over modes)


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number distribution p_n of the N difference modes, one axis per mode.

    ``deficit`` is 1 - Σ p_n (truncation loss); ``roundoff`` is the negative
    probability mass clipped to zero.
    """

    probs: np.ndarray
    deficit: float = 0.0
    roundoff: float = 0.0

    @classmethod
    def from_values(cls, values: np.ndarray) -> "PhotonDistribution":
        """Clip round-off negatives and check the invariants Σp_n ≤ 1 and
        0 ≤ Σ(−1)ⁿp_n = Tr(ρ_a ρ_b) ≤ 1 (n the total count over the modes),
        each to within the round-off budget."""
        values = np.asarray(values, dtype=float)
        roundoff = float(-values[values < 0].sum())
        if roundoff > ROUNDOFF_BUDGET:
            raise RoundoffBudgetError(
                f"clipped negative probability mass {roundoff:.3e} exceeds budget "
                f"{ROUNDOFF_BUDGET:.1e}")
        probs = np.clip(values, 0.0, None)
        _, signs, flat = _parity_terms(probs)
        total = math.fsum(flat)
        alternating = math.fsum(signs * flat)
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
        """CSV schema: columns n, p_n, cumulative (header row mandatory); one mode only."""
        if self.probs.ndim != 1:
            raise ValidationError(f"to_csv needs a single-mode p_n, got {self.probs.ndim} modes")
        cumulative = np.cumsum(self.probs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("n,p_n,cumulative\n")
            for n, (p, c) in enumerate(zip(self.probs, cumulative)):
                fh.write(f"{n},{float(p)!r},{float(c)!r}\n")


def _parity_terms(probs: np.ndarray):
    """Flattened total photon number n = Σ_k n_k, total parity (−1)ⁿ and p_n."""
    n = np.indices(probs.shape).sum(axis=0).ravel()
    return n, (-1.0) ** n, probs.ravel()


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
    tops_a = _tops(rho_a)
    tops_b = tops_a if rho_b is rho_a else _tops(rho_b)
    levels = tuple(max(2, ta + tb + 1) for ta, tb in zip(tops_a, tops_b))
    side = math.prod(levels)
    if side > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"beam-splitter block side {side} exceeds memory guard {MEMORY_GUARD_DIM}")
    return tops_a, tops_b, levels


def _blocks(top_a: int, top_b: int):
    """Per total T = 0 … top_a + top_b of one mode of two copies, the read-only
    window on the columns k it reads (lo = max(0, T − top_b) ≤ k ≤ min(T, top_a)
    = hi) of the block U_T of exp((π/4)(a†b − ab†)) on |k, T−k⟩, all T+1 rows.
    Up to T = 64 the window is a view of the held U_T; above it, each window
    streams from the previous one by ``_step``, starting from the held U_64, and
    equals that block's columns bit for bit."""
    root = np.sqrt(np.arange(top_a + top_b + 1.0))
    for t in range(top_a + top_b + 1):
        lo, hi = max(0, t - top_b), min(t, top_a)
        u = _held_block(t)[:, lo:hi + 1] if t <= _HELD_TOTAL else _step(u, t, lo, hi, root)
        yield u


def _kron(windows) -> np.ndarray:
    """Kronecker product of per-mode windows, rows m⃗ and columns k⃗ in C order."""
    u = windows[0]
    for w in windows[1:]:
        u = (u[:, None, :, None] * w[None, :, None, :]).reshape(len(u) * len(w), -1)
    return u


# --- the p_n kernel on per-shape plans ---

_BOX_ENTRIES = 1 << 13  # X box entries of one group: bounds its product's temporaries
_STREAM_ENTRIES = 1 << 14  # streamed-window entries one group holds
_PLAN_BYTES = 1 << 20  # plan cache budget, next to the 0.75 MB of held blocks
# Python objects a plan holds, as traced by tracemalloc (500-660 bytes a sector
# with its group's share): per sector its tuples, slices and window views, per
# group its own tuples
_SECTOR_BYTES = 512
_GROUP_BYTES = 1536


class _Sector(NamedTuple):
    box: tuple  # index of X_T⃗ (rows k⃗, columns k⃗′) in its group's box
    windows: tuple  # per mode, columns lo … hi of U_T, all T + 1 rows
    rows: slice  # its output rows m⃗ in the group's row buffer


class _Group(NamedTuple):
    """Sectors T⃗ with a run of first-mode totals t0 … t0 + count − 1 and one
    total per later mode. Their X_T⃗ share one box of copy-a levels: lo … hi
    of the run for the first mode, exactly the window for a later one."""
    a: tuple  # the box's slices of ρ_a, rows then columns
    shape: tuple  # (count, box widths, box widths)
    origin: tuple  # levels T − lo of ρ_b at the box's first entry, rows then columns
    bounds: tuple | None  # lowest and highest ρ_b levels per mode, if they leave 0 … top_b
    sectors: tuple[_Sector, ...]
    dest: np.ndarray  # int32 flat difference-mode level T⃗ − m⃗ of each output row


def _chunks(top_a: int, top_b: int, budget: int):
    """One mode's totals 0 … top_a + top_b cut into runs t0 … t1, as
    (t0, t1, lo(t0), hi(t1)): a run's box of X entries
    (t1 − t0 + 1)·(hi(t1) − lo(t0) + 1)² stays within ``budget`` and its
    streamed windows, (T + 1)·(hi − lo + 1) entries each above T = 64,
    within _STREAM_ENTRIES (a run has one total at least)."""
    chunks, t0, streamed = [], 0, 0
    for t in range(1, top_a + top_b + 2):
        window = (t + 1) * (min(t, top_a) - max(0, t - top_b) + 1) if t > _HELD_TOTAL else 0
        grown = (t - t0 + 1) * (min(t, top_a) - max(0, t0 - top_b) + 1) ** 2
        if t > top_a + top_b or grown > budget or streamed + window > _STREAM_ENTRIES:
            chunks.append((t0, t - 1, max(0, t0 - top_b), min(t - 1, top_a)))
            t0, streamed = t, window
        else:
            streamed += window
    return chunks


def _group(chunk, windows, later, tops_a, tops_b, stride) -> _Group:
    """The sectors of one run of first-mode totals (t0, t1, lo, hi), given its
    windows, and one total per later mode, (T, lo, hi, window) each. ``stride``:
    the flat stride of each mode's difference-mode level."""
    t0, t1, lo, hi = chunk
    totals = (t0,) + tuple(t for t, *_ in later)
    los = (lo,) + tuple(low for _, low, _, _ in later)
    widths = (hi - lo + 1,) + tuple(high - low + 1 for _, low, high, _ in later)
    lows = [t - low - w + 1 for t, low, w in zip(totals, los, widths)]
    highs = [t1 - lo] + [t - low for t, low, *_ in later]
    inside = min(lows) >= 0 and all(h <= tb for h, tb in zip(highs, tops_b))
    rest = tuple(u for *_, u in later)
    height = math.prod(t + 1 for t in totals[1:])
    full = (slice(None),) * len(later)
    sectors, rows = [], 0
    for i, (t, window) in enumerate(zip(range(t0, t1 + 1), windows)):
        ks = (slice(max(0, t - tops_b[0]) - lo, min(t, tops_a[0]) - lo + 1),) + full
        sectors.append(_Sector((i,) + ks + ks, (window,) + rest,
                               slice(rows, rows + (t + 1) * height)))
        rows += (t + 1) * height
    # row (m_1, m⃗) of sector T⃗ lands on level Σ (T_i − m_i)·stride_i
    first = np.arange(t0, t1 + 1)[:, None] - np.arange(t1 + 1)
    later_levels = functools.reduce(np.add.outer, [
        np.arange(t, -1, -1) * s for (t, *_), s in zip(later, stride[1:])], 0)
    dest = np.add.outer(first[first >= 0] * stride[0], later_levels).ravel().astype(np.int32)
    return _Group(tuple(slice(low, low + w) for low, w in zip(los, widths)) * 2,
                  (t1 - t0 + 1,) + widths * 2, tuple(t - low for t, low in zip(totals, los)) * 2,
                  None if inside else (tuple(lows), tuple(highs)), tuple(sectors), dest)


def _groups(tops_a, tops_b):
    """The sector groups of two copies, first mode slowest: runs of first-mode
    totals, each with one total per later mode, so that each later mode's box
    is its window and every X_T⃗ is a plain matrix view of the group's box. The
    first mode's windows stream, so a group is built only when it is reached."""
    levels = tuple(max(2, ta + tb + 1) for ta, tb in zip(tops_a, tops_b))
    stride = tuple(math.prod(levels[i + 1:]) for i in range(len(levels)))
    later = [[(t, max(0, t - tb), min(t, ta), u) for t, u in enumerate(_blocks(ta, tb))]
             for ta, tb in zip(tops_a[1:], tops_b[1:])]
    largest = math.prod(min(ta, tb) + 1 for ta, tb in zip(tops_a[1:], tops_b[1:])) ** 2
    first = _blocks(tops_a[0], tops_b[0])
    for chunk in _chunks(tops_a[0], tops_b[0], max(1, _BOX_ENTRIES // largest)):
        windows = list(itertools.islice(first, chunk[1] - chunk[0] + 1))
        for totals in itertools.product(*later):
            yield _group(chunk, windows, totals, tops_a, tops_b, stride)


def _mirror(b: np.ndarray, group: _Group) -> np.ndarray:
    """ρ_b[T⃗ − k⃗, T⃗ − k⃗′] on the group's box, axes (T_1 − t0, k⃗ − lo⃗,
    k⃗′ − lo⃗): a read-only strided view of ρ_b (C-contiguous), or of a
    zero-padded copy of the levels the box reaches where they leave
    0 … top_b."""
    src, origin = b, group.origin
    if group.bounds is not None:
        lows, highs = group.bounds
        keep = tuple(slice(max(low, 0), min(high, dim - 1) + 1)
                     for low, high, dim in zip(lows, highs, b.shape))
        src = np.zeros(tuple(high - low + 1 for low, high in zip(lows, highs)) * 2, b.dtype)
        src[tuple(slice(k.start - low, k.stop - low) for k, low in zip(keep, lows)) * 2] = (
            b[keep * 2])
        origin = tuple(o - low for o, low in zip(origin, lows * 2))
    n = len(origin) // 2
    rows, cols = src.strides[:n], src.strides[n:]
    view = np.ndarray(group.shape, src.dtype, src,
                      sum(o * s for o, s in zip(origin, src.strides)),
                      (rows[0] + cols[0],) + tuple(-r for r in rows) + tuple(-c for c in cols))
    view.flags.writeable = False
    return view


def _add_group(diag: np.ndarray, a: np.ndarray, b: np.ndarray, group: _Group) -> None:
    """Adds the group's sectors to the flat diagonal: one product gives all
    their X_T⃗ and one reduction the exactly-zero ones (skipped); each live
    sector takes one matmul and one row sum, diag(U_T⃗ X_T⃗ U_T⃗ᵀ), and one
    scatter adds the rows to their levels T⃗ − m⃗."""
    x = a[group.a] * _mirror(b, group)
    live = x.reshape(len(group.sectors), -1).any(axis=1)
    x = x.real
    rows = np.zeros(len(group.dest))
    for index, windows, out in itertools.compress(group.sectors, live):
        u = _kron(windows)
        np.vecdot(u @ x[index].reshape(u.shape[1], -1), u, out=rows[out])
    diag += np.bincount(group.dest, rows, len(diag))


def _output_diagonal(rho_a: DensityOperator, rho_b: DensityOperator) -> np.ndarray:
    """Diagonal of the difference-mode state Tr_a U(ρ_a⊗ρ_b)U†, shaped
    top_a + top_b + 1 levels per mode, from the (T⃗, T⃗) blocks only, run on
    the plan of the pair's top levels."""
    tops_a, tops_b, levels = _check_two_copy(rho_a, rho_b)
    a, b = (np.ascontiguousarray(rho.matrix).reshape(rho.dims * 2) for rho in (rho_a, rho_b))
    diag = np.zeros(math.prod(levels))
    for group in _plan(tops_a, tops_b):
        _add_group(diag, a, b, group)
    return diag.reshape(levels)


class _PlanCache:
    """Plans of shapes whose windows are all held, least recently used first,
    within a byte budget. A plan is read-only, so threads share it; the lock
    guards the order and the byte count."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            if key in self._plans:
                self._plans.move_to_end(key)
                return self._plans[key][0]
        plan = build()
        size = sum(_GROUP_BYTES + _SECTOR_BYTES * len(group.sectors) + group.dest.nbytes
                   for group in plan)
        with self._lock:
            if size <= self.budget and key not in self._plans:
                self._plans[key] = plan, size
                self.nbytes += size
                while self.nbytes > self.budget:
                    self.nbytes -= self._plans.popitem(last=False)[1][1]
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.nbytes = 0


_plans = _PlanCache(_PLAN_BYTES)


def _plan(tops_a, tops_b):
    """The sector groups of a pair of top levels: cached when every window is a
    held block, else streamed group by group."""
    if max(ta + tb for ta, tb in zip(tops_a, tops_b)) > _HELD_TOTAL:
        return _groups(tops_a, tops_b)
    return _plans.get((tops_a, tops_b), lambda: tuple(_groups(tops_a, tops_b)))


# --- public two-copy paths ---

def photon_distribution(rho_a: DensityOperator,
                        rho_b: DensityOperator) -> PhotonDistribution:
    """Joint p_n of the N difference modes for two (possibly distinct) N-mode inputs,
    n_k = 0 … top_a + top_b; for ρ_a = ρ_b = ρ, the diagonal of the difference-mode
    state Tr_a U(ρ⊗ρ)U†."""
    return PhotonDistribution.from_values(_output_diagonal(rho_a, rho_b))


def photon_distribution_phase_invariant(diag) -> PhotonDistribution:
    """p_n for two copies of a Fock-diagonal input ρ = Σ λ_m |m⟩⟨m|: the kernel
    on diag(λ), after checking that λ is a sub-normalized distribution."""
    lam = np.asarray(diag, dtype=float)
    if lam.ndim != 1 or not lam.size or not np.all(np.isfinite(lam)) or lam.min() < -1e-12:
        raise ValidationError("diagonal weights must be a non-empty list of finite numbers >= 0")
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
