"""The two-copy measurement circuit: 50:50 beam splitter(s), reduction to the
difference mode, and the output photon-number distribution p_n.

The beam splitter conserves the total photon number T = k + l of the two modes
it mixes, so it is block-diagonal: on the span of |k, T−k⟩ it acts by a
(T+1)-square block U_T, smaller where the cutoff truncates the block. Each
block is the exponential of the real tridiagonal J_y generator, taken from the
eigendecomposition of a real symmetric tridiagonal matrix S, which numpy's
``eigh`` (LAPACK ``syevd``) diagonalizes as a dense matrix. Every two-copy path runs
on these blocks. With X_T[k, k′] = ρ_a[k, k′] ρ_b[T−k, T−k′], the output
diagonal is diag(U_T X_T U_Tᵀ) summed over the traced mode, so p_n costs
O(dim⁴) and the full difference-mode state O(dim⁵); no dim²×dim² matrix is
built. For several modes the sectors are tuples of per-mode totals and the
block is the Kronecker product of the per-mode blocks.

Fock-diagonal inputs use the untruncated blocks, p = Σ_T |U_T|² (λ_k λ_{T−k}),
which needs no cutoff headroom; identical thermal inputs have a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    HeadroomError,
    MemoryGuardError,
    RoundoffBudgetError,
    ValidationError,
)
from .fock import DensityOperator

ROUNDOFF_BUDGET = 1e-8
DEFAULT_HEADROOM_TOL = 1e-8
MEMORY_GUARD_DIM = 4096  # largest beam-splitter block side (product over modes) allocated


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

@lru_cache(maxsize=256)
def _bs_block(total: int, lo: int = 0) -> np.ndarray:
    """Block of exp((π/4)(a†b − ab†)) on |k, total−k⟩ for k = lo … total−lo
    (lo > 0 where a cutoff truncates the block). The block is real orthogonal.

    Its generator G has G[i+1, i] = −G[i, i+1] = √((k+1)(total−k)). With
    D = diag(iʲ), G = −i D S D† for the real symmetric tridiagonal S with the
    same off-diagonal, so exp((π/4)G) = D V exp(−iπΛ/4) Vᵀ D† from S = V Λ Vᵀ.
    """
    k = np.arange(lo, total - lo)
    off = np.sqrt((k + 1.0) * (total - k))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    v = v * (1j ** np.arange(len(w)))[:, None]
    u = ((v * np.exp(-0.25j * np.pi * w)) @ v.conj().T).real.copy()
    u.setflags(write=False)
    return u


def _sectors(dims: tuple[int, ...]):
    """Per-mode-total sectors T⃗ of two copies at per-mode cutoffs ``dims``:
    yields the flat indices of the copy-a states k⃗ and of the copy-b states
    T⃗−k⃗ (also the difference-mode index of the output states), and the
    (total, lo) key of each mode's block."""
    for totals in itertools.product(*(range(2 * d - 1) for d in dims)):
        keys = [(t, max(0, t - d + 1)) for t, d in zip(totals, dims)]
        ks = np.meshgrid(*(np.arange(lo, t - lo + 1) for t, lo in keys), indexing="ij")
        rows_a = np.ravel_multi_index(ks, dims).ravel()
        rows_b = np.ravel_multi_index([t - k for t, k in zip(totals, ks)], dims).ravel()
        yield rows_a, rows_b, keys


def _sector_unitary(keys) -> np.ndarray:
    return reduce(np.kron, (_bs_block(*key) for key in keys))


def _check_two_copy(rho_a: DensityOperator, rho_b: DensityOperator, tol: float) -> None:
    """Refuse inputs whose largest beam-splitter block exceeds the memory guard,
    or whose photon-number supports at tol/2 exceed s_a + s_b <= dim - 1 on some
    mode (then interference would spill past the cutoff)."""
    if rho_a.dims != rho_b.dims:
        raise ValidationError("inputs must share the same cutoff")
    if rho_a.dim > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"beam-splitter block side {rho_a.dim} exceeds memory guard {MEMORY_GUARD_DIM}")
    for mode, dim in enumerate(rho_a.dims):
        sa = rho_a.effective_support(tol / 2, mode)
        sb = rho_b.effective_support(tol / 2, mode)
        if sa + sb > dim - 1:
            raise HeadroomError(
                f"joint support {sa}+{sb} of mode {mode} exceeds cutoff headroom {dim - 1}")


def _output_diagonal(rho_a: DensityOperator, rho_b: DensityOperator,
                     headroom_tol: float) -> np.ndarray:
    """Diagonal of the difference-mode state Tr_a U(ρ_a⊗ρ_b)U†, flat, from the
    (T⃗, T⃗) blocks only. Blocks whose X_T is exactly zero are skipped; only the
    real part of the Hermitian X_T reaches the diagonal."""
    _check_two_copy(rho_a, rho_b, headroom_tol)
    a, b = rho_a.matrix, rho_b.matrix
    diag = np.zeros(rho_a.dim)
    for rows_a, rows_b, keys in _sectors(rho_a.dims):
        x = (a[np.ix_(rows_a, rows_a)] * b[np.ix_(rows_b, rows_b)]).real
        if x.any():
            u = _sector_unitary(keys)
            diag[rows_b] += np.einsum("ij,ij->i", u @ x, u)
    return diag


def _output_state(rho: DensityOperator, headroom_tol: float) -> DensityOperator:
    """Difference-mode state Tr_a U(ρ⊗ρ)U† from (T⃗, T⃗′) block pairs: only output
    rows sharing a copy-a index m⃗ survive the trace. For a positive ρ, X_{T,T′}
    vanishes unless both X_{T,T} and X_{T′,T′} carry mass."""
    _check_two_copy(rho, rho, headroom_tol)
    mat = rho.matrix
    live = [(ra, rb, _sector_unitary(keys)) for ra, rb, keys in _sectors(rho.dims)
            if (mat[np.ix_(ra, ra)] * mat[np.ix_(rb, rb)]).any()]
    out = np.zeros_like(mat)
    for s, (ra, rb, u) in enumerate(live):
        for ra2, rb2, u2 in live[s:]:
            _, i, i2 = np.intersect1d(ra, ra2, assume_unique=True, return_indices=True)
            if not i.size:
                continue
            x = mat[np.ix_(ra, ra2)] * mat[np.ix_(rb, rb2)]
            vals = np.einsum("ij,ij->i", u[i] @ x, u2[i2])
            out[rb[i], rb2[i2]] += vals
            if ra2 is not ra:  # the (T⃗′, T⃗) pair is the Hermitian conjugate
                out[rb2[i2], rb[i]] += vals.conj()
    return DensityOperator(0.5 * (out + out.conj().T), rho.dims,
                           trace_deficit=rho.trace_deficit)


# --- public two-copy paths ---

def two_copy_output(rho: DensityOperator, *,
                    headroom_tol: float = DEFAULT_HEADROOM_TOL) -> DensityOperator:
    """Difference-mode reduced state ρ_d = Tr_c(U_BS (ρ⊗ρ) U_BS†)."""
    if rho.n_modes != 1:
        raise ValidationError("two_copy_output expects a single-mode state")
    return _output_state(rho, headroom_tol)


def photon_distribution(rho_a: DensityOperator, rho_b: DensityOperator, *,
                        headroom_tol: float = DEFAULT_HEADROOM_TOL) -> PhotonDistribution:
    """p_n of the difference mode for two (possibly distinct) single-mode inputs."""
    if rho_a.n_modes != 1 or rho_b.n_modes != 1:
        raise ValidationError("photon_distribution expects single-mode states")
    return PhotonDistribution.from_values(_output_diagonal(rho_a, rho_b, headroom_tol))


# --- combinatorial fast path (phase-invariant states) ---

def hom_photon_distribution(big_n: int, big_np: int) -> np.ndarray:
    """p_n for Fock inputs |N⟩⊗|N′⟩: the squared column N of the block U_{N+N′}."""
    if big_n < 0 or big_np < 0:
        raise ValidationError("photon numbers must be non-negative")
    return _bs_block(big_n + big_np)[::-1, big_n] ** 2


def photon_distribution_phase_invariant(diag) -> PhotonDistribution:
    """p_n for a Fock-diagonal input ρ = Σ λ_m |m⟩⟨m| (two identical copies),
    p = Σ_T |U_T|² (λ_k λ_{T−k}) over untruncated blocks, so the input support
    needs no cutoff headroom."""
    lam = np.asarray(diag, dtype=float)
    if lam.min(initial=0.0) < -1e-12:
        raise ValidationError("diagonal weights must be non-negative")
    if lam.sum() > 1.0 + 1e-9:
        raise ValidationError("diagonal weights must sum to at most 1")
    top = int(np.nonzero(lam > 0)[0].max(initial=0))
    p = np.zeros(2 * top + 1)
    for total in range(2 * top + 1):
        ks = np.arange(max(0, total - top), min(total, top) + 1)
        weights = lam[ks] * lam[total - ks]
        if weights.any():
            # output row k leaves n = total - k photons in the difference mode
            p[total::-1] += _bs_block(total)[:, ks] ** 2 @ weights
    return PhotonDistribution.from_values(p)


def is_fock_diagonal(rho: DensityOperator, tol: float = 1e-12) -> bool:
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    return bool(np.max(np.abs(off), initial=0.0) <= tol)


def thermal_photon_distribution(q: float, n_max: int) -> PhotonDistribution:
    """Closed-form output for two identical thermal inputs: p_n = (1-q) qⁿ
    (a beam splitter maps a pair of identical thermal states to itself)."""
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"thermal parameter must satisfy 0 <= q < 1, got {q}")
    n = np.arange(n_max + 1)
    return PhotonDistribution(probs=(1.0 - q) * q ** n, deficit=q ** (n_max + 1))


# --- multimode stack ---

def multimode_two_copy_output(rho: DensityOperator, *,
                              headroom_tol: float = DEFAULT_HEADROOM_TOL) -> DensityOperator:
    """Pairwise 50:50 beam-splitter stack on two copies of an N-mode state,
    traced down to the N difference modes."""
    return _output_state(rho, headroom_tol)


def multimode_photon_distribution(rho: DensityOperator, *,
                                  headroom_tol: float = DEFAULT_HEADROOM_TOL) -> np.ndarray:
    """Joint photon-number distribution of the N difference modes (the diagonal
    of ``multimode_two_copy_output(rho)``), shaped ``rho.dims``."""
    return _output_diagonal(rho, rho, headroom_tol).reshape(rho.dims)
