"""qcslab: numerical laboratory for the two-copy interferometric measurement
of the quadrature coherence scale (QCS) of bosonic states.

The exports of ``phase_space`` and ``sampling`` are imported on first use
(PEP 562 ``__getattr__``), so a process that reads neither does not compile
them; every other export is imported with the package.
"""

from .errors import (
    CutoffError,
    DegenerateDenominatorError,
    GridError,
    MemoryGuardError,
    QcslabError,
    RoundoffBudgetError,
    ValidationError,
)
from .estimators import (
    QcsEstimate,
    overlap_gaussian,
    purity_from_pn,
    purity_gaussian,
    qcs_classical_mixture,
    qcs_direct,
    qcs_gaussian,
    qcs_multimode,
    qcs_pure_shortcut,
    qcs_two_copy,
    qcs_wigner_laplacian,
)
from .fock import (
    DensityOperator,
    purity_direct,
    tensor,
)
from .interferometer import (
    PhotonDistribution,
    hom_photon_distribution,
    photon_distribution,
    photon_distribution_phase_invariant,
    thermal_photon_distribution,
)
from .states import (
    ClassicalMixture,
    CovarianceMatrix,
    StateSpec,
    build_state,
    classical_mixture,
    coherent,
    displace,
    fock,
    gaussian_covariance,
    phase_rotate,
    rho_2m,
    rho_even_m,
    squeezed_vacuum,
    thermal,
)

__version__ = "0.1.0"

# each export imported on first use, and the module that defines it
_ON_FIRST_USE = {"overlap_kernel": "phase_space", "qcs_wigner_gradient": "phase_space",
                 "SampledEstimate": "sampling", "ShotRecord": "sampling",
                 "estimate_qcs": "sampling", "sample_counts": "sampling"}

__all__ = [
    "CutoffError", "DegenerateDenominatorError", "GridError", "MemoryGuardError",
    "QcslabError", "RoundoffBudgetError", "ValidationError",
    "QcsEstimate", "overlap_gaussian", "purity_from_pn", "purity_gaussian",
    "qcs_classical_mixture", "qcs_direct", "qcs_gaussian", "qcs_multimode",
    "qcs_pure_shortcut", "qcs_two_copy", "qcs_wigner_laplacian",
    "DensityOperator", "purity_direct", "tensor",
    "PhotonDistribution", "hom_photon_distribution", "photon_distribution",
    "photon_distribution_phase_invariant", "thermal_photon_distribution",
    "ClassicalMixture", "CovarianceMatrix", "StateSpec", "build_state", "classical_mixture",
    "coherent", "displace", "fock", "gaussian_covariance", "phase_rotate", "rho_2m",
    "rho_even_m", "squeezed_vacuum", "thermal",
    *_ON_FIRST_USE,
]


def __getattr__(name: str):
    """An export of ``phase_space`` or ``sampling``, importing its module."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_ON_FIRST_USE[name]}"), name)
