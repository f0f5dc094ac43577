"""qcslab: numerical laboratory for the two-copy interferometric measurement
of the quadrature coherence scale (QCS) of bosonic states."""

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
from .phase_space import overlap_kernel, qcs_wigner_gradient
from .sampling import SampledEstimate, ShotRecord, estimate_qcs, sample_counts
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
