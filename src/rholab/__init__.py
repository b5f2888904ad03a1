"""rholab: a finite-dimensional density-operator laboratory.

Dense complex linear algebra, spin-1/2 and spin-1 operators, density
operators and proper mixtures, bipartite entanglement and partial traces,
singlet/CHSH/GHZ statistics, von Neumann entropy, and completely positive
maps with a Lindblad integrator.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bell import (
    DetectorPair,
    FilterInequalityReport,
    GhzReport,
    NoCloningReport,
    chsh_value,
    empirical_correlation,
    filter_inequality_demo,
    ghz_check,
    ghz_state,
    joint_outcome_probabilities,
    joint_up_probability,
    maximal_chsh_orientations,
    no_cloning_demo,
    pair_operator,
    sample_events,
    singlet_correlation,
    singlet_variance,
)
from .bipartite import (
    BipartiteKet,
    BipartiteSpace,
    SchmidtForm,
    local_measurement,
    measurement_probabilities,
    no_signalling_check,
    overlap_residue,
    partial_trace_a,
    partial_trace_b,
    product_state,
    schmidt,
    singlet,
)
from .channels import (
    EigenmatrixDecomposition,
    KrausChannel,
    LindbladGenerator,
    LindbladSample,
    Superoperator,
    eigenmatrix_decompose,
    evolve_lindblad,
    generator_matrix,
    kraus_from_decomposition,
    lindblad_apply,
    lindblad_spectrum,
    superop_from_kraus,
)
from .density import (
    DensityOperator,
    GramFactor,
    ProperMixture,
    evolve_unitary,
    expectation,
    gram_factor,
    measurement_channel,
    mixture_to_density,
    purity,
    remix,
)
from .entropy import (
    entropy_production,
    entropy_rate_hamiltonian,
    jump_entropy_rate,
    von_neumann_entropy,
)
from .errors import (
    DomainError,
    IntegrationError,
    NotCompletelyPositiveError,
    ShapeError,
    ValidationError,
)
from .linalg import (
    HermitianEig,
    adjoint,
    apply_matrix_function,
    dyad,
    hermitian_eig,
    kron,
    matmul,
    projector,
    trace,
)
from .spin import (
    SpinHalfBasis,
    SpinOneSet,
    UnitVector3,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    pauli,
    sigma_n,
    sigma_n_eigenkets,
    simultaneous_eigenbasis,
    spin_half_basis,
    spin_one_set,
)

# Export every name imported above; the imports also bind the submodules,
# which are not part of the star-import surface.
__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
