"""Desk-scale simulator for a microscopic system colliding with a heavy
apparatus: split-step propagation, product-form approximations, Schmidt
branches, and density-matrix comparisons."""

__version__ = "0.1.0"

from .errors import FrameSimError, PropagationError, SpaceMismatchError, ValidationError
from .hilbert import (
    Factor,
    GaussianParams,
    Grid,
    Space,
    StateVector,
    inner_product,
    level_state,
    make_gaussian,
    superpose,
    tensor_product,
)
from .dynamics import (
    HamiltonianSpec,
    Interaction,
    PropagationResult,
    evolve_exact,
    evolve_factorized,
    factorization_residual,
    fidelity_deficit,
    gaussian_profile,
    interaction_energy,
    total_energy,
)
from .schmidt import (
    Bipartition,
    BranchSampler,
    SchmidtResult,
    entanglement_entropy,
    schmidt_decompose,
)
from .frames import (
    DensityMatrix,
    ExtractionResult,
    extract_relative_state,
    lift_to_auxiliary,
    mixed_density_matrix,
    reduced_density_matrix,
    trace_distance,
    transform_to_intrinsic,
)
from .scenarios import (
    PartitionGeometry,
    PartitionReport,
    ScenarioConfig,
    detect_partition,
    run_collision,
    run_position_measurement,
    run_scenario,
)

__all__ = [name for name in dir() if not name.startswith("_")]
