"""Ground-state phase diagrams of n-level atoms coupled to multiple
radiation modes.

The library pairs two independent routes to the same physics: closed-form
coherent-state variational critical points (`variational`, `phasemap`,
`observables`, `symmetries`) and exact diagonalization on a truncated,
parity-blocked Fock basis (`quantum`).  The exact energy lower-bounds the
variational one at every coupling, which the test suite exploits throughout.
"""

from .model import (
    AtomicSystem,
    InvalidSystemError,
    Transition,
    ValidationReport,
    cascade_system,
    lambda_system,
    lmax,
    require_valid,
    validate,
    vee_system,
)
from .variational import (
    FieldAmplitudes,
    MatterAmplitudes,
    StateRecipe,
    VariationalCandidate,
    candidates,
    condensate,
    energy_surface_full,
    gradient,
    minimize,
    minimize_numeric,
    photon_stationary_r,
    reduced_energy,
    variational_state_params,
)
from .phasemap import (
    PhaseGrid,
    SeparatrixCurve,
    collective_boundary,
    ehrenfest_probe,
    normal_boundary,
    plane_boundaries,
    scan_grid,
    transition_order,
)
from .observables import (
    ObservableSet,
    expectations,
    matter_distribution,
    photon_distribution,
    universal_relation_residual,
)
from .symmetries import (
    WeightError,
    charges,
    excitation_weights,
    rwa_rescale,
)
from .quantum import (
    BudgetError,
    FockKet,
    QuantumGroundResult,
    SolverConfig,
    SymmetrySector,
    TruncatedBasis,
    build_basis,
    build_hamiltonian,
    converge_cutoff,
    delta_nu,
    ground_state,
    split_sectors,
    suggest_cutoffs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
