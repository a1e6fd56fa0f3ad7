"""quditgeom: geometry of diagonal qudit density matrices.

The package exposes three coordinate systems for diagonal states
(probability simplex, diagonal Bloch coefficients, trace-power
invariants) with the exact maps between them, Gibbs thermal states and
trajectories, angular-momentum and Lipkin-Meshkov-Glick spectra with
their phase diagrams, and generators for the constant-invariant loci and
boundary curves of the qutrit and ququart.  The ``quditgeom`` command
line tool exports any of these datasets to CSV or JSON.
"""

from .basis import GeneratorSet, SimplexFrame, bloch_bound, build_generators, simplex_frame
from .config import DEFAULT, Tolerances
from .curves import (
    ParamCurve,
    SurfaceMesh,
    constant_invariant_surface_ququart,
    constant_t2_locus,
    constant_t3_locus_qutrit,
    lambda_segment_images,
    permutation_images,
    qutrit_t3_radius,
    simplex_edges,
    simplex_medians,
    t_space_boundary_qutrit,
)
from .errors import DimensionError, PositivityError
from .linalg import real_roots
from .models import (
    AngularMomentum,
    LMGParams,
    PhaseGrid,
    PhasePoint,
    PhaseRegion,
    angular_momentum,
    classify_region,
    direction_hamiltonian,
    label_ordered_occupations,
    linear_spectrum,
    lmg_hamiltonian,
    lmg_spectrum,
    phase_grid,
    phase_sweep,
    separatrix,
)
from .representations import (
    DegeneracyPattern,
    PositivityResult,
    SimplexPoint,
    check_probability_vector,
    diagonal_coefficients,
    invariants,
    lambda_to_p,
    orbit_classification,
    p_to_lambda,
    polar_to_p,
    positivity_check,
    t_vertices,
    transformation_matrices,
)
from .thermal import (
    Spectrum,
    ThermalState,
    ThermalTrajectory,
    default_beta_grid,
    endpoint_state,
    gibbs_state,
    trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT",
    "Tolerances",
    "DimensionError",
    "PositivityError",
    "GeneratorSet",
    "SimplexFrame",
    "build_generators",
    "simplex_frame",
    "bloch_bound",
    "DegeneracyPattern",
    "SimplexPoint",
    "PositivityResult",
    "check_probability_vector",
    "diagonal_coefficients",
    "transformation_matrices",
    "p_to_lambda",
    "lambda_to_p",
    "invariants",
    "t_vertices",
    "polar_to_p",
    "positivity_check",
    "orbit_classification",
    "Spectrum",
    "ThermalState",
    "ThermalTrajectory",
    "gibbs_state",
    "endpoint_state",
    "trajectory",
    "default_beta_grid",
    "AngularMomentum",
    "LMGParams",
    "PhaseRegion",
    "PhasePoint",
    "PhaseGrid",
    "angular_momentum",
    "linear_spectrum",
    "direction_hamiltonian",
    "label_ordered_occupations",
    "lmg_hamiltonian",
    "lmg_spectrum",
    "separatrix",
    "classify_region",
    "phase_grid",
    "phase_sweep",
    "ParamCurve",
    "SurfaceMesh",
    "simplex_edges",
    "simplex_medians",
    "constant_t2_locus",
    "qutrit_t3_radius",
    "constant_t3_locus_qutrit",
    "constant_invariant_surface_ququart",
    "t_space_boundary_qutrit",
    "lambda_segment_images",
    "permutation_images",
    "real_roots",
]
