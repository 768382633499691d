"""Eigenvalues and resonances of 1D and radial s-wave Schrodinger operators
with piecewise-constant complex potentials, and construction of sparse
complex potentials with prescribed eigenvalues."""

from .errors import (
    ContourError,
    ConvergenceError,
    NonSummableError,
    PoleProximityError,
    SchemaError,
    SheetError,
    StepSpectraError,
    UnsupportedDomainError,
)
from .schrodinger_1d import (
    PiecewisePotential,
    global_secular,
    make_secular_handle,
    reconstruct_eigenfunction,
)
from .sparse_builder import (
    EnvelopeParams,
    SeparationSequence,
    TargetSequence,
    M_pq,
    M_pq_L,
    assemble_sparse,
    choose_L,
    h_L,
    kappa_alpha,
    kappa_tilde,
    magnitude_check,
    omega_q,
    s_of_L_z,
    sep,
    sequence_condition_value,
    strong_separation_check,
)
from .special_functions import (
    branch_of_w,
    lambert_w,
    lambert_w_seed,
    sqrt_upper,
)
from .spectral_count import (
    BranchResult,
    CensusResult,
    Region,
    SolverStats,
    ZeroReport,
    imag_step_census,
    enumerate_imag_step,
    imag_step_seed,
    locate_zeros,
    winding_count,
)
from .step_model import (
    BumpReport,
    StepBump,
    bump_norm_lq,
    chi_match,
    construct_bump,
    davies_nath,
    energy,
    radial_secular,
    secular_entire,
    solve_for_v0,
)

__version__ = "0.1.0"
