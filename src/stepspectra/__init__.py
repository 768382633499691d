"""Eigenvalues and resonances of 1D and radial s-wave Schrodinger operators
with piecewise-constant complex potentials, and construction of sparse
complex potentials with prescribed eigenvalues."""

import importlib

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
    PiecewisePotential, global_secular, make_secular_handle, reconstruct_eigenfunction)
from .special_functions import branch_of_w, lambert_w, sqrt_upper
from .spectral_count import (
    BranchResult,
    CensusList,
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

# the sparse construction loads on first use of one of its names, so the
# commands that never build a sparse potential do not compile it
_SPARSE_NAMES = frozenset((
    "EnvelopeParams", "SeparationSequence", "TargetSequence", "M_pq", "M_pq_L", "assemble_sparse",
    "choose_L", "h_L", "kappa_alpha", "kappa_tilde", "magnitude_check", "omega_q", "s_of_L_z",
    "sep", "sequence_condition_value", "strong_separation_check"))


def __getattr__(name):
    if name == "sparse_builder" or name in _SPARSE_NAMES:
        # import_module, not "from . import": the fromlist handling asks
        # hasattr of this package, which would land here again without end
        module = importlib.import_module(".sparse_builder", __name__)
        return module if name == "sparse_builder" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SPARSE_NAMES | {"sparse_builder"})
