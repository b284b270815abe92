"""Solver for the 2D anisotropic edge-plasma potential model.

The package builds two discretizations of the same nonlinear evolution
problem: a coupled micro-macro scheme in (phi, q) that stays well-posed as
the parallel resistivity eta tends to zero, and the direct single-field
scheme that carries 1/eta.  Verification studies (mesh convergence against
manufactured solutions, decay of phi_eta toward the eta = 0 limit, and
condition-number behaviour of the constant system matrix) are provided as
library drivers and as a command line tool.
"""

from .assembly import (
    Forcing,
    System,
    ZERO_FORCING,
    assemble_ap_rhs,
    build_system,
    micro_macro_deviation,
    write_matrix_market,
)
from .geometry import (
    ColumnBlocks,
    DiscConfig,
    Grid,
    PhysConfig,
    build_grid,
    config_violations,
    validate_config,
)
from .linsolve import (
    CondEstimate,
    LUFactors,
    estimate_cond2,
    lu_factorize,
    lu_solve,
    ruiz_scalings,
)
from .manufactured import (
    ManufacturedSolution,
    corrected_mms,
    eq4_source,
    literal_mms,
    mms_phi,
    mms_q,
    mms_source,
    sheath_residuals,
    smooth_mms,
)
from .stencils import dx_central_row, dxx_row, dyy_row, dyyyy_row
from .timeloop import State, init_state, run, step
from .verification import (
    AmplificationEstimate,
    CondRow,
    CondStudy,
    ConvergenceRow,
    ConvergenceStudy,
    EtaRow,
    EtaStudy,
    TimeNormObserver,
    amplification_factor,
    l2_norm,
    run_condition_study,
    run_eta_sweep,
    run_mms_convergence,
    time_norms,
    validate_compatibility,
)

__version__ = "0.1.0"
