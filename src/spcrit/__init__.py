"""Critical superprocesses on finite state spaces.

Spectral constants, the nonlinear log-Laplace evolution, moment formulas
and Monte Carlo simulation of the associated multitype continuous-state
branching process, with semi-analytic and statistical verification of the
survival-rate, conditional-exponential and central limit theorems.
"""

from .model import (
    BranchingData,
    DerivedCoefficients,
    ModelError,
    ParseError,
    SpatialGenerator,
    StateSpace,
    SuperprocessModel,
    as_field,
    as_measure,
    as_times,
    check_dual_submarkov,
    check_grey_domination,
    derived_coefficients,
    dump_model,
    load_model,
    load_model_file,
    m_inner,
    pairing,
    validate_model,
)
from .spectral import (
    MeanSemigroup,
    NotCriticalError,
    SpectralData,
    SpectralError,
    criticalize,
    fluctuation_variance,
    nu,
    remove_principal_component,
    spectral_data,
)
from .loglaplace import (
    LadderError,
    LogLaplaceTrajectory,
    SolverError,
    branching_mechanism,
    kolmogorov_table,
    mechanism_remainders,
    neg_log_extinction,
    solve_log_laplace,
    survival_probability,
    yaglom_transform,
)
from .moments import (
    first_moment,
    second_moment,
    variance,
    variance_from_transform,
    variance_limit_check,
)
from .montecarlo import (
    CltReport,
    ConditionalSamples,
    KsResult,
    LimitLaw,
    PathEnsemble,
    SimConfig,
    clt_checks,
    conditional_statistics,
    ks_exponential_test,
    simulate_paths,
)

__version__ = "0.1.0"
