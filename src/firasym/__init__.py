"""Regularized FIR identification with marginal-likelihood hyper-parameter
tuning, closed-form asymptotic limit quantities, and a seeded Monte-Carlo
verification harness."""

__version__ = "0.1.0"

import os as _os

# One BLAS/OpenMP thread unless the caller set a count: firasym's matrices
# are small (n <= ~100), where a threaded BLAS is slower, and `mc --threads K`
# then runs K single-threaded workers.  This must run before the submodules
# import numpy; a numpy imported earlier keeps the thread count it started with.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_name, "1")

from .asymptotics import (
    AsymptoticReport,
    SecondOrderStats,
    asymptotic_report,
    c_gamma,
    eta_star,
    ridge_report,
    second_order_stats,
    sigma_matrix,
    hyper_parameter_law,
    ls_error_covariances,
    regularized_error_moments,
)
from .errors import (
    ConfigError,
    DegenerateTruthError,
    FirasymError,
    NotPositiveDefiniteError,
    OutOfBoxError,
    RankDeficientError,
)
from .estimators import (
    EbFit,
    KernelSpec,
    OptimizerOptions,
    OptimizerStats,
    eb_cost,
    eb_estimate,
    kernel_matrix,
    ls_estimate,
    minimize_box,
    noise_variance_estimate,
    rls_estimate,
)
from .montecarlo import (
    AggregateMetrics,
    ExperimentConfig,
    ExperimentOutcome,
    RecordResult,
    compare_amse,
    fit_g,
    run_experiment,
    table1,
)
from .signals import (
    Dataset,
    FilterSpec,
    FirSystem,
    NoiseSpec,
    SecondOrderAR,
    autocovariance,
    build_dataset,
    derive_stream,
    generate_input,
    generate_t1,
    generate_t2,
    lag_matrix,
)
