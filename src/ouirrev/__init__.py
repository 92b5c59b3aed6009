"""Toolkit for linear stochastic systems dx/dt = -B x + Gamma xi(t):
classification (sweeping / reversible / irreversible), stationary and
transient Gaussian laws, entropy production and heat dissipation, both
fluctuation-dissipation relations, exact trajectory sampling, and Monte Carlo
verification of the analytic predictions.
"""

from .estimators import (
    PathStatistics,
    greenkubo_check,
    hdr_estimate,
    path_statistics,
    reversibility_test,
    stationary_statistics,
)
from .exceptions import (
    DegenerateModelError,
    InsufficientDataError,
    ModelValidationError,
    NoStationaryLawError,
    NotPositiveDefiniteError,
    NumericalFailureError,
    PotentialUndefinedError,
    UndefinedEntropyError,
)
from .linalg import Spectrum, chol_spd, eig, expm, gram_integral, is_spd, solve_lyapunov, sym_defect
from .model import Classification, LinearModel, Verdict, build_model, classify, drift
from .sampler import (
    ExactStepper,
    Trajectory,
    TrajectoryBatch,
    euler_maruyama_path,
    make_exact_stepper,
    path_stream,
    sample_batch,
    sample_path,
    sample_stationary_start,
)
from .stationary import (
    ForceFlux,
    StationaryLaw,
    force_flux,
    stationary_density,
    stationary_law,
    two_time_covariance,
)
from .transient import (
    GaussianState,
    ThermoSnapshot,
    entropy,
    free_energy,
    instantaneous_rates,
    potential,
    propagate,
    transition_density,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "DegenerateModelError",
    "ExactStepper",
    "ForceFlux",
    "GaussianState",
    "InsufficientDataError",
    "LinearModel",
    "ModelValidationError",
    "NoStationaryLawError",
    "NotPositiveDefiniteError",
    "NumericalFailureError",
    "PathStatistics",
    "PotentialUndefinedError",
    "Spectrum",
    "StationaryLaw",
    "ThermoSnapshot",
    "Trajectory",
    "TrajectoryBatch",
    "UndefinedEntropyError",
    "Verdict",
    "build_model",
    "chol_spd",
    "classify",
    "drift",
    "eig",
    "entropy",
    "euler_maruyama_path",
    "expm",
    "force_flux",
    "free_energy",
    "gram_integral",
    "greenkubo_check",
    "hdr_estimate",
    "instantaneous_rates",
    "is_spd",
    "make_exact_stepper",
    "path_statistics",
    "path_stream",
    "potential",
    "propagate",
    "reversibility_test",
    "sample_batch",
    "sample_path",
    "sample_stationary_start",
    "solve_lyapunov",
    "stationary_density",
    "stationary_law",
    "stationary_statistics",
    "sym_defect",
    "transition_density",
    "two_time_covariance",
]
