"""Toolkit for linear stochastic systems dx/dt = -B x + Gamma xi(t):
classification (sweeping / reversible / irreversible), stationary and
transient Gaussian laws, entropy production and heat dissipation, both
fluctuation-dissipation relations, exact trajectory sampling, and Monte Carlo
verification of the analytic predictions.
"""

from .estimators import (
    PathStatistics,
    greenkubo_check,
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
from .model import Classification, LinearModel, Verdict, build_model, classify
from .sampler import path_stream, stream_batch
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
    "UndefinedEntropyError",
    "Verdict",
    "build_model",
    "chol_spd",
    "classify",
    "eig",
    "entropy",
    "expm",
    "force_flux",
    "free_energy",
    "gram_integral",
    "greenkubo_check",
    "instantaneous_rates",
    "is_spd",
    "path_stream",
    "potential",
    "propagate",
    "reversibility_test",
    "solve_lyapunov",
    "stationary_density",
    "stationary_law",
    "stationary_statistics",
    "stream_batch",
    "sym_defect",
    "transition_density",
    "two_time_covariance",
]
