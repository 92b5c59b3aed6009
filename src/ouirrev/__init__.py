"""Toolkit for linear stochastic systems dx/dt = -B x + Gamma xi(t):
classification (sweeping / reversible / irreversible), stationary and
transient Gaussian laws, entropy production and heat dissipation, both
fluctuation-dissipation relations, exact trajectory sampling, and Monte Carlo
verification of the analytic predictions.

Each public name is imported from its home module on first use, so
``import ouirrev`` loads no submodule, and a command of the CLI loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Home module of each public name.
_HOMES = {
    "estimators": "PathStatistics greenkubo_check reversibility_test stationary_statistics",
    "exceptions": "DegenerateModelError InsufficientDataError ModelValidationError "
    "NoStationaryLawError NotPositiveDefiniteError NumericalFailureError "
    "PotentialUndefinedError UndefinedEntropyError",
    "linalg": "Spectrum chol_spd eig expm gram_integral is_spd solve_lyapunov sym_defect",
    "model": "Classification LinearModel Verdict build_model classify",
    "sampler": "path_stream stream_batch",
    "stationary": "ForceFlux StationaryLaw force_flux stationary_density stationary_law "
    "two_time_covariance",
    "transient": "GaussianState ThermoSnapshot entropy free_energy instantaneous_rates potential "
    "propagate transition_density",
}
_HOME = {name: home for home, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
