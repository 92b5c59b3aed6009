"""Stationary Gaussian law of a non-sweeping model and the stationary
thermodynamic quantities built on it: covariance, entropy production rate,
heat dissipation rate, affinity/flux, fluctuation-dissipation residuals,
two-time covariance.

The law is P = N(0, Xi) with B Xi + Xi B^T = A. Its entropy production and
heat dissipation rates are the transient rates at that law, read from the
transient Gaussian-moment kernel (transient._moment_rates) at mean 0, cov Xi:

    epr = (1/2) tr(M^T A M Xi),        M = 2 A^{-1} B - Xi^{-1}
    hdr = 2 tr(B^T A^{-1} B Xi) - tr(B)

Both are cross-validated against quadrature of the defining integrals in the
test suite. A^{-1} B is the one build_model solved for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import NoStationaryLawError
from .model import Classification, LinearModel, Verdict, classify
from .transient import _moment_rates


@dataclass(frozen=True, eq=False)
class StationaryLaw:
    """Stationary Gaussian law N(0, Xi) plus cached derived quantities."""

    model: LinearModel
    Xi: np.ndarray
    Xi_inv: np.ndarray
    epr: float
    hdr: float  # equals epr: no entropy change in a stationary state
    fdr_standard_residual: float
    fdr_strong_residual: float
    classification: Classification
    chol_Xi: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ForceFlux:
    """Thermodynamic force and probability flux per unit density at a point."""

    affinity: np.ndarray
    flux: np.ndarray
    mechanical_force: np.ndarray


def stationary_law(model: LinearModel) -> StationaryLaw:
    """Construct the stationary law by solving B Xi + Xi B^T = A.

    Raises
    ------
    NoStationaryLawError
        For sweeping models, which have no integrable stationary density;
        the exception carries the model's classification.
    """
    cls = classify(model)
    if cls.verdict is Verdict.SWEEPING:
        raise NoStationaryLawError(
            "model is sweeping (eigenvalue real part <= 0); no stationary law exists",
            classification=cls,
        )
    xi = linalg.solve_lyapunov(model.B, model.A)
    chol = linalg.chol_spd(xi)
    xi_inv = np.linalg.solve(xi, np.eye(model.n))
    xi_inv = 0.5 * (xi_inv + xi_inv.T)
    epr, hdr = _moment_rates(model, np.zeros(model.n), xi, xi_inv)
    a_norm = float(np.linalg.norm(model.A))
    standard = float(np.linalg.norm(model.B @ xi + xi @ model.B.T - model.A)) / (1.0 + a_norm)
    strong = float(np.linalg.norm(model.A - 2.0 * model.B @ xi)) / (1.0 + a_norm)
    return StationaryLaw(
        model=model,
        Xi=xi,
        Xi_inv=xi_inv,
        epr=float(epr),
        hdr=float(hdr),
        fdr_standard_residual=standard,
        fdr_strong_residual=strong,
        classification=cls,
        chol_Xi=chol,
    )


def two_time_covariance(law: StationaryLaw, tau: float) -> np.ndarray:
    """Stationary two-time covariance R(tau) = E[x(t + tau) x(t)^T].

    R(tau) = e^{-B tau} Xi for tau >= 0 and R(-tau) = R(tau)^T.
    """
    tau = float(tau)
    if tau >= 0.0:
        return linalg.expm(-law.model.B * tau) @ law.Xi
    return law.Xi @ linalg.expm(-law.model.B.T * (-tau))


def force_flux(law: StationaryLaw, x) -> ForceFlux:
    """Thermodynamic force (affinity), flux per unit density, and mechanical
    force at state x.

    affinity Pi(x) = 2 A^{-1} b(x) - grad log P(x) = -M x with
    M = 2 A^{-1} B - Xi^{-1}; the probability flux is J = (P/2) A Pi,
    returned here per unit density as (1/2) A Pi.
    """
    xv = linalg._as_vector(x, law.model.n, "state")
    affinity = -((2.0 * law.model.ainv_b - law.Xi_inv) @ xv)
    mechanical = -2.0 * (law.model.ainv_b @ xv)
    flux = 0.5 * (law.model.A @ affinity)
    return ForceFlux(affinity=affinity, flux=flux, mechanical_force=mechanical)


def stationary_density(law: StationaryLaw, x) -> float:
    """Stationary Gaussian density at x with the standard normalization
    (2 pi)^{-n/2} det(Xi)^{-1/2}."""
    n = law.model.n
    xv = linalg._as_vector(x, n, "state")
    quad = float(xv @ law.Xi_inv @ xv)
    logdet = 2.0 * float(np.sum(np.log(np.diag(law.chol_Xi))))
    return float(np.exp(-0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)))
