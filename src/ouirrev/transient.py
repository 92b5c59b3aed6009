"""Exact time-dependent Gaussian law of the process and the thermodynamic
functionals along it: entropy, free energy, instantaneous entropy production
and heat dissipation rates, entropy balance.

The law at time t started from the point x0 is Gaussian with

    mean(t) = e^{-B t} x0,    cov(t) = integral_0^t e^{-B s} A e^{-B^T s} ds,

valid for any B, including sweeping models. propagate evaluates it at one
time. On a uniform grid t_k = k h, propagate_grid steps the same law by its
exact one-step recursion (the Markov property)

    mean <- Phi mean,    cov <- Phi cov Phi^T + Sigma_h,
    Phi = e^{-B h},      Sigma_h = cov(h),

so each kernel runs once per grid rather than once per row. The stepped grid
is deterministic and agrees with per-row propagate to a normwise relative
1e-9 or better.

Instantaneous rates are Gaussian moment evaluations of the stationary-theory
integrands at the time-t law (mean mu, covariance C); with
M_t = 2 A^{-1} B - C^{-1},

    epr(t) = (1/2) tr(M_t^T A M_t C) + 2 mu^T B^T A^{-1} B mu
    hdr(t) = 2 tr(B^T A^{-1} B C) - tr(B) + 2 mu^T B^T A^{-1} B mu

so the entropy rate epr - hdr is mean-independent, matching
d/dt e[P] = (1/2) tr(C^{-1} Cdot). Both forms are quadrature-validated in the
test suite. The factors that depend only on the model (A^{-1} B, B^T A^{-1} B,
tr B, the verdict and the potential matrix) are computed once by rate_factors
and reused for every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import (
    NotPositiveDefiniteError,
    NumericalFailureError,
    PotentialUndefinedError,
    UndefinedEntropyError,
)
from .model import LinearModel, Verdict, classify


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Law of the process at a fixed time: mean vector and covariance matrix."""

    t: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ThermoSnapshot:
    """Thermodynamic functionals of a Gaussian state.

    free_energy is defined only for reversible models and is None otherwise;
    entropy_rate always equals epr_t - hdr_t.
    """

    t: float
    entropy: float
    free_energy: float | None
    epr_t: float
    hdr_t: float
    entropy_rate: float


def propagate(model: LinearModel, x0, t: float) -> GaussianState:
    """Law at time t >= 0 started from the point x0 (any model, sweeping included)."""
    xv = np.asarray(x0, dtype=float)
    if xv.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},), got {xv.shape}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    mean = linalg.expm(-model.B * t) @ xv
    cov = linalg.gram_integral(model.B, model.A, t)
    return GaussianState(t=t, mean=mean, cov=cov)


def propagate_grid(model: LinearModel, x0, t_step: float, n_rows: int) -> list[GaussianState]:
    """Laws at t_k = k * t_step for k = 0 .. n_rows - 1, started from the point x0.

    Steps mean <- Phi mean, cov <- Phi cov Phi^T + Sigma_h from mean = x0,
    cov = 0, with Phi and Sigma_h computed once. cov is symmetrized after every
    step, so rounding cannot accumulate an asymmetry over thousands of steps.

    Raises
    ------
    NumericalFailureError
        As soon as the mean or covariance overflows (sweeping models on long
        grids).
    """
    xv = np.asarray(x0, dtype=float)
    if xv.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},), got {xv.shape}")
    h = float(t_step)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"time step must be finite and > 0, got {h}")
    if n_rows < 1:
        raise ValueError(f"grid needs at least one row, got {n_rows}")
    phi = linalg.expm(-model.B * h)
    sigma = linalg.gram_integral(model.B, model.A, h)
    mean, cov = xv.copy(), np.zeros((model.n, model.n))
    states = [GaussianState(t=0.0, mean=mean, cov=cov)]
    # Overflow is detected by the finiteness check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_rows):
            mean = phi @ mean
            cov = phi @ cov @ phi.T + sigma
            cov = 0.5 * (cov + cov.T)
            if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
                raise NumericalFailureError(f"transient law overflows at t = {k * h!r}")
            states.append(GaussianState(t=k * h, mean=mean, cov=cov))
    return states


def _chol_cov(cov: np.ndarray) -> np.ndarray:
    try:
        return linalg.chol_spd(cov)
    except NotPositiveDefiniteError as exc:
        raise UndefinedEntropyError("state covariance is singular (point mass)") from exc


def transition_density(model: LinearModel, x, t: float, x0) -> float:
    """Transition density p(x, t | x0) for t > 0, standard Gaussian normalization."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"transition density requires t > 0, got {t}")
    state = propagate(model, x0, t)
    xv = np.asarray(x, dtype=float)
    if xv.shape != (model.n,):
        raise ValueError(f"state must have shape ({model.n},), got {xv.shape}")
    low = _chol_cov(state.cov)
    # Solve L y = (x - mean); the quadratic form is then |y|^2.
    y = np.linalg.solve(low, xv - state.mean)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    return float(
        np.exp(-0.5 * float(y @ y) - 0.5 * logdet - 0.5 * model.n * math.log(2.0 * math.pi))
    )


def entropy(state: GaussianState) -> float:
    """Differential entropy (n/2)(1 + log 2 pi) + (1/2) log det cov.

    Raises UndefinedEntropyError for singular covariance (e.g. t = 0) rather
    than returning -inf.
    """
    low = _chol_cov(state.cov)
    n = state.cov.shape[0]
    return 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + float(np.sum(np.log(np.diag(low))))


@dataclass(frozen=True, eq=False)
class RateFactors:
    """The model-only factors of the instantaneous rates, computed once.

    S = sym(A^{-1} B) is the potential matrix, so that U(x) = x^T S x and
    2 A^{-1} b(x) = -grad U(x) hold exactly for b(x) = -B x; it is None unless
    the model is reversible.
    """

    A: np.ndarray
    ainv_b: np.ndarray
    bt_ainv_b: np.ndarray
    trace_b: float
    verdict: Verdict
    S: np.ndarray | None

    def rates(self, state: GaussianState) -> ThermoSnapshot:
        """Entropy, instantaneous epr/hdr, and their balance at a Gaussian state.

        Raises UndefinedEntropyError for singular covariance, as entropy does.
        """
        ent = entropy(state)
        n = state.cov.shape[0]
        cov_inv = np.linalg.solve(state.cov, np.eye(n))
        cov_inv = 0.5 * (cov_inv + cov_inv.T)
        m_t = 2.0 * self.ainv_b - cov_inv
        mean_term = 2.0 * float(state.mean @ self.bt_ainv_b @ state.mean)
        epr_t = 0.5 * float(np.trace(m_t.T @ self.A @ m_t @ state.cov)) + mean_term
        epr_t = max(epr_t, 0.0)
        hdr_t = 2.0 * float(np.trace(self.bt_ainv_b @ state.cov)) - self.trace_b + mean_term
        psi = None
        if self.S is not None:
            s = self.S
            psi = float(np.trace(s @ state.cov)) + float(state.mean @ s @ state.mean) - ent
        return ThermoSnapshot(
            t=state.t,
            entropy=ent,
            free_energy=psi,
            epr_t=epr_t,
            hdr_t=hdr_t,
            entropy_rate=epr_t - hdr_t,
        )


def rate_factors(model: LinearModel) -> RateFactors:
    """Classify the model once and precompute what every rate evaluation reuses."""
    verdict = classify(model).verdict
    ainv_b = np.linalg.solve(model.A, model.B)
    s = 0.5 * (ainv_b + ainv_b.T) if verdict is Verdict.REVERSIBLE else None
    return RateFactors(
        A=model.A,
        ainv_b=ainv_b,
        bt_ainv_b=model.B.T @ ainv_b,
        trace_b=float(np.trace(model.B)),
        verdict=verdict,
        S=s,
    )


def _potential_matrix(model: LinearModel) -> np.ndarray:
    """Symmetric S of the potential U(x) = x^T S x (see RateFactors)."""
    s = rate_factors(model).S
    if s is None:
        raise PotentialUndefinedError(
            "free energy requires a reversible model (force has no potential otherwise)"
        )
    return s


def potential(model: LinearModel, x) -> float:
    """Potential U(x) = x^T A^{-1} B x of a reversible model."""
    xv = np.asarray(x, dtype=float)
    s = _potential_matrix(model)
    return float(xv @ s @ xv)


def free_energy(model: LinearModel, state: GaussianState) -> float:
    """Helmholtz free energy E[U] - entropy of the state, reversible models only.

    E[U] under the Gaussian state is tr(S cov) + mean^T S mean with
    U(x) = x^T S x, S = A^{-1} B.
    """
    s = _potential_matrix(model)
    mean_u = float(np.trace(s @ state.cov)) + float(state.mean @ s @ state.mean)
    return mean_u - entropy(state)


def instantaneous_rates(model: LinearModel, state: GaussianState) -> ThermoSnapshot:
    """Entropy, instantaneous epr/hdr, and their balance at a Gaussian state.

    Raises UndefinedEntropyError for singular covariance, as entropy does.
    """
    return rate_factors(model).rates(state)
