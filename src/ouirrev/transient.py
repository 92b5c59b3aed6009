"""Exact time-dependent Gaussian law of the process and the thermodynamic
functionals along it: entropy, free energy, instantaneous entropy production
and heat dissipation rates, entropy balance.

The law at time t started from the point x0 is Gaussian with

    mean(t) = e^{-B t} x0,    cov(t) = integral_0^t e^{-B s} A e^{-B^T s} ds,

valid for any B, including sweeping models. propagate evaluates it at one
time. On a uniform grid t_k = k h, propagate_grid fills the rows by the
composition law of the law itself (the Markov property)

    mean(t + s) = Phi(s) mean(t),    cov(t + s) = Phi(s) cov(t) Phi(s)^T + G(s),
    Phi(s) = e^{-B s},               G(s) = cov(s) from a point start,

doubling s: rows [m, 2m) come from rows [0, m) in one stacked product with
s = m h, then G(2 m h) and Phi(2 m h) follow from the same law, as in
linalg.gram_integral. A grid of N rows takes ceil(log2 N) such passes, and the
kernels run once per grid rather than once per row. The grid is
deterministic, a row's bits do not depend on how many rows follow it, and
every row agrees with per-row propagate to a normwise relative 1e-12 (the
test bound). It comes back as one GaussianState whose fields carry a leading
grid axis.

Instantaneous rates are Gaussian moment evaluations of the stationary-theory
integrands at the time-t law (mean mu, covariance C); with
M_t = 2 A^{-1} B - C^{-1},

    epr(t) = (1/2) tr(M_t^T A M_t C) + 2 mu^T B^T A^{-1} B mu
    hdr(t) = 2 tr(B^T A^{-1} B C) - tr(B) + 2 mu^T B^T A^{-1} B mu

so the entropy rate epr - hdr is mean-independent, matching
d/dt e[P] = (1/2) tr(C^{-1} Cdot). Both forms are quadrature-validated in the
test suite, and written once (_moment_rates), which the stationary law also
evaluates at (0, Xi). A^{-1} B is the one build_model solved for;
B^T A^{-1} B, tr B and the potential matrix are formed where they are read,
once per evaluation of a state or a grid.

The rates of a whole grid are evaluated in one pass (grid_rates): one LAPACK
Cholesky call over the stack for the entropies, one batched solve for the
inverse covariances, and every trace and quadratic form in batched matmul
form. Each row has the same bits as the evaluation of that state alone,
because the single-state entry points (entropy, free_energy,
instantaneous_rates) run the same kernel on one state.
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
from .model import Classification, LinearModel, Verdict, classify


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Law of the process at a fixed time: mean vector and covariance matrix.

    A grid of laws (propagate_grid) is one GaussianState whose fields carry a
    leading grid axis: t (N,), mean (N, n), cov (N, n, n).
    """

    t: float | np.ndarray
    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class ThermoSnapshot:
    """Thermodynamic functionals of a Gaussian state.

    free_energy is defined only for reversible models and is None otherwise;
    entropy_rate always equals epr_t - hdr_t. For a grid (grid_rates) every
    field is an array along the grid axis, NaN on the rows where the
    functionals are undefined.
    """

    t: float | np.ndarray
    entropy: float | np.ndarray
    free_energy: float | np.ndarray | None
    epr_t: float | np.ndarray
    hdr_t: float | np.ndarray
    entropy_rate: float | np.ndarray


def propagate(model: LinearModel, x0, t: float) -> GaussianState:
    """Law at time t >= 0 started from the point x0 (any model, sweeping included)."""
    xv = linalg._as_vector(x0, model.n, "initial state")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    mean = linalg.expm(-model.B * t) @ xv
    cov = linalg.gram_integral(model.B, model.A, t)
    return GaussianState(t=t, mean=mean, cov=cov)


def propagate_grid(model: LinearModel, x0, t_step: float, n_rows: int) -> GaussianState:
    """Laws at t_k = k * t_step for k = 0 .. n_rows - 1, started from the point
    x0, stacked along a leading grid axis: t (N,), mean (N, n), cov (N, n, n).

    Row 0 is mean = x0, cov = 0. With Phi = Phi(m h) and G = G(m h) for
    m = 1, 2, 4, ..., rows [m, 2m) are mean_{k+m} = Phi mean_k and
    cov_{k+m} = Phi cov_k Phi^T + G for k in [0, m), the last block cut to the
    rows that are left. Phi and G are doubled only while a later block needs
    them, so no overflow comes from work that is thrown away. Every
    covariance is symmetrized as it is written.

    Raises
    ------
    NumericalFailureError
        If the mean or covariance of some row overflows (sweeping models on
        long grids); names the time of the first such row.
    """
    xv = linalg._as_vector(x0, model.n, "initial state")
    h = float(t_step)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"time step must be finite and > 0, got {h}")
    if n_rows < 1:
        raise ValueError(f"grid needs at least one row, got {n_rows}")
    phi = linalg.expm(-model.B * h)
    g = linalg.gram_integral(model.B, model.A, h)
    means = np.empty((n_rows, model.n))
    covs = np.empty((n_rows, model.n, model.n))
    means[0], covs[0] = xv, 0.0
    m = 1
    # Overflow is detected by the finiteness check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while m < n_rows:
            # Here phi = Phi(m h) and g = G(m h); rows [m, m + r) from rows [0, r).
            r = min(m, n_rows - m)
            # einsum, not a GEMM: its per-row sums do not change with r, so a
            # row's bits do not depend on how many rows follow it.
            np.einsum("ij,kj->ki", phi, means[:r], out=means[m : m + r])
            covs[m : m + r] = linalg._compose(phi, covs[:r], g)
            m *= 2
            if m >= n_rows:
                break
            # gram_integral's doubling step
            g = linalg._compose(phi, g, g)
            phi = phi @ phi
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalFailureError(f"transient law overflows at t = {k * h!r}")
    return GaussianState(t=np.arange(n_rows) * h, mean=means, cov=covs)


def transition_density(model: LinearModel, x, t: float, x0) -> float:
    """Transition density p(x, t | x0) for t > 0, standard Gaussian normalization."""
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"transition density requires t > 0, got {t}")
    xv = linalg._as_vector(x, model.n, "state")
    state = propagate(model, linalg._as_vector(x0, model.n, "initial state"), t)
    try:
        low = linalg.chol_spd(state.cov)
    except NotPositiveDefiniteError as exc:
        raise UndefinedEntropyError("state covariance is singular (point mass)") from exc
    # Solve L y = (x - mean); the quadratic form is then |y|^2.
    y = np.linalg.solve(low, xv - state.mean)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    return float(
        np.exp(-0.5 * float(y @ y) - 0.5 * logdet - 0.5 * model.n * math.log(2.0 * math.pi))
    )


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _quad(mean: np.ndarray, m: np.ndarray) -> np.ndarray:
    """mean^T m mean for a mean (n,) or a stack of means (..., n)."""
    return (mean[..., None, :] @ m @ mean[..., :, None])[..., 0, 0]


def _entropies(cov: np.ndarray) -> np.ndarray:
    """Entropy of a covariance (n, n) or of each in a stack (..., n, n); NaN
    where the covariance fails chol_spd's test (its factor is all NaN)."""
    low = linalg._chol_stack(cov)[0]
    n = cov.shape[-1]
    half_logdet = np.sum(np.log(np.diagonal(low, axis1=-2, axis2=-1)), axis=-1)
    return 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + half_logdet


def entropy(state: GaussianState) -> float:
    """Differential entropy (n/2)(1 + log 2 pi) + (1/2) log det cov.

    Raises UndefinedEntropyError for singular covariance (e.g. t = 0) rather
    than returning -inf.
    """
    ent = float(_entropies(np.asarray(state.cov, dtype=float)))
    if math.isnan(ent):
        raise UndefinedEntropyError("state covariance is singular (point mass)")
    return ent


def _moment_rates(model: LinearModel, mean, cov, cov_inv) -> tuple[np.ndarray, np.ndarray]:
    """epr and hdr of the Gaussian law N(mean, cov), or of each law in a
    stack, given cov^{-1}: the one copy of the moment formulas."""
    bt_ainv_b = model.B.T @ model.ainv_b
    m_t = 2.0 * model.ainv_b - cov_inv
    mean_term = 2.0 * _quad(mean, bt_ainv_b)
    epr = 0.5 * _trace(m_t.swapaxes(-1, -2) @ model.A @ m_t @ cov) + mean_term
    hdr = 2.0 * _trace(bt_ainv_b @ cov) - float(np.trace(model.B)) + mean_term
    return np.where(epr < 0.0, 0.0, epr), hdr


def _potential_matrix(model: LinearModel, cls: Classification) -> np.ndarray:
    """S = sym(A^{-1} B) of a reversible model, so that U(x) = x^T S x and
    2 A^{-1} b(x) = -grad U(x) hold exactly for b(x) = -B x (cls classifies model).

    Raises PotentialUndefinedError for any other verdict.
    """
    if cls.verdict is not Verdict.REVERSIBLE:
        raise PotentialUndefinedError(
            "free energy requires a reversible model (force has no potential otherwise)"
        )
    return 0.5 * (model.ainv_b + model.ainv_b.T)


def grid_rates(model: LinearModel, cls: Classification, states: GaussianState) -> ThermoSnapshot:
    """Entropy, instantaneous epr/hdr, and their balance along a grid of
    states (as propagate_grid returns them), as arrays over the grid; cls is
    the model's classification. The free energy is None unless the model is
    reversible.

    Rows whose covariance fails the Cholesky floor (the point mass at
    t = 0) are NaN in every field but t. A single state (mean (n,),
    cov (n, n)) gives 0-d arrays.
    """
    mean = np.asarray(states.mean, dtype=float)
    cov = np.asarray(states.cov, dtype=float)
    ent = _entropies(cov)
    ok = ~np.isnan(ent)
    eye = np.eye(cov.shape[-1])
    # Undefined rows are replaced by I so that the batched solve cannot fail on them.
    defined_cov = np.where(ok[..., None, None], cov, eye)
    cov_inv = np.linalg.solve(defined_cov, np.broadcast_to(eye, cov.shape))
    cov_inv = 0.5 * (cov_inv + cov_inv.swapaxes(-1, -2))
    epr_t, hdr_t = _moment_rates(model, mean, cov, cov_inv)
    epr_t, hdr_t = np.where(ok, epr_t, np.nan), np.where(ok, hdr_t, np.nan)
    psi = None
    if cls.verdict is Verdict.REVERSIBLE:
        s = _potential_matrix(model, cls)
        psi = _trace(s @ cov) + _quad(mean, s) - ent
    return ThermoSnapshot(
        t=states.t,
        entropy=ent,
        free_energy=psi,
        epr_t=epr_t,
        hdr_t=hdr_t,
        entropy_rate=epr_t - hdr_t,
    )


def _state_rates(model: LinearModel, cls: Classification, state: GaussianState) -> ThermoSnapshot:
    """grid_rates of one state, as floats; UndefinedEntropyError for a
    singular covariance, as entropy raises."""
    snap = grid_rates(model, cls, state)
    if math.isnan(snap.entropy):
        raise UndefinedEntropyError("state covariance is singular (point mass)")
    return ThermoSnapshot(
        t=state.t,
        entropy=float(snap.entropy),
        free_energy=None if snap.free_energy is None else float(snap.free_energy),
        epr_t=float(snap.epr_t),
        hdr_t=float(snap.hdr_t),
        entropy_rate=float(snap.entropy_rate),
    )


def potential(model: LinearModel, x) -> float:
    """Potential U(x) = x^T A^{-1} B x of a reversible model."""
    xv = linalg._as_vector(x, model.n, "state")
    s = _potential_matrix(model, classify(model))
    return float(xv @ s @ xv)


def free_energy(model: LinearModel, state: GaussianState) -> float:
    """Helmholtz free energy E[U] - entropy of the state, reversible models only.

    E[U] under the Gaussian state is tr(S cov) + mean^T S mean with
    U(x) = x^T S x, S = A^{-1} B.
    """
    cls = classify(model)
    _potential_matrix(model, cls)  # an irreversible model raises before the state is read
    return _state_rates(model, cls, state).free_energy


def instantaneous_rates(model: LinearModel, state: GaussianState) -> ThermoSnapshot:
    """Entropy, instantaneous epr/hdr, and their balance at a Gaussian state.

    Raises UndefinedEntropyError for singular covariance, as entropy does.
    """
    return _state_rates(model, classify(model), state)
