"""Trajectory generation: exact one-step transition sampling, an
Euler-Maruyama reference integrator, and on-path accumulation of the heat
dissipation functional.

Reproducibility contract
------------------------
Every path owns a private counter-based RNG stream: numpy's Philox generator
keyed by (master seed, path index), with Gaussian variates drawn through
numpy's ziggurat sampler (``Generator.standard_normal``). A path is therefore
a pure function of (model, x0, dt, steps, master seed, path index) - bit for
bit, independent of how many paths run, in which order, or across how many
worker processes.

To keep that guarantee, nothing after the draws enters a BLAS call whose
result could depend on batch shape. Each m @ x is expanded in column-broadcast
form, out = m[:, 0] x_0, then out += m[:, j] x_j for j = 1 .. n-1: n
elementwise calls vectorized across the paths, each output element the same
fixed sequence of roundings for any batch shape. One integrator serves every
entry point. It does the noise transform, recursion, heat sums and the copy
into the path-major result in blocks of _TIME_BLOCK steps, so temporaries do
not grow with the run. Blocking changes no bits: every term is per step, and
the cumulative heat of a block is a cumsum that starts from the previous W,
the same left-to-right sum as one cumsum over all steps.

Heat increments use the Stratonovich midpoint rule,
dW = 2 (A^{-1} b(x_mid)) . dx with x_mid the chord midpoint. With
N = -2 B^T A^{-1}, the stationary mean of one increment over a step h is
(1/2) tr((N - N^T) e^{-B h} Xi). For a reversible model N is symmetric, the
mean is zero like the entropy production rate, and each increment is exactly
the increment of the quadratic potential. For an irreversible model the mean
falls below epr * h by a relative O(h ||B||): on the rotational model
B = [[1, 1], [-1, 1]], Gamma = I at dt = 0.01 the rate is 1.98007 against
epr = 2.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .model import LinearModel
from .stationary import StationaryLaw

# Path-chunk size cap: bounds the arrays a pool worker returns and, with
# _TIME_BLOCK, the temporaries of the vectorized recursion.
_CHUNK_ELEMENT_BUDGET = 5_000_000

# Time steps per pass of the noise transform, heat accumulation and layout
# copy, so their temporaries do not grow with the run length.
_TIME_BLOCK = 128

# Stream index reserved for estimator bootstraps; never a path index.
BOOTSTRAP_STREAM = 2**64 - 1


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream for one path: Philox keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled path: states x_k and cumulative heat W_k (W_0 = 0)."""

    dt: float
    states: np.ndarray  # (steps + 1, n)
    heat: np.ndarray  # (steps + 1,)
    seed: tuple[int, int] | None  # (master seed, path index) when stream-derived


@dataclass(frozen=True, eq=False)
class ExactStepper:
    """One-step law of the exact transition: x' | x ~ N(Phi x, Sigma_dt)."""

    dt: float
    Phi: np.ndarray
    Sigma_dt: np.ndarray
    chol: np.ndarray


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Ensemble of paths sharing (model, dt, master seed); path-major arrays."""

    dt: float
    seed: int
    states: np.ndarray  # (n_paths, steps + 1, n)
    heat: np.ndarray  # (n_paths, steps + 1)
    stationary_start: bool
    method: str

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt

    def path(self, k: int) -> Trajectory:
        return Trajectory(
            dt=self.dt, states=self.states[k], heat=self.heat[k], seed=(self.seed, k)
        )


def _colmatvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x over axis -2 of x, whose last axis indexes paths, as n
    column-broadcast multiply-adds m[:, j] * x[..., j, :] in fixed j order:
    every output element is the same sequence of roundings for any batch
    shape."""
    out = m[:, 0:1] * x[..., 0:1, :]
    for j in range(1, m.shape[1]):
        out += m[:, j : j + 1] * x[..., j : j + 1, :]
    return out


def make_exact_stepper(model: LinearModel, dt: float) -> ExactStepper:
    """Precompute Phi = e^{-B dt} and Sigma_dt with its Cholesky factor."""
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    phi = linalg.expm(-model.B * dt)
    sigma = linalg.gram_integral(model.B, model.A, dt)
    chol = linalg.chol_spd(sigma)
    return ExactStepper(dt=dt, Phi=phi, Sigma_dt=sigma, chol=chol)


def _validate_run(model: LinearModel, x0, dt: float, steps: int) -> np.ndarray:
    xv = np.asarray(x0, dtype=float)
    if xv.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},), got {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise ValueError("initial state contains non-finite entries")
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    return xv


class _Update(NamedTuple):
    """Exact x' = Phi x + L z (drift Phi, noise_mat L = chol(Sigma_dt)) or Euler
    x' = x - dt B x + sqrt(dt) Gamma z (drift B, noise_mat Gamma); S = A^{-1} B."""

    method: str
    dt: float
    drift: np.ndarray
    noise_mat: np.ndarray
    s_mat: np.ndarray


def _update(model: LinearModel, dt: float, method: str) -> _Update:
    if method == "exact":
        stepper = make_exact_stepper(model, dt)
        drift, noise_mat = stepper.Phi, stepper.chol
    else:
        drift, noise_mat = model.B, model.Gamma
    return _Update(method, float(dt), drift, noise_mat, np.linalg.solve(model.A, model.B))


def _integrate(states: np.ndarray, heat: np.ndarray, update: _Update) -> None:
    """Fill path-major states (paths, steps + 1, n) and heat (paths, steps + 1)
    in place, _TIME_BLOCK steps at a time.

    On entry states[:, 0] holds the starts and states[:, 1:] the standard
    normal draws z; each block of z feeds the noise transform before the
    block's states overwrite it. Inside a block the work is time-major with
    paths on the last axis, so that every numpy call runs along the batch.
    """
    count, total, n = states.shape
    steps = total - 1
    euler, dt = update.method == "euler", update.dt
    block = np.empty((min(_TIME_BLOCK, steps) + 1, n, count))
    wsum = np.empty((block.shape[0], count))
    block[0] = states[:, 0].T
    heat[:, 0] = 0.0
    for k0 in range(0, steps, _TIME_BLOCK):
        b = min(_TIME_BLOCK, steps - k0)
        noise = _colmatvec(update.noise_mat, states[:, k0 + 1 : k0 + b + 1].transpose(1, 2, 0))
        if euler:
            noise *= math.sqrt(dt)
        for k in range(b):
            x = block[k]
            fx = _colmatvec(update.drift, x)
            np.add(x - dt * fx if euler else fx, noise[k], out=block[k + 1])
        # Midpoint increments dW = -2 (S x_mid) . dx.
        cur = block[: b + 1]
        mid = cur[1:] + cur[:-1]
        mid *= 0.5
        prod = _colmatvec(update.s_mat, mid)
        prod *= cur[1:] - cur[:-1]
        w = wsum[: b + 1]
        w[1:] = prod[:, 0]
        for i in range(1, n):
            w[1:] += prod[:, i]
        w[1:] *= -2.0
        # Cumsum from the previous W; the first block starts at dW_1 itself,
        # as one cumsum over all steps would (0.0 + -0.0 is +0.0).
        w[0] = heat[:, k0]
        first = 1 if k0 == 0 else 0
        np.cumsum(w[first:], axis=0, out=w[first:])
        states[:, k0 + 1 : k0 + b + 1] = cur[1:].transpose(2, 0, 1)
        heat[:, k0 + 1 : k0 + b + 1] = w[1:].T
        block[0] = block[b]


def _single_path(model, x0, dt, steps, rng, seed_record, method: str) -> Trajectory:
    """One path from one standard_normal((steps, n)) draw of rng."""
    xv = _validate_run(model, x0, dt, steps)
    update = _update(model, dt, method)
    states = np.empty((1, steps + 1, model.n))
    heat = np.empty((1, steps + 1))
    states[0, 0] = xv
    rng.standard_normal(out=states[0, 1:])
    _integrate(states, heat, update)
    return Trajectory(dt=update.dt, states=states[0], heat=heat[0], seed=seed_record)


def sample_path(
    model: LinearModel,
    x0,
    dt: float,
    steps: int,
    rng: np.random.Generator,
    *,
    seed_record: tuple[int, int] | None = None,
) -> Trajectory:
    """Sample one path with the exact transition law.

    The stream is consumed as a single standard_normal((steps, n)) block;
    heat is accumulated with the Stratonovich midpoint rule.
    """
    return _single_path(model, x0, dt, steps, rng, seed_record, "exact")


def euler_maruyama_path(
    model: LinearModel,
    x0,
    dt: float,
    steps: int,
    rng: np.random.Generator,
    *,
    seed_record: tuple[int, int] | None = None,
) -> Trajectory:
    """Reference Euler-Maruyama integrator x' = x - B x dt + Gamma sqrt(dt) z,
    exposing the discretization bias the exact sampler avoids."""
    return _single_path(model, x0, dt, steps, rng, seed_record, "euler")


def sample_stationary_start(law: StationaryLaw, rng: np.random.Generator) -> np.ndarray:
    """A draw from the stationary law N(0, Xi) via its Cholesky factor."""
    z = rng.standard_normal((law.model.n, 1))
    return _colmatvec(law.chol_Xi, z)[:, 0]


def _fill_chunk(job, lo: int, states: np.ndarray, heat: np.ndarray) -> None:
    """Generate paths lo, lo + 1, ... of a batch into path-major states / heat.

    Per path p the stream is consumed exactly as the single-path API does:
    an optional standard_normal(n) block for a stationary start, then one
    standard_normal((steps, n)) block for the increments, drawn straight into
    the path's rows of states.
    """
    seed, x0, chol_xi, update = job
    for c in range(states.shape[0]):
        stream = path_stream(seed, lo + c)
        if chol_xi is not None:
            stream.standard_normal(out=states[c, 0])
        stream.standard_normal(out=states[c, 1:])
    states[:, 0] = x0 if chol_xi is None else _colmatvec(chol_xi, states[:, 0].T).T
    _integrate(states, heat, update)


def _generate_chunk(job, steps: int, bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Process-pool entry: _fill_chunk paths lo .. hi-1 into fresh arrays."""
    lo, hi = bounds
    states = np.empty((hi - lo, steps + 1, job[1].shape[0]))
    heat = np.empty(states.shape[:2])
    _fill_chunk(job, lo, states, heat)
    return states, heat


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit value, else OU_IRREV_THREADS, else 1 (serial).

    0 also means serial; there is no automatic choice.
    """
    if workers is None:
        raw = os.environ.get("OU_IRREV_THREADS", "").strip()
        workers = int(raw) if raw else 0
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    return max(workers, 1)


def sample_batch(
    model: LinearModel,
    dt: float,
    steps: int,
    n_paths: int,
    seed: int,
    *,
    x0=None,
    law: StationaryLaw | None = None,
    method: str = "exact",
    workers: int | None = None,
) -> TrajectoryBatch:
    """Sample an ensemble of paths with per-path streams derived from seed.

    Starts are either a shared point x0 (the origin when neither is given)
    or, when law is given, independent stationary draws; giving both is a
    ValueError. Results are byte-identical for any worker count.
    """
    if method not in ("exact", "euler"):
        raise ValueError(f"unknown method {method!r}")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths}")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if x0 is not None and law is not None:
        raise ValueError("give either x0 or law, not both")
    chol_xi = None if law is None else law.chol_Xi
    start = np.zeros(model.n) if x0 is None else x0
    start_vec = _validate_run(model, start, dt, steps)
    job = (int(seed), start_vec, chol_xi, _update(model, dt, method))

    n_workers = resolve_workers(workers)
    chunk = max(1, _CHUNK_ELEMENT_BUDGET // ((steps + 1) * model.n))
    if n_workers > 1:
        chunk = min(chunk, max(1, math.ceil(n_paths / n_workers)))
    bounds = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    states = np.empty((n_paths, steps + 1, model.n))
    heat = np.empty((n_paths, steps + 1))
    if n_workers > 1 and len(bounds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # not imported by serial runs

        with ProcessPoolExecutor(max_workers=min(n_workers, len(bounds))) as pool:
            parts = pool.map(functools.partial(_generate_chunk, job, int(steps)), bounds)
            for (lo, hi), part in zip(bounds, parts):
                states[lo:hi], heat[lo:hi] = part
    else:
        for lo, hi in bounds:
            _fill_chunk(job, lo, states[lo:hi], heat[lo:hi])
    return TrajectoryBatch(float(dt), int(seed), states, heat, law is not None, method)
