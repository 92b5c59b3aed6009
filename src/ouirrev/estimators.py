"""Statistical verdicts from trajectory ensembles: empirical moments,
two-time covariance, reversibility asymmetry test, heat-rate estimation,
and the conditional-mean regression (Onsager/Green-Kubo) check.

Both two-time estimators (the reversibility test and the R(t, 0) half of the
Green-Kubo check) read one PathStatistics value: the per-path lag products
x(t + lag) x(t)^T, built by path_statistics in one pass over the states per
lag, so a verify run forms each lag's products once.

All estimators are deterministic functions of (batch, parameters): bootstrap
resampling draws from a reserved stream derived from the batch's master seed,
and cross-path reductions run in path order (heat totals through exact
summation), so reruns and different generation worker counts give identical
output. Paths are i.i.d., so standard errors and bootstrap bands resample at
the path level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InsufficientDataError
from .model import LinearModel
from .sampler import BOOTSTRAP_STREAM, TrajectoryBatch, path_stream
from .stationary import StationaryLaw

BOOTSTRAP_RESAMPLES = 200
# Studentized asymmetry above this is declared irreversible; below it the
# verdict is "consistent with reversible" (failure to reject, not proof).
REVERSIBILITY_THRESHOLD = 3.0
MIN_EFFECTIVE_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    mean: np.ndarray
    xi_hat: np.ndarray  # symmetrized second-moment matrix
    se_mean: np.ndarray
    se_xi: np.ndarray
    n_effective: int
    converged: bool  # False when early/late window moments diverge


@dataclass(frozen=True, eq=False)
class ReversibilityResult:
    statistic: float  # max over lags of studentized asymmetry norm
    threshold: float
    verdict_reversible: bool
    per_lag: dict[float, float]
    note: str


@dataclass(frozen=True, eq=False)
class HdrEstimate:
    value: float
    stderr: float
    n_paths: int


@dataclass(frozen=True, eq=False)
class GreenKuboResult:
    max_abs_z: float  # conditional-mean decay, worst componentwise z-score
    max_deviation: float  # worst ||mean(t) - e^{-Bt} x0|| / (1 + ||x0||)
    max_abs_z_two_time: float | None  # R(t,0) vs e^{-Bt} Xi, worst entry z
    checkpoints: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PathStatistics:
    """Per-path two-time products of one stationary batch after burn-in.

    lag_products maps each distinct lag to the per-path time averages of
    x(t + lag) x(t)^T, shape (n_paths, n, n); lags keeps the lags as
    requested (order and repeats). seed is the batch's master seed, from
    which the bootstrap stream is derived.
    """

    lags: tuple[float, ...]
    lag_products: dict[float, np.ndarray]
    n_paths: int
    seed: int


def _burn_index(batch: TrajectoryBatch, burn_in: float) -> int:
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    k0 = int(math.ceil(burn_in / batch.dt - 1e-9))
    if k0 > batch.n_steps:
        raise InsufficientDataError(
            f"burn-in {burn_in} discards the whole trajectory (span {batch.t_final})"
        )
    return k0


def empirical_moments(batch: TrajectoryBatch, burn_in: float) -> MomentEstimate:
    """Time-and-ensemble mean and second moment after burn-in.

    xi_hat is the raw symmetrized average of x x^T (the process mean is zero
    under the stationary law), so it coincides with the lag-0 two-time
    estimate. Standard errors come from the spread of per-path time averages
    (batch means over i.i.d. paths).
    """
    k0 = _burn_index(batch, burn_in)
    kept = batch.states[:, k0:, :]
    n_paths, n_times = kept.shape[0], kept.shape[1]
    total = n_paths * n_times
    if total < MIN_EFFECTIVE_SAMPLES or n_paths < 2:
        raise InsufficientDataError(
            f"{total} retained samples over {n_paths} paths; need >= "
            f"{MIN_EFFECTIVE_SAMPLES} samples and >= 2 paths"
        )
    per_path_mean = kept.mean(axis=1)
    per_path_second = _lag_products(kept, kept) / n_times
    mean = per_path_mean.mean(axis=0)
    xi_hat = per_path_second.mean(axis=0)
    xi_hat = 0.5 * (xi_hat + xi_hat.T)
    se_mean = per_path_mean.std(axis=0, ddof=1) / math.sqrt(n_paths)
    se_xi = per_path_second.std(axis=0, ddof=1) / math.sqrt(n_paths)
    # Non-convergence diagnostic: stationary moments should not drift between
    # the early and late halves of the retained window.
    half = n_times // 2
    tr_early = float(np.einsum("pti,pti->", kept[:, :half], kept[:, :half])) / max(half, 1)
    tr_late = float(np.einsum("pti,pti->", kept[:, half:], kept[:, half:])) / max(
        n_times - half, 1
    )
    converged = bool(tr_late <= 2.0 * tr_early + 1e-12 and tr_early <= 2.0 * tr_late + 1e-12)
    return MomentEstimate(
        mean=mean,
        xi_hat=xi_hat,
        se_mean=se_mean,
        se_xi=se_xi,
        n_effective=total,
        converged=converged,
    )


def _lag_steps(batch: TrajectoryBatch, lag: float) -> int:
    steps = lag / batch.dt
    rounded = int(round(steps))
    if abs(steps - rounded) > 1e-6 * max(1.0, abs(steps)):
        raise ValueError(f"lag {lag} is not a multiple of dt {batch.dt}")
    if rounded < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if rounded >= batch.n_steps:
        raise ValueError(f"lag {lag} exceeds trajectory span {batch.t_final}")
    return rounded


def _lag_products(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Sum over t of later[p, t, i] * earlier[p, t, j]; shape (paths, n, n).

    One two-operand contraction per row i, on views of the states (no copy).
    It gives the same sums, bit for bit, as a single einsum over all (i, j)
    at once, and is faster than it (measured at n = 2 and n = 16); the tests
    keep that einsum as the oracle.
    """
    n = later.shape[2]
    out = np.empty((later.shape[0], n, n))
    for i in range(n):
        out[:, i, :] = np.einsum("pt,ptj->pj", later[:, :, i], earlier)
    return out


def path_statistics(batch: TrajectoryBatch, lags, burn_in: float = 0.0) -> PathStatistics:
    """Per-path averages of x(t + lag) x(t)^T for each lag, after burn-in.

    Each distinct lag is computed once; repeated lags share one entry.

    Raises
    ------
    ValueError
        On a negative burn-in, or a lag that is negative, off the dt grid or
        not shorter than the trajectory.
    InsufficientDataError
        If burn-in discards the whole trajectory, a lag leaves no time pairs,
        or the batch has fewer than two paths.
    """
    k0 = _burn_index(batch, burn_in)
    lags = tuple(float(v) for v in lags)
    products: dict[float, np.ndarray] = {}
    for lag in lags:
        if lag in products:
            continue
        ell = _lag_steps(batch, lag)
        later = batch.states[:, k0 + ell :, :]
        earlier = batch.states[:, k0 : batch.n_steps + 1 - ell, :]
        count = earlier.shape[1]
        if count < 1 or batch.n_paths < 2:
            raise InsufficientDataError("no admissible time pairs after burn-in at this lag")
        per_path = _lag_products(later, earlier) / count
        per_path.setflags(write=False)  # shared by every estimator that reads stats
        products[lag] = per_path
    return PathStatistics(lags=lags, lag_products=products, n_paths=batch.n_paths, seed=batch.seed)


def empirical_two_time(batch: TrajectoryBatch, lag: float, burn_in: float = 0.0) -> np.ndarray:
    """Ensemble-and-time average of x(t + lag) x(t)^T in the stationary regime.

    Compare against e^{-B lag} Xi. The asymmetric part is the reversibility
    signal, so no symmetrization is applied (lag 0 is symmetric by sample).
    """
    lag = float(lag)
    return path_statistics(batch, (lag,), burn_in).lag_products[lag].mean(axis=0)


def _bootstrap_indices(stats: PathStatistics, n_resamples: int) -> np.ndarray:
    rng = path_stream(stats.seed, BOOTSTRAP_STREAM)
    return rng.integers(0, stats.n_paths, size=(n_resamples, stats.n_paths))


def reversibility_test(
    stats: PathStatistics, threshold: float = REVERSIBILITY_THRESHOLD
) -> ReversibilityResult:
    """Test the time-reversal symmetry R(tau) = R(tau)^T of the two-time
    covariance (sufficient for Gaussian processes).

    The statistic is the max over lags of the asymmetry norm
    ||R_hat - R_hat^T||_F, studentized against its centered path-bootstrap
    null distribution: the same max-over-lags norm is formed from
    resampled-minus-observed asymmetries, and the observed value is compared
    through that distribution's mean and SE. Taking the max inside the
    bootstrap accounts for the multiplicity over lags, which keeps the
    false-positive rate at the threshold calibrated. Above the threshold the
    verdict is irreversible; below it the data are consistent with
    reversibility (the test cannot prove it). The lags are those of stats.
    """
    if len(stats.lags) < 2:
        raise ValueError("need at least two lags")
    resamples = _bootstrap_indices(stats, BOOTSTRAP_RESAMPLES)
    obs_norms: list[float] = []
    boot_norms: list[np.ndarray] = []
    per_lag: dict[float, float] = {}
    for lag in stats.lags:
        per_path = stats.lag_products[lag]
        asym = per_path - per_path.transpose(0, 2, 1)
        observed = asym.mean(axis=0)
        boot = asym[resamples].mean(axis=1) - observed
        norms = np.linalg.norm(boot, axis=(1, 2))
        spread = float(norms.std(ddof=1))
        if spread <= 0.0:
            raise InsufficientDataError("degenerate bootstrap spread; too little data")
        obs_norms.append(float(np.linalg.norm(observed)))
        boot_norms.append(norms)
        per_lag[lag] = (obs_norms[-1] - float(norms.mean())) / spread
    boot_max = np.max(np.column_stack(boot_norms), axis=1)
    statistic = (max(obs_norms) - float(boot_max.mean())) / float(boot_max.std(ddof=1))
    reversible = statistic <= threshold
    note = (
        "failure to reject reversibility (asymmetry within noise)"
        if reversible
        else "two-time covariance asymmetry exceeds noise level"
    )
    return ReversibilityResult(
        statistic=statistic,
        threshold=threshold,
        verdict_reversible=reversible,
        per_lag=per_lag,
        note=note,
    )


def hdr_estimate(batch: TrajectoryBatch, burn_in: float = 0.0) -> HdrEstimate:
    """Stationary heat dissipation rate from cumulative heat: per path
    (W(T) - W(burn_in)) / (T - burn_in), averaged over paths (exact
    summation), standard error over paths."""
    k0 = _burn_index(batch, burn_in)
    span = (batch.n_steps - k0) * batch.dt
    if span <= 0.0 or batch.n_paths < 2:
        raise InsufficientDataError("need at least 2 paths and a nonempty window after burn-in")
    rates = (batch.heat[:, -1] - batch.heat[:, k0]) / span
    value = math.fsum(rates.tolist()) / batch.n_paths
    stderr = float(rates.std(ddof=1)) / math.sqrt(batch.n_paths)
    return HdrEstimate(value=value, stderr=stderr, n_paths=batch.n_paths)


def greenkubo_check(
    cond_batch: TrajectoryBatch,
    model: LinearModel,
    checkpoints,
    *,
    stats: PathStatistics | None = None,
    law: StationaryLaw | None = None,
) -> GreenKuboResult:
    """Conditional-mean regression check: the ensemble mean from a shared x0
    must decay as e^{-B t} x0, and (when the stationary batch's path
    statistics and the law are given) the stationary R(t, 0) must match
    e^{-B t} Xi - the same time dependence. stats must hold every checkpoint
    as a lag.

    Deviations are reported as worst componentwise z-scores against
    path-ensemble standard errors.
    """
    if cond_batch.stationary_start:
        raise ValueError("conditional batch must start from a shared point, not stationary draws")
    if cond_batch.n_paths < 2:
        raise InsufficientDataError("need at least 2 conditional paths")
    x0 = cond_batch.states[0, 0, :]
    if not all(np.array_equal(cond_batch.states[p, 0, :], x0) for p in range(cond_batch.n_paths)):
        raise ValueError("conditional batch paths do not share x0")
    checkpoints = tuple(float(t) for t in checkpoints)
    max_z = 0.0
    max_dev = 0.0
    scale = 1.0 + float(np.linalg.norm(x0))
    root_p = math.sqrt(cond_batch.n_paths)
    for t in checkpoints:
        k = int(round(t / cond_batch.dt))
        if abs(k * cond_batch.dt - t) > 1e-9 * max(1.0, t) or k > cond_batch.n_steps:
            raise ValueError(f"checkpoint {t} not on the trajectory grid")
        snap = cond_batch.states[:, k, :]
        target = linalg.expm(-model.B * t) @ x0
        se = snap.std(axis=0, ddof=1) / root_p
        z = np.abs(snap.mean(axis=0) - target) / np.maximum(se, 1e-300)
        max_z = max(max_z, float(z.max()))
        max_dev = max(max_dev, float(np.linalg.norm(snap.mean(axis=0) - target)) / scale)
    max_z_two_time = None
    if stats is not None:
        if law is None:
            raise ValueError("two-time comparison needs the stationary law")
        missing = [t for t in checkpoints if t not in stats.lag_products]
        if missing:
            raise ValueError(f"checkpoints {missing} are not lags of the path statistics")
        max_z_two_time = 0.0
        root_q = math.sqrt(stats.n_paths)
        for t in checkpoints:
            per_path = stats.lag_products[t]
            target = linalg.expm(-model.B * t) @ law.Xi
            se = per_path.std(axis=0, ddof=1) / root_q
            z = np.abs(per_path.mean(axis=0) - target) / np.maximum(se, 1e-300)
            max_z_two_time = max(max_z_two_time, float(z.max()))
    return GreenKuboResult(
        max_abs_z=max_z,
        max_deviation=max_dev,
        max_abs_z_two_time=max_z_two_time,
        checkpoints=checkpoints,
    )
