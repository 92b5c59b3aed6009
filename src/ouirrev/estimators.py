"""Statistical verdicts from trajectory ensembles: per-path two-time
products, reversibility asymmetry test, heat-rate estimation, and the
conditional-mean regression (Onsager/Green-Kubo) check.

Both two-time estimators (the reversibility test and the R(t, 0) half of the
Green-Kubo check) read one PathStatistics value: the per-path lag products
x(t + lag) x(t)^T, so a verify run forms each lag's products once.
stationary_statistics is the one producer of PathStatistics and of the heat
rate (HdrEstimate). It hands an accumulator (_LagSums) the sampler's time
blocks while the paths are generated (sampler.stream_batch), so no state
array is kept: only per-path sums, a window of the last max(lag) states, and
the heat at burn-in and at T. Each lag's products are summed per super-block
of _SUPER_BLOCK consecutive later times (aligned to t = 0), then
added in time order.

Both per-path reductions run in BLAS GEMMs whose shapes the run's parameters
fix. Each super-block's lag products are (n x T) @ (T x n) products per path
(a stacked matmul, which numpy runs as one BLAS call per path; at lag 0 it
takes BLAS's A A^T route, syrk), and T is fixed by the burn-in, lag,
trajectory length and super-block alone. So a path's sums depend only on its
own states: the same bits for any path count, chunking or worker count. The
bootstrap resample means of each lag are the (resamples x paths) @
(paths x n^2) product of the resample-count matrix with the per-path
asymmetries. Every summed axis is cut into pieces of at most _GEMM_DEPTH, so
both give the same bits with one or two BLAS threads.

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
from .sampler import (
    BOOTSTRAP_STREAM,
    TrajectoryBatch,
    _budget_paths,
    _validate_grid,
    path_stream,
    stream_batch,
)
from .stationary import StationaryLaw

BOOTSTRAP_RESAMPLES = 200
# Longest summed axis of one estimator GEMM (time rows or paths); see _gemm.
_GEMM_DEPTH = 256
# Studentized asymmetry above this is declared irreversible; below it the
# verdict is "consistent with reversible" (failure to reject, not proof).
REVERSIBILITY_THRESHOLD = 3.0
# Time steps per block of the streamed per-path lag sums, whose summation
# order follows these global blocks.
_SUPER_BLOCK = 1024


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
    max_abs_z_two_time: float  # R(t,0) vs e^{-Bt} Xi, worst entry z


@dataclass(frozen=True, eq=False)
class PathStatistics:
    """Per-path two-time products of one stationary batch after burn-in.

    lag_products maps each distinct lag, in first-request order, to the
    per-path time averages of x(t + lag) x(t)^T, shape (n_paths, n, n). seed
    is the batch's master seed, from which the bootstrap stream is derived.
    """

    lag_products: dict[float, np.ndarray]
    n_paths: int
    seed: int


def _lag_steps(dt: float, steps: int, lag: float) -> int:
    ratio = lag / dt
    if not math.isfinite(ratio):
        raise ValueError(f"lag {lag} over dt {dt} is not a finite step count")
    rounded = int(round(ratio))
    if abs(ratio - rounded) > 1e-6 * max(1.0, abs(ratio)):
        raise ValueError(f"lag {lag} is not a multiple of dt {dt}")
    if rounded < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if rounded >= steps:
        raise ValueError(f"lag {lag} exceeds trajectory span {steps * dt}")
    return rounded


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b (stacked or not) in BLAS, with the summed axis cut into pieces of
    at most _GEMM_DEPTH that are added in order.

    With a longer summed axis, OpenBLAS can give other last bits on two
    threads than on one: on 0.3.31 (AVX-512 kernels) the n = 32 lag GEMMs of
    most depths from 977 to 1022 time rows did, and the bootstrap GEMMs over
    most path counts above 384; no depth up to 384 did in any shape
    measured. Pieces of at most _GEMM_DEPTH keep every estimator bit the
    same with one or two BLAS threads.
    """
    out = np.matmul(a[..., :_GEMM_DEPTH], b[..., :_GEMM_DEPTH, :])
    for lo in range(_GEMM_DEPTH, a.shape[-1], _GEMM_DEPTH):
        out += np.matmul(a[..., lo : lo + _GEMM_DEPTH], b[..., lo : lo + _GEMM_DEPTH, :])
    return out


def _lag_products(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Sum over t of later[p, t, i] * earlier[p, t, j]; shape (paths, n, n).

    (n x T) @ (T x n) BLAS GEMMs per path (T cut as in _gemm), on path-major
    views of the states (no copy); when later and earlier are the same view
    (lag 0) BLAS forms A A^T (syrk) and the result is exactly symmetric.
    numpy calls BLAS once per path, so each path's products are the same bits
    whatever other paths share the stack. They agree with the einsum over t
    to rounding; the tests keep that einsum as the accuracy oracle.
    """
    return _gemm(later.swapaxes(1, 2), earlier)


class _LagSums:
    """Consumer of a chunk of paths, fed their states in global index order:
    per-path sums of x(j) x(j - ell)^T for each lag ell (in steps) over
    j = k0 + ell .. steps, and the heat W at k0 and at steps.

    The products of each super-block of _SUPER_BLOCK consecutive j (aligned
    to j = 0) are formed by one _lag_products call (GEMMs per path, whose
    shapes depend only on k0, ell, steps and the super-block) on a path-major
    window that also keeps the last max(ell) states of the previous
    super-blocks, then added to the running sum in time order. The sums
    therefore depend only on each path's states, not on the sampler's time
    blocks or on which other paths share the chunk.
    """

    def __init__(self, ells: tuple[int, ...], k0: int, steps: int, n: int, count: int):
        self.ells, self.k0, self.steps = ells, k0, steps
        self.hist = max(ells)
        self.window = np.empty((count, self.hist + _SUPER_BLOCK, n))
        self.sums = np.zeros((len(ells), count, n, n))
        self.heat = np.empty((count, 2))

    def __call__(self, k: int, states: np.ndarray, heat: np.ndarray) -> None:
        """states (L, n, paths) and heat (L, paths) at indices k .. k + L - 1."""
        last = k + len(states) - 1
        if k <= self.k0 <= last:
            self.heat[:, 0] = heat[self.k0 - k]
        if last == self.steps:
            self.heat[:, 1] = heat[-1]
        pos = 0
        while pos < len(states):
            j = k + pos
            base = j - j % _SUPER_BLOCK
            take = min(len(states) - pos, base + _SUPER_BLOCK - j)
            at = self.hist + j - base
            self.window[:, at : at + take] = states[pos : pos + take].transpose(2, 0, 1)
            pos += take
            end = j + take - 1
            if end == self.steps or end == base + _SUPER_BLOCK - 1:
                self._flush(base, end)

    def _flush(self, base: int, end: int) -> None:
        """Add the products of later indices base .. end, then keep the last
        hist states as the next super-block's history, or free the window."""
        stop = self.hist + end - base + 1
        for sums, ell in zip(self.sums, self.ells):
            first = max(base, self.k0 + ell)
            if first <= end:
                at = self.hist + first - base
                earlier = self.window[:, at - ell : stop - ell]
                sums += _lag_products(self.window[:, at:stop], earlier)
        if end == self.steps:  # later chunks of the batch may still run
            self.window = None
        elif self.hist:
            self.window[:, : self.hist] = self.window[:, _SUPER_BLOCK : _SUPER_BLOCK + self.hist]


def stationary_statistics(
    law: StationaryLaw,
    dt: float,
    steps: int,
    n_paths: int,
    seed: int,
    lags,
    burn_in: float = 0.0,
) -> tuple[PathStatistics, HdrEstimate]:
    """Per-path lag products and heat rate of sample_batch(law.model, dt,
    steps, n_paths, seed, law=law) after burn-in, computed while the paths
    are generated: no state array is kept, only per-path lag sums, a window
    of the last max(lag) states and the heat at burn-in and at T.

    The lag products are the per-path averages of x(t + lag) x(t)^T for each
    distinct lag (a repeated lag is computed once). The heat rate is, per
    path, (W(T) - W(burn_in)) / (T - burn_in), averaged over paths (exact
    summation), with its standard error over paths.

    Raises
    ------
    ValueError
        As sample_batch does; on a negative or NaN burn-in, an empty lag
        list, or a lag that is negative, off the dt grid, not a finite number
        of steps or not shorter than the trajectory.
    InsufficientDataError
        If burn-in discards the whole trajectory, a lag leaves no time pairs,
        or fewer than two paths are asked for.

    Every check runs before any path is drawn.
    """
    _validate_grid(dt, steps)
    if not burn_in >= 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    if burn_in / dt - 1e-9 > steps:  # checked before ceil: the ratio may be inf
        raise InsufficientDataError(
            f"burn-in {burn_in} discards the whole trajectory (span {steps * dt})"
        )
    k0 = int(math.ceil(burn_in / dt - 1e-9))
    distinct = tuple(dict.fromkeys(float(v) for v in lags))
    if not distinct:
        raise ValueError("need at least one lag")
    ells = tuple(_lag_steps(dt, steps, lag) for lag in distinct)
    if any(k0 + ell > steps for ell in ells):
        raise InsufficientDataError("no admissible time pairs after burn-in at this lag")
    span = (steps - k0) * dt
    if span <= 0.0 or n_paths < 2:
        raise InsufficientDataError("need at least 2 paths and a nonempty window after burn-in")
    n = law.model.n
    parts = stream_batch(
        law.model, dt, steps, n_paths, seed,
        lambda lo, hi: _LagSums(ells, k0, steps, n, hi - lo),
        # Per path: about two windows of up to _SUPER_BLOCK states (one after
        # its lag history).
        chunk_paths=_budget_paths(2 * min(steps, _SUPER_BLOCK) * n),
        law=law,
    )
    sums = np.concatenate([part.sums for part in parts], axis=1)
    heat = np.concatenate([part.heat for part in parts])
    products: dict[float, np.ndarray] = {}
    for lag, ell, total in zip(distinct, ells, sums):
        per_path = total / (steps + 1 - k0 - ell)
        per_path.setflags(write=False)  # shared by every estimator that reads stats
        products[lag] = per_path
    rates = (heat[:, 1] - heat[:, 0]) / span
    count = len(rates)
    hdr = HdrEstimate(
        value=math.fsum(rates.tolist()) / count,
        stderr=float(rates.std(ddof=1)) / math.sqrt(count),
        n_paths=count,
    )
    return PathStatistics(lag_products=products, n_paths=count, seed=int(seed)), hdr


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
    reversibility (the test cannot prove it). The lags are those of stats;
    it needs at least two.
    """
    if len(stats.lag_products) < 2:
        raise ValueError("need at least two distinct lags")
    n_paths = stats.n_paths
    resamples = _bootstrap_indices(stats, BOOTSTRAP_RESAMPLES)
    # counts[r, p]: how often resample r drew path p, so that each lag's
    # resample means are one GEMM with the per-path asymmetries.
    counts = np.zeros((len(resamples), n_paths))
    np.add.at(counts, (np.arange(len(resamples))[:, None], resamples), 1.0)
    obs_norms: list[float] = []
    boot_norms: list[np.ndarray] = []
    per_lag: dict[float, float] = {}
    for lag, per_path in stats.lag_products.items():
        asym = (per_path - per_path.transpose(0, 2, 1)).reshape(n_paths, -1)
        observed = asym.mean(axis=0)
        boot = _gemm(counts, asym)
        boot /= n_paths
        boot -= observed
        norms = np.linalg.norm(boot, axis=1)
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


def greenkubo_check(
    cond_batch: TrajectoryBatch, law: StationaryLaw, stats: PathStatistics
) -> GreenKuboResult:
    """Conditional-mean regression check at the lags of stats: the ensemble
    mean from a shared x0 must decay as e^{-B t} x0, and the stationary
    R(t, 0) of stats must match e^{-B t} Xi - the same time dependence.

    Deviations are reported as worst componentwise z-scores against
    path-ensemble standard errors.
    """
    if cond_batch.n_paths < 2:
        raise InsufficientDataError("need at least 2 conditional paths")
    x0 = cond_batch.states[0, 0, :]
    if not (cond_batch.states[:, 0, :] == x0).all():
        raise ValueError("conditional batch paths do not share x0")
    max_z = 0.0
    max_dev = 0.0
    max_z_two_time = 0.0
    scale = 1.0 + float(np.linalg.norm(x0))
    root_p = math.sqrt(cond_batch.n_paths)
    root_q = math.sqrt(stats.n_paths)
    for t, per_path in stats.lag_products.items():
        k = int(round(t / cond_batch.dt))
        if abs(k * cond_batch.dt - t) > 1e-9 * max(1.0, t) or k > cond_batch.n_steps:
            raise ValueError(f"checkpoint {t} not on the trajectory grid")
        snap = cond_batch.states[:, k, :]
        phi = linalg.expm(-law.model.B * t)  # e^{-B t}, for both targets
        target = phi @ x0
        se = snap.std(axis=0, ddof=1) / root_p
        z = np.abs(snap.mean(axis=0) - target) / np.maximum(se, 1e-300)
        max_z = max(max_z, float(z.max()))
        max_dev = max(max_dev, float(np.linalg.norm(snap.mean(axis=0) - target)) / scale)
        target = phi @ law.Xi
        se = per_path.std(axis=0, ddof=1) / root_q
        z = np.abs(per_path.mean(axis=0) - target) / np.maximum(se, 1e-300)
        max_z_two_time = max(max_z_two_time, float(z.max()))
    return GreenKuboResult(
        max_abs_z=max_z, max_deviation=max_dev, max_abs_z_two_time=max_z_two_time
    )
