"""Statistical verdicts from trajectory ensembles: per-path two-time
products, reversibility asymmetry test, the heat and its rate, the
conditional-mean regression (Onsager/Green-Kubo) check, and verify's report
sections: their gates and the sweeping-model skip rule (verify_sections).

Both two-time estimators (the reversibility test and the R(t, 0) half of the
Green-Kubo check) read one PathStatistics value: the per-path lag products
x(t + lag) x(t)^T, so a verify run forms each lag's products once.
stationary_statistics is the one producer of PathStatistics and of the heat
rate (HdrEstimate). It hands an accumulator (_LagSums) the sampler's time
blocks of states while the paths are generated (sampler.stream_batch), so no
state array is kept: only per-path sums, a window of the last max(lag) states
and two GEMM pieces, and the states at burn-in and at T. Each chunk's
accumulator writes into the caller's slices of those arrays that hold its
paths, so no chunk result is joined afterwards. Each lag's products are
formed in pieces of at most _GEMM_DEPTH later times, summed per super-block
of _SUPER_BLOCK consecutive later times (aligned to t = 0), then added in
time order. The heat, defined once (_StepHeat, simulate's per-step W), is an
exact function of the states, so the heat rate comes from the lag-one
products and the end states (_heat_rates), not from a per-step sum.
greenkubo_check draws its conditional paths from a shared start the same
way, keeping only each path's state at the lags (_LagStates, into the
caller's slices), so no estimator stores a batch.

Both per-path reductions run in BLAS GEMMs whose shapes the run's parameters
fix. Each piece's lag products are (n x T) @ (T x n) products per path
(a stacked matmul, which numpy runs as one BLAS call per path; at lag 0 it
takes BLAS's A A^T route, syrk), and T is fixed by the burn-in, lag,
trajectory length and super-block alone. So a path's sums depend only on its
own states: the same bits for any path count, chunking or worker count. The
bootstrap resample means of each lag are the (resamples x paths) @
(paths x n^2) product of the resample-count matrix with the per-path
asymmetries, formed _RESAMPLE_BLOCK resamples at a time: blocks of its rows,
which have the bits of the whole product. Every summed axis is cut into
pieces of at most _GEMM_DEPTH, so both give the same bits with one or two
BLAS threads.

All estimators are deterministic functions of (master seed, parameters):
bootstrap resampling draws from a reserved stream derived from the master seed,
and cross-path reductions run in path order (heat totals through exact
summation), so reruns and different generation worker counts give identical
output. Paths are i.i.d., so standard errors and bootstrap bands resample at
the path level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .exceptions import InsufficientDataError, NumericalFailureError
from .model import Verdict
from .sampler import (
    BOOTSTRAP_STREAM,
    _budget_paths,
    _path_elements,
    _tiled_product,
    _validate_grid,
    path_stream,
    stream_batch,
)

if TYPE_CHECKING:  # annotations only: stationary is not imported at run time
    from .stationary import StationaryLaw

BOOTSTRAP_RESAMPLES = 200
# Resamples whose path indices and counts are held at once (_bootstrap_indices).
_RESAMPLE_BLOCK = 25
# Longest summed axis of one estimator GEMM (time rows or paths); see _gemm.
_GEMM_DEPTH = 256
# Studentized asymmetry above this is declared irreversible; below it the
# verdict is "consistent with reversible" (failure to reject, not proof).
REVERSIBILITY_THRESHOLD = 3.0
# verify's other gates (verify_sections):
FDR_RESIDUAL_TOL = 1e-8  # an FDR residual at or below it is zero
HDR_ZERO_SIGMAS = 3.0  # a reversible model's hdr passes within this many stderr of 0
HDR_REL_ERR_MAX = 0.05  # an irreversible model's, within this relative error of epr
GREEN_KUBO_Z_MAX = 4.0  # Green-Kubo passes if no |z| exceeds it
# Time steps per block of the streamed per-path lag sums, whose summation
# order follows these global blocks; no buffer is sized by it.
_SUPER_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class ReversibilityResult:
    statistic: float  # max over lags of studentized asymmetry norm
    threshold: float
    verdict_reversible: bool
    per_lag: dict[float, float]


@dataclass(frozen=True, eq=False)
class HdrEstimate:
    value: float
    stderr: float


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
    is the batch's master seed, from which the bootstrap stream is derived,
    and dt its time step, on whose grid every lag lies.
    """

    lag_products: dict[float, np.ndarray]
    n_paths: int
    seed: int
    dt: float


def _lag_steps(dt: float, lag: float, steps: int | None = None) -> int:
    """The number of dt steps in lag, below steps when steps is given."""
    ratio = lag / dt
    if not math.isfinite(ratio):
        raise ValueError(f"lag {lag} over dt {dt} is not a finite step count")
    rounded = int(round(ratio))
    if abs(ratio - rounded) > 1e-6 * max(1.0, abs(ratio)):
        raise ValueError(f"lag {lag} is not a multiple of dt {dt}")
    if rounded < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if steps is not None and rounded >= steps:
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


class _LagStates:
    """Consumer of a chunk of paths: writes their states at the step indices
    ells into states (len(ells), paths, n), the caller's slice for the
    chunk."""

    def __init__(self, ells, states: np.ndarray):
        self.ells, self.states = ells, states

    def __call__(self, k: int, states: np.ndarray) -> None:
        for kept, ell in zip(self.states, self.ells):
            if k <= ell < k + len(states):
                kept[...] = states[ell - k].T


def _window_rows(ells, steps: int) -> int:
    """_LagSums's window rows per path: a lag history and two GEMM pieces, cut to the run."""
    return max(ells) + min(2 * _GEMM_DEPTH, steps + 1)


class _LagSums:
    """Consumer of a chunk of paths, fed their states in global index order:
    adds into sums, one (paths, n, n) array per lag, the per-path sums of
    x(j) x(j - ell)^T for each lag ell (in steps) over j = k0 + ell .. steps,
    and writes the states at k0 and at steps into ends (2, paths, n), all the
    caller's slices for the chunk (sums starting at zero).

    Each lag's j run in pieces: inside each super-block of _SUPER_BLOCK
    consecutive j (aligned to j = 0), from its first j on, _GEMM_DEPTH at a
    time, the pieces of _gemm. A piece's products are formed by one
    _lag_products call (GEMMs per path, whose shapes depend only on k0, ell,
    steps and the super-block) as soon as its last state arrives, added to
    the lag's partial sum of the super-block, and that partial is added to
    the running sum at the super-block's end: the operations of one _gemm
    per super-block, in its order. The path-major window holds only the
    states that pending pieces still read, at most max(ell) + 2 _GEMM_DEPTH
    (_window_rows); when it is full, they are moved to its front. The sums
    therefore depend only on each path's states, not on the sampler's time
    blocks or on which other paths share the chunk.
    """

    def __init__(self, ells: tuple[int, ...], k0: int, steps: int, sums, ends):
        self.ells, self.steps, self.sums = ells, steps, sums
        self.ends = _LagStates((k0, steps), ends)
        _, count, n = ends.shape
        self.window = np.empty((count, _window_rows(ells, steps), n))
        # The window holds the states at first .. stop - 1; none before k0 is read.
        self.first = self.stop = k0
        # Per lag: the first j of its pending piece and its super-block's partial sum.
        self.starts = [k0 + ell for ell in ells]
        self.partials = [None] * len(ells)

    def __call__(self, k: int, states: np.ndarray) -> None:
        """states (L, n, paths) at indices k .. k + L - 1."""
        self.ends(k, states)
        pos = max(0, self.stop - k)
        while pos < len(states):
            if self.stop - self.first == self.window.shape[1]:
                self._shift()
            take = min(len(states) - pos, self.first + self.window.shape[1] - self.stop)
            at = self.stop - self.first
            self.window[:, at : at + take] = states[pos : pos + take].transpose(2, 0, 1)
            pos += take
            self.stop += take
            self._add_pieces()

    def _add_pieces(self) -> None:
        """Form every piece whose states are all in the window."""
        for i, (sums, ell) in enumerate(zip(self.sums, self.ells)):
            start = self.starts[i]
            while start <= self.steps:
                block_end = start - start % _SUPER_BLOCK + _SUPER_BLOCK
                end = min(start + _GEMM_DEPTH, block_end, self.steps + 1)
                if end > self.stop:
                    break
                at = start - self.first
                later = self.window[:, at : at + end - start]
                product = _lag_products(later, self.window[:, at - ell : at - ell + end - start])
                if self.partials[i] is None:
                    self.partials[i] = product
                else:
                    self.partials[i] += product
                if end in (block_end, self.steps + 1):
                    sums += self.partials[i]
                    self.partials[i] = None
                start = end
            self.starts[i] = start

    def _shift(self) -> None:
        """Move the states that pending pieces read to the window's front, in
        slices that do not overlap their destination, so numpy copies them
        without a temporary buffer."""
        keep = min(s - ell for s, ell in zip(self.starts, self.ells) if s <= self.steps)
        gap, rows = keep - self.first, self.stop - keep
        for lo in range(0, rows, gap):
            hi = min(lo + gap, rows)
            self.window[:, lo:hi] = self.window[:, lo + gap : hi + gap]
        self.first = keep


class _StepHeat:
    """The heat W of a chunk of paths at every step, for a consumer of
    stream_batch: fed the starts at k = 0, then each time block's states
    (L, n, paths) at k .. k + L - 1 in order, it returns W (L, paths) at the
    same indices, carrying the last state and W across blocks.

    W is the package's one heat functional, the Stratonovich midpoint rule
    (Sekimoto 1998): from W(0) = 0 each step adds dW = -2 (S x_mid) . dx, with
    S = s_mat = A^{-1} B and x_mid the chord midpoint. For a reversible model
    S is symmetric and each increment is exactly the increment of the
    quadratic potential.

    S x_mid is, per step, the sampler's (n, n) @ (n, width) GEMM on paths
    zero-padded to whole tiles (sampler._tiled_product), the same bits for any
    batch. The midpoint, dx and the dot product, summed over components in
    fixed order, are elementwise per path.
    The running sum of a block is a cumsum that starts from the carried W,
    and the first block's from dW_1 itself, as one cumsum over all steps
    would (0.0 + -0.0 is +0.0). So W is the same bits for any time blocks,
    chunking or worker count.
    """

    def __init__(self, s_mat: np.ndarray):
        self.s_mat = s_mat

    def __call__(self, k: int, states: np.ndarray) -> np.ndarray:
        b, n, count = states.shape
        if k == 0:  # the starts; the sampler reuses the array
            self.x, self.w = states[0].copy(), 0.0
            return np.zeros((b, count))
        x = np.concatenate((self.x[None], states))  # (b + 1, n, count)
        mid = (x[1:] + x[:-1]) * 0.5
        prod = _tiled_product(self.s_mat, mid) * (x[1:] - x[:-1])
        w = np.empty((b + 1, count))
        w[0], w[1:] = self.w, prod[:, 0]
        for i in range(1, n):
            w[1:] += prod[:, i]
        w[1:] *= -2.0
        first = 1 if k == 1 else 0
        np.cumsum(w[first:], axis=0, out=w[first:])
        self.x, self.w = x[-1], w[-1]
        return w[1:]


def _heat_rates(s_mat, ends, lag_one, span: float, dt: float) -> np.ndarray:
    """Per-path rates (W(T) - W(k0)) / span of the midpoint heat W of
    _StepHeat, with S = s_mat, over span = (T - k0) dt, from the states at k0
    and T, ends (2, paths, n), and the per-path mean of x(j) x(j - 1)^T over
    j = k0 + 1 .. T, lag_one (paths, n, n).

    No per-step sum is needed: with q(x) = x^T S x and P1 the sum of
    x(j) x(j - 1)^T, the midpoint increments add up exactly to
    W(T) - W(k0) = -[q(x(T)) - q(x(k0))] - tr((S - S^T) P1^T). The einsums
    run numpy's own loops, not BLAS, so a path's rate depends only on its own
    ends and sums.
    """
    q = np.einsum("kpi,ij,kpj->kp", ends, s_mat, ends)
    return (q[0] - q[1]) / span - np.einsum("pij,ij->p", lag_one, s_mat - s_mat.T) / dt


def _checked_budget(dt, steps, n_paths, lags, burn_in):
    """stationary_statistics's budget checks; returns k0, the lags, their steps and span."""
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
    ells = tuple(_lag_steps(dt, lag, steps) for lag in distinct)
    if any(k0 + ell > steps for ell in ells):
        raise InsufficientDataError("no admissible time pairs after burn-in at this lag")
    span = (steps - k0) * dt
    if span <= 0.0 or n_paths < 2:
        raise InsufficientDataError("need at least 2 paths and a nonempty window after burn-in")
    return k0, distinct, ells, span


def stationary_statistics(
    law: StationaryLaw,
    dt: float,
    steps: int,
    n_paths: int,
    seed: int,
    lags,
    burn_in: float = 0.0,
) -> tuple[PathStatistics, HdrEstimate]:
    """Per-path lag products and heat rate of the n_paths stationary paths
    of sampler.stream_batch(law.model, dt, steps, n_paths, seed, ...,
    law=law) after burn-in, computed while the paths are generated: no state
    array is kept, only per-path lag sums, a window of the last max(lag)
    states and two GEMM pieces (_LagSums) and the states at burn-in and at T.

    The lag products are the per-path averages of x(t + lag) x(t)^T for each
    distinct lag (a repeated lag is computed once). The heat rate is, per
    path, (W(T) - W(burn_in)) / (T - burn_in) of the midpoint heat W of
    _StepHeat, averaged over paths (exact summation), with its standard error
    over paths. It is read from the lag-one products, summed alongside the
    others and shared with a lag of one step, and the states at burn-in and
    at T (_heat_rates).

    For a reversible model the stationary rate is zero like the entropy
    production rate (_StepHeat). For an irreversible model the stationary
    mean of one increment over a step h is tr((S - S^T) e^{-B h} Xi), which
    falls below epr * h by a relative O(h ||B||): on the rotational model
    B = [[1, 1], [-1, 1]], Gamma = I at dt = 0.01 the rate is 1.98007
    against epr = 2.

    Raises
    ------
    ValueError
        As sampler.stream_batch does; on a negative or NaN burn-in, an empty lag
        list, or a lag that is negative, off the dt grid, not a finite number
        of steps or not shorter than the trajectory.
    InsufficientDataError
        If burn-in discards the whole trajectory, a lag leaves no time pairs,
        or fewer than two paths are asked for.
    NumericalFailureError
        If a lag sum or heat rate overflows (after the paths are drawn).

    Every check runs before any path is drawn (_checked_budget).
    """
    k0, distinct, ells, span = _checked_budget(dt, steps, n_paths, lags, burn_in)
    summed = ells if 1 in ells else (*ells, 1)  # the heat rate reads lag one
    n = law.model.n
    # The lag sums, until divided below; one array per lag, so that a lag one
    # summed only for the heat rate is freed on return.
    means = [np.zeros((n_paths, n, n)) for _ in summed]
    ends = np.empty((2, n_paths, n))
    stream_batch(
        law.model, dt, steps, n_paths, seed,
        lambda lo, hi: _LagSums(summed, k0, steps, [m[lo:hi] for m in means], ends[:, lo:hi]),
        # per path: the accumulator's window and partial sums, and the sampler's own
        chunk_paths=_budget_paths(
            (_window_rows(summed, steps) + len(summed) * n) * n + _path_elements(n, steps)
        ),
        law=law,
    )
    for ell, total in zip(summed, means):
        total /= steps + 1 - k0 - ell
        total.setflags(write=False)  # shared by every estimator that reads stats
    products = dict(zip(distinct, means))  # the requested lags only
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        rates = _heat_rates(law.model.ainv_b, ends, means[summed.index(1)], span, dt)
        stderr = float(rates.std(ddof=1)) / math.sqrt(n_paths)  # finite only if every rate is
    if not (math.isfinite(stderr) and all(np.isfinite(m).all() for m in means)):
        raise NumericalFailureError("lag sums or heat rates overflow")
    hdr = HdrEstimate(value=math.fsum(rates.tolist()) / n_paths, stderr=stderr)
    stats = PathStatistics(lag_products=products, n_paths=n_paths, seed=int(seed), dt=float(dt))
    return stats, hdr


def _bootstrap_indices(stats: PathStatistics, n_resamples: int):
    """The path indices of n_resamples bootstrap resamples, (resamples, paths),
    in successive blocks of at most _RESAMPLE_BLOCK resamples as (first
    resample, block). Every block is drawn from the one stream of stats's
    seed, so together they are the one (n_resamples, paths) draw."""
    rng = path_stream(stats.seed, BOOTSTRAP_STREAM)
    for lo in range(0, n_resamples, _RESAMPLE_BLOCK):
        size = (min(_RESAMPLE_BLOCK, n_resamples - lo), stats.n_paths)
        yield lo, rng.integers(0, stats.n_paths, size=size)


def _studentized(observed: float, norms: np.ndarray) -> float:
    """observed against the bootstrap norms: (observed - mean) / std."""
    spread = float(norms.std(ddof=1))  # finite only if every norm is
    if not math.isfinite(observed + spread):
        raise NumericalFailureError("two-time asymmetry norms overflow")
    if spread <= 0.0:
        raise InsufficientDataError("degenerate bootstrap spread; too little data")
    return (observed - float(norms.mean())) / spread


@np.errstate(over="ignore", invalid="ignore")  # a norm that overflows is reported by _studentized
def reversibility_test(stats: PathStatistics) -> ReversibilityResult:
    """Test the time-reversal symmetry R(tau) = R(tau)^T of the two-time
    covariance (sufficient for Gaussian processes).

    The statistic is the max over lags of the asymmetry norm
    ||R_hat - R_hat^T||_F, studentized against its centered path-bootstrap
    null distribution: the same max-over-lags norm is formed from
    resampled-minus-observed asymmetries, and the observed value is compared
    through that distribution's mean and SE. Taking the max inside the
    bootstrap accounts for the multiplicity over lags, which keeps the
    false-positive rate at the threshold calibrated. Above
    REVERSIBILITY_THRESHOLD the verdict is irreversible; below it the data
    are consistent with reversibility (the test cannot prove it). The lags
    are those of stats; it needs at least two.
    """
    if len(stats.lag_products) < 2:
        raise ValueError("need at least two distinct lags")
    n_paths = stats.n_paths
    asyms = [
        (per_path - per_path.transpose(0, 2, 1)).reshape(n_paths, -1)
        for per_path in stats.lag_products.values()
    ]
    boots = [np.empty((BOOTSTRAP_RESAMPLES, asym.shape[1])) for asym in asyms]
    counts = np.empty((min(_RESAMPLE_BLOCK, BOOTSTRAP_RESAMPLES), n_paths))
    for lo, resamples in _bootstrap_indices(stats, BOOTSTRAP_RESAMPLES):
        # block[r, p]: how often resample lo + r drew path p, so that each
        # lag's resample means are GEMM rows of it with the per-path
        # asymmetries, the same bits as rows of one GEMM of every resample.
        block = counts[: len(resamples)]
        for r in range(len(block)):
            block[r] = np.bincount(resamples[r], minlength=n_paths)
        del resamples  # freed before the next block is drawn
        for asym, boot in zip(asyms, boots):
            boot[lo : lo + len(block)] = _gemm(block, asym)
    obs_norms, boot_norms = [], []
    for asym, boot in zip(asyms, boots):
        observed = asym.mean(axis=0)
        boot /= n_paths
        boot -= observed
        obs_norms.append(float(np.linalg.norm(observed)))
        boot_norms.append(np.linalg.norm(boot, axis=1))
    per_lag = dict(zip(stats.lag_products, map(_studentized, obs_norms, boot_norms)))
    statistic = _studentized(max(obs_norms), np.max(np.column_stack(boot_norms), axis=1))
    return ReversibilityResult(
        statistic=statistic,
        threshold=REVERSIBILITY_THRESHOLD,
        verdict_reversible=statistic <= REVERSIBILITY_THRESHOLD,
        per_lag=per_lag,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def _worst_z(samples: np.ndarray, target: np.ndarray) -> float:
    """The largest |mean - target| / stderr of an entry of samples' path mean."""
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    worst = float((np.abs(samples.mean(axis=0) - target) / np.maximum(se, 1e-300)).max())
    if not math.isfinite(worst + float(se.max())):
        raise NumericalFailureError("Green-Kubo standard errors or z-scores overflow")
    return worst


def greenkubo_check(
    law: StationaryLaw, stats: PathStatistics, n_paths: int, seed: int, x0
) -> GreenKuboResult:
    """Conditional-mean regression check at the lags of stats: the mean of
    n_paths paths from the shared start x0 must decay as e^{-B t} x0, and the
    stationary R(t, 0) of stats must match e^{-B t} Xi - the same time
    dependence. The paths are drawn at stats.dt, and both targets are taken
    at t = ell dt, the time of the ell steps that stats and the paths sample
    at a lag.

    The paths are drawn with master seed seed (sampler.stream_batch), run
    exactly as long as the longest lag, and only their states at the lags
    are kept, each chunk's in the caller's slice. Deviations are reported as
    worst componentwise z-scores against path-ensemble standard errors.

    Raises
    ------
    ValueError
        As sampler.stream_batch does.
    InsufficientDataError
        If fewer than two paths are asked for.
    NumericalFailureError
        If a standard error or z-score overflows (after the paths are drawn).

    Every other check runs before any path is drawn.
    """
    if n_paths < 2:
        raise InsufficientDataError("need at least 2 conditional paths")
    dt, n = stats.dt, law.model.n
    ells = [_lag_steps(dt, lag) for lag in stats.lag_products]
    snaps = np.empty((len(ells), n_paths, n))
    stream_batch(
        law.model, dt, max(1, max(ells)), n_paths, seed,
        lambda lo, hi: _LagStates(ells, snaps[:, lo:hi]),
        chunk_paths=_budget_paths(len(ells) * n),
        x0=x0,
    )
    x0 = np.asarray(x0, dtype=float)
    max_z = max_dev = max_z_two_time = 0.0
    scale = 1.0 + float(np.linalg.norm(x0))
    for ell, per_path, snap in zip(ells, stats.lag_products.values(), snaps):
        phi = linalg.expm(linalg._scaled(-law.model.B, ell * dt))  # e^{-B t}, for both targets
        target = phi @ x0
        max_z = max(max_z, _worst_z(snap, target))
        max_dev = max(max_dev, float(np.linalg.norm(snap.mean(axis=0) - target)) / scale)
        max_z_two_time = max(max_z_two_time, _worst_z(per_path, phi @ law.Xi))
    return GreenKuboResult(
        max_abs_z=max_z, max_deviation=max_dev, max_abs_z_two_time=max_z_two_time
    )


def verify_sections(
    law: StationaryLaw | None, *, dt: float, steps: int, n_paths: int, seed: int, lags, burn_in
) -> dict[str, dict]:
    """verify's fdr, epr_vs_hdr_mc, two_time_symmetry and green_kubo sections
    on the stationary law law: each one's statistics and whether they pass
    its gate. On a sweeping model (law None) each is skipped, with the reason,
    and so is two_time_symmetry on a one-dimensional model.

    The statistics are stationary_statistics(law, dt, steps, n_paths, seed,
    lags, burn_in); the Green-Kubo check's n_paths paths start at
    x0 = (1, ..., 1) with master seed seed + 1 (mod 2**64). A sweeping
    model's budget is checked too, with stationary_statistics's errors.
    """
    if law is None:
        _checked_budget(dt, steps, n_paths, lags, burn_in)
        reason = "no stationary law (sweeping model)"
        names = ("fdr", "epr_vs_hdr_mc", "two_time_symmetry", "green_kubo")
        return {name: {"skipped": True, "reason": reason} for name in names}
    reversible = law.classification.verdict is Verdict.REVERSIBLE
    sections: dict[str, dict] = {}

    standard, strong = law.fdr_standard_residual, law.fdr_strong_residual
    strong_zero = strong <= FDR_RESIDUAL_TOL
    sections["fdr"] = {
        "standard_residual": standard,
        "strong_residual": strong,
        "strong_residual_zero": strong_zero,
        "pass": bool(standard <= FDR_RESIDUAL_TOL and strong_zero == reversible),
    }

    stats, hdr = stationary_statistics(law, dt, steps, n_paths, seed, lags, burn_in)
    if reversible:
        hdr_pass = abs(hdr.value) <= HDR_ZERO_SIGMAS * hdr.stderr
        criterion = f"|hdr| <= {HDR_ZERO_SIGMAS!r} * stderr"
    else:
        hdr_pass = abs(hdr.value - law.epr) <= HDR_REL_ERR_MAX * law.epr
        criterion = f"relative error <= {HDR_REL_ERR_MAX!r}"
    sections["epr_vs_hdr_mc"] = {
        "epr": law.epr,
        "hdr_hat": hdr.value,
        "hdr_stderr": hdr.stderr,
        "criterion": criterion,
        "pass": bool(hdr_pass),
    }

    if law.model.n == 1:
        # R(tau) is 1 x 1: every asymmetry is exactly 0, as is its bootstrap spread.
        reason = "one-dimensional model: R(tau) is 1x1, symmetric by construction"
        sections["two_time_symmetry"] = {"skipped": True, "reason": reason}
    else:
        rev = reversibility_test(stats)
        sections["two_time_symmetry"] = {
            "statistic": rev.statistic,
            "threshold": rev.threshold,
            "verdict_reversible": rev.verdict_reversible,
            "classified_reversible": reversible,
            "pass": bool(rev.verdict_reversible == reversible),
        }

    gk = greenkubo_check(
        law, stats, n_paths=n_paths, seed=(seed + 1) % 2**64, x0=np.ones(law.model.n)
    )
    gk_pass = gk.max_abs_z <= GREEN_KUBO_Z_MAX and gk.max_abs_z_two_time <= GREEN_KUBO_Z_MAX
    sections["green_kubo"] = {
        "max_abs_z_conditional_mean": gk.max_abs_z,
        "max_abs_z_two_time": gk.max_abs_z_two_time,
        "max_deviation": gk.max_deviation,
        "pass": bool(gk_pass),
    }
    return sections
