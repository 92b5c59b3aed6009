"""Path generation: exact one-step transition sampling, an
Euler-Maruyama reference integrator, and on-path accumulation of the heat
dissipation functional.

One entry point drives the integrator: stream_batch runs a batch in chunks
of paths, in this thread or, with several workers (resolve_workers), on
worker threads, and hands each chunk's time blocks to a consumer that the
caller makes for the chunk's path range; it keeps nothing else. sample_batch
is stream_batch with a consumer that copies the blocks into path-major
arrays. The estimators sum per-path lag products from the blocks, and the
CLI's simulate writes them as CSV rows, so neither stores a batch. A single
path is a batch of one.

Reproducibility contract
------------------------
Every path owns a private counter-based RNG stream: numpy's Philox generator
keyed by (master seed, path index), with Gaussian variates drawn through
numpy's ziggurat sampler (``Generator.standard_normal``). For a given
numpy/BLAS build, a path is therefore a pure function of (model, start, dt,
steps, master seed, path index) - bit for bit, independent of how many paths
run, how they are chunked, in which order, or across how many worker
threads or BLAS threads.

After the draws, every matrix product runs in BLAS on fixed-shape tiles.
Path p sits in column p mod _TILE of a tile of _TILE = 64 paths; chunks of
paths start on tile edges and the last tile is padded with zero columns. The
noise transform, each step of the recursion, the heat product S x_mid and the
stationary-start transform are each one stacked np.matmul of (n, n) @
(..., n, _TILE): a stack of GEMMs of one shape, whatever the batch. A GEMM
column's bits depend on the GEMM's shape, not on the other columns, and the
shape never changes, so neither do a path's bits. (OpenBLAS multiplies a
product of a few columns with other kernels and other roundings, which is why
the last tile is padded rather than cut to the batch.) One and two BLAS
threads give the tile GEMMs the same bits. The elementwise steps (adding the
noise, the midpoint, the dot product with dx summed over components in fixed
order, the cumulative heat) are per path.

The integrator draws each path's normals a span of steps at a time, does the
noise transform, recursion and heat sums in blocks of time steps in
preallocated tile buffers, and hands each finished block to a consumer, so
temporaries do not grow with the run. _blocking sizes both from n and the
chunk width: a tile buffer holds at most _TIME_BLOCK steps and about
_BLOCK_ELEMENTS doubles, and a span is whole blocks of about _SPAN_NORMALS
normals per path, so the buffers grow with neither n nor the chunk.
Blocking changes no bits: the draws continue each path's stream, every term
is per step, and the cumulative heat of a block is a cumsum that starts from
the carried W, the same left-to-right sum as one cumsum over all steps.

The inputs of the sampler are outside this contract. The step matrices come
from linalg.expm (which multiplies with @ and calls solve), so they follow the
BLAS build. The stationary-start factor comes from the Lyapunov solve, an LU
of the n^2 x n^2 Kronecker system that OpenBLAS factors in parallel at larger
n: its last bits differ between one BLAS thread and several (measured at
n = 16 and 32, not at n = 8; 2, 3 and 4 threads agree).

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

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .model import LinearModel
from .stationary import StationaryLaw

# Most doubles that the consumers of one chunk keep (_budget_paths): bounds
# a chunk's share of sample_batch's result or of the estimators' windows.
_CHUNK_ELEMENT_BUDGET = 5_000_000

# Paths per BLAS tile. Every matrix product is a stack of (n, n) @ (n, _TILE)
# GEMMs, one shape for any batch, and path p sits in column p mod _TILE, so
# its bits do not depend on how many paths or tiles share the call.
_TILE = 64

# Most time steps per pass of the noise transform, recursion and heat
# accumulation, and about the most doubles in each of its tile buffers (time
# steps x n x chunk width), so their temporaries grow with neither the run
# length nor n nor the chunk (_blocking).
_TIME_BLOCK = 128
_BLOCK_ELEMENTS = 65_536

# About the normals drawn per path in one standard_normal call (_blocking).
_SPAN_NORMALS = 2048

# Stream index reserved for estimator bootstraps; never a path index.
BOOTSTRAP_STREAM = 2**64 - 1


def path_stream(seed: int, index: int) -> np.random.Generator:
    """Independent RNG stream for one path: Philox keyed by (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Ensemble of paths sharing (model, dt, master seed); path-major arrays."""

    dt: float
    states: np.ndarray  # (n_paths, steps + 1, n)
    heat: np.ndarray  # (n_paths, steps + 1)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1


def _validate_grid(dt: float, steps: int) -> None:
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")


class _Update(NamedTuple):
    """Exact x' = Phi x + L z (drift Phi, noise_mat L = chol(Sigma_dt)) or Euler
    x' = x - dt B x + sqrt(dt) Gamma z (drift B, noise_mat Gamma); S = A^{-1} B."""

    method: str
    dt: float
    drift: np.ndarray
    noise_mat: np.ndarray
    s_mat: np.ndarray


def _update(model: LinearModel, dt: float, method: str) -> _Update:
    """The step update of method; exact uses Phi = e^{-B dt} and the one-step
    covariance Sigma_dt = int_0^dt e^{-B s} A e^{-B^T s} ds."""
    dt = float(dt)
    if method == "exact":
        drift = linalg.expm(-model.B * dt)
        noise_mat = linalg.chol_spd(linalg.gram_integral(model.B, model.A, dt))
    else:
        drift, noise_mat = model.B, model.Gamma
    return _Update(method, dt, drift, noise_mat, np.linalg.solve(model.A, model.B))


def _tile_matmul(m: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = m @ x per tile: x and out are (..., n, tiles, _TILE) views of
    path-on-last-axis buffers, multiplied as a stack of (n, n) @ (n, _TILE)
    GEMMs, one fixed shape for any batch."""
    np.matmul(m, x.swapaxes(-3, -2), out=out.swapaxes(-3, -2))


def _blocking(n: int, width: int, steps: int) -> tuple[int, int]:
    """(rows, span) for a chunk of width path columns: time steps per block of
    the recursion, at most _TIME_BLOCK and about _BLOCK_ELEMENTS // (n width),
    and steps of normals drawn per path at a time, whole blocks of about
    _SPAN_NORMALS normals; neither longer than the run. Both stay 128 and 1024
    at n = 2 on one to four tiles."""
    rows = max(1, min(_TIME_BLOCK, _BLOCK_ELEMENTS // (n * width)))
    span = rows * max(1, _SPAN_NORMALS // (n * rows))
    return min(rows, steps), min(span, steps)


def _integrate(
    streams, start: np.ndarray, cols: slice, update: _Update, steps: int, consumer
) -> None:
    """Advance the paths of one chunk by steps and hand every finished time
    block to consumer(k, states, heat).

    streams holds one generator per path, positioned after any start draw;
    start is (n, tiles, _TILE), its flattened columns cols holding the paths
    and the other columns zero. Each path's normals are drawn a span of steps
    at a time, and each span runs in blocks of rows steps (_blocking). Inside
    a block the work is time-major with paths on the last axis, every matrix
    product a stack of per-tile GEMMs. consumer receives states (L, n, paths)
    and heat (L, paths) at the global indices k .. k + L - 1: first index 0
    (the starts, W = 0), then each time block in order. The arrays are reused,
    so it must copy what it keeps.
    """
    n, tiles, _ = start.shape
    width = tiles * _TILE
    euler, dt = update.method == "euler", update.dt
    rows, span_max = _blocking(n, width, steps)
    # A spare step per path keeps the rows from being a power of two apart
    # (see the copy below).
    draws = np.empty((len(streams), span_max + 1, n))
    block = np.empty((rows + 1, n, tiles, _TILE))
    z = np.zeros((rows, n, tiles, _TILE))  # the padding columns stay zero
    noise, mid, prod = (np.empty(z.shape) for _ in range(3))
    fx = np.empty((tiles, n, _TILE))
    wsum = np.zeros((rows + 1, tiles, _TILE))
    # Flat (time, n, paths) views for the copies and the consumer.
    states, heat = block.reshape(rows + 1, n, width), wsum.reshape(rows + 1, width)
    zflat = z.reshape(rows, n, width)
    block[0] = start
    block_t = block.swapaxes(1, 2)  # (time, tiles, n, _TILE) GEMM operands
    # The recursion's per-step views, made once: x_k and x_{k+1} as GEMM
    # operands, x_{k+1} and the noise of step k.
    steps_views = list(zip(block_t[:-1], block_t[1:], block[1:], noise))
    matmul, add, subtract = np.matmul, np.add, np.subtract
    consumer(0, states[:1, :, cols], heat[:1, cols])
    for s0 in range(0, steps, span_max):
        span = min(span_max, steps - s0)
        for c, stream in enumerate(streams):
            stream.standard_normal(out=draws[c, :span])
        for r in range(0, span, rows):
            b = min(rows, span - r)
            # Copy the block's draws time-major in one strided pass, which
            # reads the same step of every path at once: rows a power of two
            # apart would map to the same cache sets and evict each other.
            zflat[:b, :, cols] = draws[:, r : r + b].transpose(1, 2, 0)
            _tile_matmul(update.noise_mat, z[:b], noise[:b])
            if euler:
                noise[:b] *= math.sqrt(dt)
            for x_t, y_t, y, e in steps_views[:b]:
                if euler:
                    matmul(update.drift, x_t, out=fx)
                    fx *= dt
                    subtract(x_t, fx, out=y_t)
                else:
                    matmul(update.drift, x_t, out=y_t)
                add(y, e, out=y)
            # Midpoint increments dW = -2 (S x_mid) . dx.
            cur, nxt = block[:b], block[1 : b + 1]
            np.add(nxt, cur, out=mid[:b])
            mid[:b] *= 0.5
            _tile_matmul(update.s_mat, mid[:b], prod[:b])
            np.subtract(nxt, cur, out=mid[:b])  # mid now holds dx
            prod[:b] *= mid[:b]
            w = wsum[: b + 1]
            w[1:] = prod[:b, 0]
            for i in range(1, n):
                w[1:] += prod[:b, i]
            w[1:] *= -2.0
            # Cumsum from the carried W; the first block starts at dW_1 itself,
            # as one cumsum over all steps would (0.0 + -0.0 is +0.0).
            first = 1 if s0 + r == 0 else 0
            np.cumsum(w[first:], axis=0, out=w[first:])
            consumer(s0 + r + 1, states[1 : b + 1, :, cols], heat[1 : b + 1, cols])
            block[0] = block[b]
            wsum[0] = w[b]


class _Layout:
    """sample_batch's consumer: copies each block into path-major states
    (paths, steps + 1, n) and heat (paths, steps + 1)."""

    def __init__(self, states: np.ndarray, heat: np.ndarray):
        self.states, self.heat = states, heat

    def __call__(self, k: int, states: np.ndarray, heat: np.ndarray) -> None:
        self.states[:, k : k + len(states)] = states.transpose(2, 0, 1)
        self.heat[:, k : k + len(heat)] = heat.T


class _Job(NamedTuple):
    """What every chunk of a batch shares: master seed, shared start (used
    when chol_xi is None), stationary-start factor, and the step update."""

    seed: int
    x0: np.ndarray
    chol_xi: np.ndarray | None
    update: _Update


def _generate(job: _Job, lo: int, hi: int, steps: int, consumer):
    """Generate paths lo .. hi-1 of a batch into consumer, and return it.

    Path p's stream supplies, in order, a standard_normal(n) block for a
    stationary start (only when chol_xi is set), then the normals of the
    increments in step order. The chunk's first tile starts at path
    lo - lo % _TILE, so p sits in tile column p mod _TILE: p alone fixes its
    bits, not lo or hi.
    """
    streams = [path_stream(job.seed, p) for p in range(lo, hi)]
    n, off = job.x0.shape[0], lo % _TILE
    cols = slice(off, off + hi - lo)
    start = np.zeros((n, -(-cols.stop // _TILE), _TILE))
    if job.chol_xi is None:
        start.reshape(n, -1)[:, cols] = job.x0[:, None]
    else:
        draws = np.empty((hi - lo, n))
        for c, stream in enumerate(streams):
            stream.standard_normal(out=draws[c])
        z = np.zeros(start.shape)
        z.reshape(n, -1)[:, cols] = draws.T
        _tile_matmul(job.chol_xi, z, start)
    _integrate(streams, start, cols, job.update, steps, consumer)
    return consumer


def resolve_workers() -> int:
    """Worker count: OU_IRREV_THREADS, else 1 (serial).

    0 also means serial; there is no automatic choice.
    """
    raw = os.environ.get("OU_IRREV_THREADS", "").strip()
    workers = int(raw) if raw else 0
    if workers < 0:
        raise ValueError(f"worker count must be >= 0, got {workers}")
    return max(workers, 1)


def _validate_paths(n_paths: int) -> None:
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths}")


def _prepare(model, dt, steps, n_paths, seed, x0, law, method) -> _Job:
    if method not in ("exact", "euler"):
        raise ValueError(f"unknown method {method!r}")
    _validate_paths(n_paths)
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if x0 is not None and law is not None:
        raise ValueError("give either x0 or law, not both")
    start = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    if start.shape != (model.n,):
        raise ValueError(f"initial state must have shape ({model.n},), got {start.shape}")
    if not np.all(np.isfinite(start)):
        raise ValueError("initial state contains non-finite entries")
    _validate_grid(dt, steps)
    chol_xi = None if law is None else law.chol_Xi
    return _Job(int(seed), start, chol_xi, _update(model, dt, method))


def _budget_paths(path_elements: int) -> int:
    """Paths per chunk whose consumers keep path_elements doubles per path
    within _CHUNK_ELEMENT_BUDGET (at least one)."""
    return max(1, _CHUNK_ELEMENT_BUDGET // path_elements)


def _chunk_bounds(n_paths: int, chunk_paths: int, n_workers: int) -> list[tuple[int, int]]:
    """Consecutive path ranges of whole _TILE-path tiles, except the last, so
    that only the batch's last tile is padded: at most chunk_paths paths per
    chunk but at least one tile, and split across n_workers when above 1."""
    per_worker = _TILE * -(-n_paths // (n_workers * _TILE))
    chunk = _TILE * max(1, min(chunk_paths, per_worker) // _TILE)
    return [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


def stream_batch(
    model: LinearModel,
    dt: float,
    steps: int,
    n_paths: int,
    seed: int,
    make_consumer,
    *,
    chunk_paths: int,
    x0=None,
    law: StationaryLaw | None = None,
    method: str = "exact",
) -> list:
    """Generate n_paths paths with per-path streams derived from seed, keeping
    none of them, and return the chunks' consumers in path order.

    Starts are either a shared point x0 (the origin when neither is given)
    or, when law is given, independent stationary draws; giving both is a
    ValueError. method is "exact" (transition sampling) or "euler".

    The paths run in chunks of at most chunk_paths, rounded down to whole
    _TILE-path tiles but at least one (_chunk_bounds). Each chunk of paths
    lo .. hi-1 hands its time blocks to consumer = make_consumer(lo, hi)
    (see _integrate), made just before the chunk's first path is drawn;
    every argument is checked before any consumer is made. The worker count
    is resolve_workers(); with several workers the chunks run on threads, so
    consumers must share no mutable state. The paths are the same bits for
    any chunking or worker count, so a consumer that sums per path in a fixed
    time order gives the same sums whatever they are.
    """
    job = _prepare(model, dt, steps, n_paths, seed, x0, law, method)
    n_workers = resolve_workers()
    bounds = _chunk_bounds(n_paths, chunk_paths, n_workers)

    def work(chunk: tuple[int, int]):
        return _generate(job, *chunk, steps, make_consumer(*chunk))

    if n_workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor  # not imported by serial runs

        # Chunks own disjoint paths, streams and buffers, so the bits are
        # those of a serial run; numpy releases the interpreter lock in the
        # draws and the GEMMs.
        with ThreadPoolExecutor(max_workers=min(n_workers, len(bounds))) as pool:
            return list(pool.map(work, bounds))
    return [work(chunk) for chunk in bounds]


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
) -> TrajectoryBatch:
    """The paths of stream_batch with the same arguments, stored in
    path-major arrays. Results are byte-identical for any worker count
    (resolve_workers).
    """
    _validate_grid(dt, steps)  # before the arrays are sized
    _validate_paths(n_paths)
    states = np.empty((n_paths, steps + 1, model.n))
    heat = np.empty((n_paths, steps + 1))
    stream_batch(
        model, dt, steps, n_paths, seed,
        lambda lo, hi: _Layout(states[lo:hi], heat[lo:hi]),
        chunk_paths=_budget_paths((steps + 1) * model.n), x0=x0, law=law, method=method,
    )
    return TrajectoryBatch(float(dt), states, heat)
