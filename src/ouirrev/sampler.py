"""Path generation: exact one-step transition sampling and an
Euler-Maruyama reference integrator.

One entry point drives the integrator: stream_batch runs a batch in chunks
of paths, in this thread or, with several workers (resolve_workers), on
worker threads, and hands each chunk's time blocks of states to a consumer
that the caller makes for the chunk's path range; it keeps nothing and
returns nothing. The estimators' consumers sum per-path lag products from the
blocks or keep the states at the lags, each into the slices of the caller's
arrays that hold its paths, and the CLI's simulate writes them as CSV rows
with their heat (estimators._StepHeat), so nothing stores a batch. A single
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

After the draws, every matrix product runs in BLAS on fixed-shape tiles of
_TILE = 64 paths: a chunk's paths fill its tiles from column 0, and its last
tile is padded with zero columns. The noise transform, each step of the
recursion and the stationary-start transform are each one stacked np.matmul
of (n, n) @ (..., n, _TILE): a stack of GEMMs of one shape, whatever the
batch. A GEMM column's bits depend only on the GEMM's shape, not on the
column's position or the other columns, and the shape never changes, so
neither do a path's bits. (OpenBLAS multiplies a product of a few columns
with other kernels and other roundings, which is why the last tile is padded
rather than cut to the batch.) One and two BLAS threads give the tile GEMMs
the same bits. Adding the noise is per path.

The integrator draws each path's normals a span of steps at a time, does the
noise transform and the recursion in blocks of time steps in preallocated
tile buffers, and hands each finished block to a consumer, so temporaries do
not grow with the run. _blocking sizes both from n and the chunk width: a
tile buffer holds at most _TIME_BLOCK steps and about _BLOCK_ELEMENTS
doubles, and a span is whole blocks of about _SPAN_NORMALS normals per path,
so the buffers grow with neither n nor the chunk. Blocking changes no bits:
the draws continue each path's stream and every term is per step.

The step matrices come from linalg.expm (which multiplies with @ and calls
solve), so they follow the BLAS build. The stationary-start factor comes from
the Lyapunov solve, the sign-function iteration on n x n matrices, whose bits
are the same with one and two BLAS threads; stationary starts are inside the
contract.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import linalg
from .model import LinearModel

if TYPE_CHECKING:  # annotations only: stationary is not imported at run time
    from .stationary import StationaryLaw

# Most doubles that the paths of one chunk hold (_budget_paths): the
# sampler's own (_path_elements) and what the chunk's consumer keeps.
_CHUNK_ELEMENT_BUDGET = 2_500_000

# Paths per BLAS tile. Every matrix product is a stack of (n, n) @ (n, _TILE)
# GEMMs, one shape for any batch, whose column bits depend only on that shape:
# not on the column, nor on how many paths or tiles share the call.
_TILE = 64

# Most time steps per pass of the noise transform and recursion, and about
# the most doubles in each of its tile buffers (time steps x n x chunk
# width), so their temporaries grow with neither the run length nor n nor the
# chunk (_blocking).
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


def _validate_grid(dt: float, steps: int) -> None:
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and > 0, got {dt}")


class _Update(NamedTuple):
    """Exact x' = Phi x + L z (drift Phi, noise_mat L = chol(Sigma_dt)) or Euler
    x' = x - dt B x + sqrt(dt) Gamma z (drift B, noise_mat Gamma)."""

    method: str
    dt: float
    drift: np.ndarray
    noise_mat: np.ndarray


def _update(model: LinearModel, dt: float, method: str) -> _Update:
    """The step update of method; exact uses Phi = e^{-B dt} and the one-step
    covariance Sigma_dt = int_0^dt e^{-B s} A e^{-B^T s} ds."""
    dt = float(dt)
    if method == "exact":
        drift = linalg.expm(-model.B * dt)
        noise_mat = linalg.chol_spd(linalg.gram_integral(model.B, model.A, dt))
    else:
        drift, noise_mat = model.B, model.Gamma
    return _Update(method, dt, drift, noise_mat)


def _tiled_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for x (..., n, paths) as (n, n) @ (n, _TILE) GEMMs on zero-padded
    tiles that the paths fill from column 0: the same bits for any count."""
    *lead, n, count = x.shape
    tiles = np.zeros((*lead, n, -(-count // _TILE), _TILE))
    tiles.reshape(*lead, n, -1)[..., :count] = x
    out = np.empty(tiles.shape)
    np.matmul(m, tiles.swapaxes(-3, -2), out=out.swapaxes(-3, -2))
    return out.reshape(*lead, n, -1)[..., :count]


def _blocking(n: int, width: int, steps: int) -> tuple[int, int]:
    """(rows, span) for a chunk of width path columns: time steps per block of
    the recursion, at most _TIME_BLOCK and about _BLOCK_ELEMENTS // (n width),
    and steps of normals drawn per path at a time, whole blocks of about
    _SPAN_NORMALS normals; neither longer than the run. Both stay 128 and 1024
    at n = 2 on one to four tiles."""
    rows = max(1, min(_TIME_BLOCK, _BLOCK_ELEMENTS // (n * width)))
    span = rows * max(1, _SPAN_NORMALS // (n * rows))
    return min(rows, steps), min(span, steps)


def _integrate(streams, start: np.ndarray, update: _Update, steps: int, consumer) -> None:
    """Advance the paths of one chunk by steps and hand every finished time
    block to consumer(k, states).

    streams holds one generator per path, positioned after any start draw;
    start, (n, paths) or (n, 1) if shared, fills the tiles from column 0.
    Each path's normals are drawn a span of steps at a time, and each span
    runs in blocks of rows steps (_blocking). Inside a block the work is
    time-major with paths on the last axis, every matrix product a stack of
    per-tile GEMMs. consumer receives states (L, n, paths) at the global
    indices k .. k + L - 1: first index 0 (the starts), then each time block
    in order. The array is reused, so it must copy what it keeps.
    """
    n, count = start.shape[0], len(streams)
    tiles = -(-count // _TILE)
    width = tiles * _TILE
    euler, dt = update.method == "euler", update.dt
    rows, span_max = _blocking(n, width, steps)
    # A spare step per path keeps the rows from being a power of two apart
    # (see the copy below).
    draws = np.empty((count, span_max + 1, n))
    block = np.zeros((rows + 1, n, tiles, _TILE))  # the padding columns stay zero
    z = np.zeros((rows, n, tiles, _TILE))  # the padding columns stay zero
    noise = np.empty(z.shape)
    fx = np.empty((tiles, n, _TILE))
    # Flat (time, n, paths) views for the copies and the consumer.
    states, zflat = block.reshape(rows + 1, n, width), z.reshape(rows, n, width)
    states[0, :, :count] = start
    # (time, tiles, n, _TILE) GEMM operands
    block_t, z_t, noise_t = block.swapaxes(1, 2), z.swapaxes(1, 2), noise.swapaxes(1, 2)
    # The recursion's per-step views, made once: x_k and x_{k+1} as GEMM
    # operands, x_{k+1} and the noise of step k.
    steps_views = list(zip(block_t[:-1], block_t[1:], block[1:], noise))
    matmul, add, subtract = np.matmul, np.add, np.subtract
    consumer(0, states[:1, :, :count])
    for s0 in range(0, steps, span_max):
        span = min(span_max, steps - s0)
        for c, stream in enumerate(streams):
            stream.standard_normal(out=draws[c, :span])
        for r in range(0, span, rows):
            b = min(rows, span - r)
            # Copy the block's draws time-major in one strided pass, which
            # reads the same step of every path at once: rows a power of two
            # apart would map to the same cache sets and evict each other.
            zflat[:b, :, :count] = draws[:, r : r + b].transpose(1, 2, 0)
            matmul(update.noise_mat, z_t[:b], out=noise_t[:b])
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
            consumer(s0 + r + 1, states[1 : b + 1, :, :count])
            block[0] = block[b]


class _Job(NamedTuple):
    """What every chunk of a batch shares: master seed, shared start (used
    when chol_xi is None), stationary-start factor, and the step update."""

    seed: int
    x0: np.ndarray
    chol_xi: np.ndarray | None
    update: _Update


def _generate(job: _Job, lo: int, hi: int, steps: int, consumer) -> None:
    """Generate paths lo .. hi-1 of a batch into consumer.

    Path p's stream supplies, in order, a standard_normal(n) block for a
    stationary start (only when chol_xi is set), then the normals of the
    increments in step order. p alone fixes its bits, not lo or hi.
    """
    streams = [path_stream(job.seed, p) for p in range(lo, hi)]
    if job.chol_xi is None:
        start = job.x0[:, None]  # shared by every path
    else:
        draws = [stream.standard_normal(job.x0.shape[0]) for stream in streams]
        start = _tiled_product(job.chol_xi, np.array(draws).T)
    _integrate(streams, start, job.update, steps, consumer)


def resolve_workers() -> int:
    """Worker count: OU_IRREV_THREADS, else 1 (serial).

    0 also means serial; there is no automatic choice.
    """
    raw = os.environ.get("OU_IRREV_THREADS", "").strip()
    try:
        workers = int(raw or 0)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ValueError(f"OU_IRREV_THREADS must be an integer >= 0, got {raw!r}")
    return max(workers, 1)


def _prepare(model, dt, steps, n_paths, seed, x0, law, method) -> _Job:
    if method not in ("exact", "euler"):
        raise ValueError(f"unknown method {method!r}")
    if not (isinstance(n_paths, (int, np.integer)) and n_paths >= 1):
        raise ValueError(f"n_paths must be a positive integer, got {n_paths}")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if x0 is not None and law is not None:
        raise ValueError("give either x0 or law, not both")
    start = np.zeros(model.n) if x0 is None else linalg._as_vector(x0, model.n, "initial state")
    _validate_grid(dt, steps)
    chol_xi = None if law is None else law.chol_Xi
    return _Job(int(seed), start, chol_xi, _update(model, dt, method))


def _budget_paths(path_elements: int) -> int:
    """Paths per chunk that hold path_elements doubles per path within
    _CHUNK_ELEMENT_BUDGET (at least one)."""
    return max(1, _CHUNK_ELEMENT_BUDGET // path_elements)


def _path_elements(n: int, steps: int) -> int:
    """Doubles the sampler holds per path: a span of draws, at most _SPAN_NORMALS
    // n steps at any chunk width, its spare step, and a generator (744 bytes)."""
    return (min(_SPAN_NORMALS // n, steps) + 1) * n + 93


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
) -> None:
    """Generate n_paths paths with per-path streams derived from seed into
    the consumers of their chunks, keeping none of them.

    Starts are either a shared point x0 (the origin when neither is given)
    or, when law is given, independent stationary draws; giving both is a
    ValueError. method is "exact" (transition sampling) or "euler".

    The paths run in chunks of at most chunk_paths, and of no more than the
    budget holds at _path_elements doubles each, rounded down to whole
    _TILE-path tiles but at least one (_chunk_bounds). Each chunk of paths
    lo .. hi-1 hands its time blocks to consumer = make_consumer(lo, hi)
    (see _integrate), made just before the chunk's first path is drawn;
    every argument is checked before any consumer is made. The worker count
    is resolve_workers(); with several workers the chunks run on threads, so
    each consumer writes only its own paths' slices of what the caller holds.
    The paths are the same bits for any chunking or worker count, so a
    consumer that sums per path in a fixed time order gives the same sums
    whatever they are.
    """
    job = _prepare(model, dt, steps, n_paths, seed, x0, law, method)
    n_workers = resolve_workers()
    own_paths = _budget_paths(_path_elements(model.n, steps))
    bounds = _chunk_bounds(n_paths, min(chunk_paths, own_paths), n_workers)

    def work(chunk: tuple[int, int]) -> None:
        _generate(job, *chunk, steps, make_consumer(*chunk))

    if n_workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor  # not imported by serial runs

        # Chunks own disjoint paths, streams and buffers, so the bits are
        # those of a serial run; numpy releases the interpreter lock in the
        # draws and the GEMMs.
        with ThreadPoolExecutor(max_workers=min(n_workers, len(bounds))) as pool:
            list(pool.map(work, bounds))  # re-raises a chunk's error
    else:
        for chunk in bounds:
            work(chunk)

