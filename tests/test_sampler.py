import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from ouirrev import linalg, sampler
from ouirrev.estimators import _LagSums, _StepHeat
from ouirrev.model import LinearModel, build_model
from ouirrev.sampler import (
    _TILE,
    _TIME_BLOCK,
    _blocking,
    _generate,
    _prepare,
    _update,
    path_stream,
    resolve_workers,
    stream_batch,
)
from ouirrev.stationary import stationary_law
from ouirrev.transient import potential, propagate

from conftest import rotational_model, sin_model
from oracles import Layout, colmatvec, integrate_paths, sample_batch


def _stream(m: LinearModel, dt, steps, n_paths, seed, **kwargs) -> None:
    """stream_batch into consumers that keep nothing: the argument checks
    without a stored batch."""
    stream_batch(
        m, dt, steps, n_paths, seed, lambda lo, hi: lambda k, states: None,
        chunk_paths=_TILE, **kwargs,
    )


def _exact_step(m: LinearModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Phi and Sigma_dt = L L^T of the exact update the sampler integrates."""
    update = _update(m, dt, "exact")
    return update.drift, update.noise_mat @ update.noise_mat.T


class TestExactUpdate:
    def test_scalar_values(self):
        m = build_model([[1.0]], [[1.0]])
        phi, sigma = _exact_step(m, 0.1)
        assert phi[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert sigma[0, 0] == pytest.approx((1 - math.exp(-0.2)) / 2, rel=1e-12)

    def test_factors_from_linalg(self):
        m = rotational_model(0.7)
        update = _update(m, 0.1, "exact")
        assert np.array_equal(update.drift, linalg.expm(-m.B * 0.1))
        sigma = linalg.gram_integral(m.B, m.A, 0.1)
        assert np.array_equal(update.noise_mat, linalg.chol_spd(sigma))

    def test_small_dt_expansion(self):
        m = rotational_model(1.0)
        dt = 1e-5
        phi, sigma = _exact_step(m, dt)
        assert np.max(np.abs(phi - np.eye(2))) < 2 * dt
        assert np.max(np.abs(sigma / dt - m.A)) < 2 * dt

    def test_half_step_composition(self):
        m = rotational_model(0.7)
        phi_full, sigma_full = _exact_step(m, 0.2)
        phi, sigma_half = _exact_step(m, 0.1)
        assert np.max(np.abs(phi_full - phi @ phi)) < 1e-12
        sigma = phi @ sigma_half @ phi.T + sigma_half
        assert np.max(np.abs(sigma_full - sigma)) < 1e-12

    def test_invalid_dt(self):
        with pytest.raises(ValueError, match="dt"):
            _stream(rotational_model(1.0), dt=0.0, steps=10, n_paths=1, seed=0)


class TestMarginalIdentity:
    def test_recursion_moments_match_propagate(self):
        # deterministic moment identity; no sampling involved
        m = rotational_model(0.9)
        dt, k_max = 0.05, 64
        phi, sigma = _exact_step(m, dt)
        x0 = np.array([1.5, -0.5])
        mean, cov = x0.copy(), np.zeros((2, 2))
        for k in range(1, k_max + 1):
            mean = phi @ mean
            cov = phi @ cov @ phi.T + sigma
            ref = propagate(m, x0, k * dt)
            assert np.max(np.abs(mean - ref.mean)) < 1e-12
            assert np.max(np.abs(cov - ref.cov)) < 1e-12

    def test_step_size_invariance(self):
        # (dt, 2N) and (2dt, N) give the same marginal law at common times
        m = rotational_model(1.3)
        phi_fine, sigma_fine = _exact_step(m, 0.05)
        phi_coarse, sigma_coarse = _exact_step(m, 0.1)
        assert np.max(np.abs(phi_coarse - phi_fine @ phi_fine)) < 1e-13
        sigma = phi_fine @ sigma_fine @ phi_fine.T + sigma_fine
        assert np.max(np.abs(sigma_coarse - sigma)) < 1e-13


class TestSamplePath:
    def test_reproducible_bit_for_bit(self):
        m = rotational_model(1.0)
        a = sample_batch(m, 0.01, 200, n_paths=1, seed=5, x0=[1.0, 0.0])
        b = sample_batch(m, 0.01, 200, n_paths=1, seed=5, x0=[1.0, 0.0])
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.heat, b.heat)

    def test_heat_starts_at_zero_and_lengths(self):
        m = rotational_model(1.0)
        batch = sample_batch(m, 0.01, 50, n_paths=1, seed=1)
        assert batch.heat[0, 0] == 0.0
        assert batch.heat.shape == (1, 51)
        assert batch.states.shape == (1, 51, 2)

    def test_ensemble_matches_analytic_moments(self):
        m = rotational_model(1.0)
        x0 = np.array([1.0, -1.0])
        batch = sample_batch(m, dt=0.02, steps=50, n_paths=10_000, seed=11, x0=x0)
        ref = propagate(m, x0, 1.0)
        final = batch.states[:, -1, :]
        se = final.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
        assert np.all(np.abs(final.mean(axis=0) - ref.mean) <= 4 * se)
        centered = final - ref.mean
        prods = centered[:, :, None] * centered[:, None, :]
        se_cov = prods.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
        assert np.all(np.abs(prods.mean(axis=0) - ref.cov) <= 4 * se_cov)

    def test_heat_is_potential_difference_on_reversible_paths(self, reversible_2d):
        # midpoint rule is exact on quadratic potentials, path by path
        law = stationary_law(reversible_2d)
        batch = sample_batch(reversible_2d, dt=0.01, steps=2000, n_paths=20, seed=3, law=law)
        for states, heat in zip(batch.states, batch.heat):
            u0 = potential(reversible_2d, states[0])
            u_end = potential(reversible_2d, states[-1])
            assert abs(heat[-1] + u_end - u0) <= 1e-10 * (1 + abs(u0))

    def test_single_step_small_dt(self):
        m = rotational_model(1.0)
        x0 = [1.0, 0.0]
        for dt in (1e-4, 1e-6):
            batch = sample_batch(m, dt, 1, n_paths=1, seed=9, x0=x0)
            assert np.max(np.abs(batch.states[0, 1] - x0)) < 50 * math.sqrt(dt)
            assert abs(batch.heat[0, 1]) < 50 * math.sqrt(dt)

    def test_batched_start_rejected(self):
        # x0 is one shared start; a stack of starts is not silently broadcast
        m = rotational_model(1.0)
        for method in ("exact", "euler"):
            with pytest.raises(ValueError, match="initial state"):
                _stream(m, 0.01, 10, n_paths=1, seed=0, x0=[[1.0, 0.0], [0.0, 1.0]], method=method)

    def test_invalid_arguments(self):
        m = rotational_model(1.0)
        with pytest.raises(ValueError, match="shape"):
            _stream(m, 0.01, 10, n_paths=1, seed=0, x0=[1.0])
        with pytest.raises(ValueError, match="non-finite"):
            _stream(m, 0.01, 10, n_paths=1, seed=0, x0=[1.0, math.nan])
        with pytest.raises(ValueError, match="dt must be"):
            _stream(m, -0.01, 10, n_paths=1, seed=0, x0=[1.0, 0.0])
        with pytest.raises(ValueError, match="steps must be"):
            _stream(m, 0.01, 0, n_paths=1, seed=0, x0=[1.0, 0.0])
        for n_paths in (0, -1, 2.0):
            with pytest.raises(ValueError, match="n_paths must be"):
                _stream(m, 0.01, 10, n_paths=n_paths, seed=0, x0=[1.0, 0.0])
        with pytest.raises(ValueError, match="unknown method 'milstein'"):
            _stream(m, 0.01, 10, n_paths=1, seed=0, method="milstein")
        with pytest.raises(ValueError, match="seed must fit"):
            _stream(m, 0.01, 10, n_paths=1, seed=2**64)


class TestStationaryStart:
    def test_draw_covariance(self):
        # the starts of 100 000 independent paths, one draw per path stream
        m = rotational_model(1.0)
        law = stationary_law(m)
        draws = sample_batch(m, 0.01, 1, n_paths=100_000, seed=21, law=law).states[:, 0]
        se_mean = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * se_mean)
        prods = draws[:, :, None] * draws[:, None, :]
        se = prods.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(prods.mean(axis=0) - law.Xi) <= 4 * se)

    def test_reproducible(self):
        # path p starts at chol(Xi) z with z the first n normals of its stream
        m = rotational_model(1.0)
        law = stationary_law(m)
        a = sample_batch(m, 0.01, 1, n_paths=3, seed=2, law=law).states[:, 0]
        b = sample_batch(m, 0.01, 1, n_paths=3, seed=2, law=law).states[:, 0]
        assert np.array_equal(a, b)
        for p in range(3):
            tile = np.zeros((m.n, _TILE))  # one (n, n) @ (n, _TILE) GEMM, p in column p
            tile[:, p] = path_stream(2, p).standard_normal(m.n)
            assert np.array_equal(a[p], (law.chol_Xi @ tile)[:, p])

    def test_x0_with_law_rejected(self):
        # a shared start and stationary draws are exclusive; neither wins silently
        m = rotational_model(1.0)
        law = stationary_law(m)
        with pytest.raises(ValueError, match="not both"):
            _stream(m, dt=0.01, steps=10, n_paths=2, seed=1, x0=[1.0, 0.0], law=law)


class TestEulerMaruyama:
    def test_scalar_variance_bias(self):
        # AR(1) stationary variance 1 / (2 lam - lam^2 dt), vs exact 1 / (2 lam)
        m = build_model([[1.0]], [[1.0]])
        for dt, steps in ((0.2, 1000), (0.05, 4000)):
            batch = sample_batch(m, dt=dt, steps=steps, n_paths=400, seed=17, method="euler")
            burn = int(10 / dt)
            samples = batch.states[:, burn:, 0]
            var = float((samples**2).mean())
            predicted = 1.0 / (2.0 - dt)
            assert var == pytest.approx(predicted, rel=0.05)
        # bias shrinks with dt: the dt = 0.05 estimate must sit closer to 0.5
        coarse = sample_batch(m, dt=0.2, steps=1000, n_paths=400, seed=19, method="euler")
        fine = sample_batch(m, dt=0.05, steps=4000, n_paths=400, seed=19, method="euler")
        var_c = float((coarse.states[:, 50:, 0] ** 2).mean())
        var_f = float((fine.states[:, 200:, 0] ** 2).mean())
        assert abs(var_f - 0.5) < abs(var_c - 0.5)

    def test_weak_convergence_to_exact_moments(self):
        m = rotational_model(1.0)
        x0 = np.array([2.0, 0.0])
        ref = propagate(m, x0, 1.0)
        errs = []
        for dt in (0.1, 0.01):
            steps = int(round(1.0 / dt))
            batch = sample_batch(m, dt=dt, steps=steps, n_paths=20_000, seed=23, x0=x0, method="euler")
            errs.append(np.max(np.abs(batch.states[:, -1, :].mean(axis=0) - ref.mean)))
        assert errs[1] < errs[0]

    def test_zero_noise_limit_is_explicit_euler(self):
        m = build_model([[1.0, 0.5], [-0.5, 1.0]], 1e-5 * np.eye(2))
        dt, steps = 0.01, 100
        batch = sample_batch(m, dt, steps, n_paths=1, seed=0, x0=[1.0, 1.0], method="euler")
        x = np.array([1.0, 1.0])
        for _ in range(steps):
            x = x - dt * (m.B @ x)
        assert np.max(np.abs(batch.states[0, -1] - x)) < 1e-4


class TestBatchDeterminism:
    def test_batch_equals_one_path_chunks(self):
        # path k of one chunk of 5 paths is the same bits as path k generated alone
        m = rotational_model(1.0)
        batch = sample_batch(m, dt=0.01, steps=100, n_paths=5, seed=101, x0=[1.0, 0.0])
        job = _prepare(m, 0.01, 100, 5, 101, [1.0, 0.0], None, "exact")
        for k in range(5):
            alone = Layout(np.empty((1, 101, m.n)), np.empty((1, 101)), m)
            _generate(job, k, k + 1, 100, alone)
            assert np.array_equal(batch.states[k], alone.states[0])
            assert np.array_equal(batch.heat[k], alone.heat[0])

    def test_worker_count_invariance(self, monkeypatch):
        # 130 paths: 2 and 5 workers split them into 2 and 3 tile-aligned chunks
        m = rotational_model(1.0)
        law = stationary_law(m)
        monkeypatch.setenv("OU_IRREV_THREADS", "1")
        ref = sample_batch(m, dt=0.01, steps=200, n_paths=130, seed=7, law=law)
        # More workers than cores, switching threads as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in ("2", "5"):
                monkeypatch.setenv("OU_IRREV_THREADS", workers)
                alt = sample_batch(m, dt=0.01, steps=200, n_paths=130, seed=7, law=law)
                assert np.array_equal(ref.states, alt.states)
                assert np.array_equal(ref.heat, alt.heat)
        finally:
            sys.setswitchinterval(interval)

    def test_path_count_invariance(self):
        # path k is the same whether 3 or 30 paths are generated
        m = rotational_model(1.0)
        small = sample_batch(m, dt=0.01, steps=50, n_paths=3, seed=4, x0=[0.5, 0.5])
        large = sample_batch(m, dt=0.01, steps=50, n_paths=30, seed=4, x0=[0.5, 0.5])
        assert np.array_equal(small.states, large.states[:3])

    def test_stationary_heat_rate_matches_epr(self):
        m = rotational_model(1.0)
        law = stationary_law(m)
        batch = sample_batch(m, dt=0.01, steps=10_000, n_paths=200, seed=31, law=law)
        rates = (batch.heat[:, -1] - batch.heat[:, 0]) / (batch.n_steps * batch.dt)
        assert float(rates.mean()) == pytest.approx(2.0, rel=0.05)

    def test_reversible_long_run_heat_rate_near_zero(self, reversible_2d):
        law = stationary_law(reversible_2d)
        batch = sample_batch(reversible_2d, dt=0.01, steps=5000, n_paths=100, seed=37, law=law)
        rates = (batch.heat[:, -1] - batch.heat[:, 0]) / (batch.n_steps * batch.dt)
        se = rates.std(ddof=1) / math.sqrt(batch.n_paths)
        assert abs(rates.mean()) <= 3 * se


# (n, method, start): the tile tests run each at 130 paths (two full tiles and
# two paths in a third) over one time block and two steps into the next.
_TILE_CASES = [(2, "exact", "law"), (16, "exact", "law"), (16, "euler", "x0"), (3, "euler", "law")]
_TILE_STEPS = _TIME_BLOCK + 2


def _case_id(case) -> str:
    return "-".join(map(str, case))


def _tile_batch(n, method, start, n_paths):
    m = sin_model(n)
    kwargs = {"law": stationary_law(m)} if start == "law" else {"x0": np.linspace(1.0, -0.5, n)}
    return sample_batch(m, 0.01, _TILE_STEPS, n_paths, 41, method=method, **kwargs)


def _assert_same_paths(batch, ref):
    assert np.array_equal(batch.states, ref.states[: batch.n_paths])
    assert np.array_equal(batch.heat, ref.heat[: batch.n_paths])


class TestTileBoundaries:
    """A path's bits do not depend on where tiles and chunks of the batch
    end: path counts on both sides of a tile edge, chunk budgets that would
    end mid-tile, worker counts, and paths generated alone or in a chunk
    that starts mid-tile."""

    @pytest.mark.parametrize("case", _TILE_CASES, ids=_case_id)
    def test_path_count(self, case):
        ref = _tile_batch(*case, 130)
        for count in (1, 63, 64, 65):
            _assert_same_paths(_tile_batch(*case, count), ref)

    @pytest.mark.parametrize("case", _TILE_CASES, ids=_case_id)
    def test_chunking_and_workers(self, case, monkeypatch):
        n = case[0]
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        ref = _tile_batch(*case, 130)
        path_elements = (_TILE_STEPS + 1) * n
        for paths_per_budget in (40, 100):  # a budget chunk would end mid-tile
            monkeypatch.setattr(sampler, "_CHUNK_ELEMENT_BUDGET", paths_per_budget * path_elements)
            for workers in ("1", "2", "5"):
                monkeypatch.setenv("OU_IRREV_THREADS", workers)
                chunk_paths = sampler._budget_paths(path_elements)
                bounds = sampler._chunk_bounds(130, chunk_paths, int(workers))
                assert len(bounds) > 1 and all(lo % _TILE == 0 for lo, _ in bounds)
                _assert_same_paths(_tile_batch(*case, 130), ref)

    @pytest.mark.parametrize("case", _TILE_CASES, ids=_case_id)
    def test_single_paths(self, case):
        n, method, start = case
        ref = _tile_batch(*case, 130)
        m = sin_model(n)
        x0, law = (None, stationary_law(m)) if start == "law" else (np.linspace(1.0, -0.5, n), None)
        job = _prepare(m, 0.01, _TILE_STEPS, 130, 41, x0, law, method)
        # single paths on both sides of tile edges, and a chunk across one:
        # each fills its own tile from column 0, the batch's columns elsewhere
        for lo, hi in ((0, 1), (63, 64), (64, 65), (129, 130), (62, 66)):
            shape = (hi - lo, _TILE_STEPS + 1)
            alone = Layout(np.empty((*shape, n)), np.empty(shape), m)
            _generate(job, lo, hi, _TILE_STEPS, alone)
            assert np.array_equal(alone.states, ref.states[lo:hi])
            assert np.array_equal(alone.heat, ref.heat[lo:hi])

    @pytest.mark.parametrize("n", [2, 16])
    def test_stream_chunking_and_workers(self, n, monkeypatch):
        law = stationary_law(sin_model(n))
        ells, k0, steps = (0, 3, 150), 20, 2 * _TIME_BLOCK + 5

        def run(chunk_paths):
            sums, ends, chunks = np.zeros((len(ells), 130, n, n)), np.empty((2, 130, n)), []

            def consumer(lo, hi):
                chunks.append(lo)
                return _LagSums(ells, k0, steps, sums[:, lo:hi], ends[:, lo:hi])

            stream_batch(
                law.model, 0.01, steps, 130, 43, consumer, chunk_paths=chunk_paths, law=law
            )
            return sums, ends, len(chunks)

        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        ref_sums, ref_ends, chunks = run(3 * _TILE)
        assert chunks == 1
        # The chunks' consumers write disjoint slices of the same arrays: with
        # more workers than cores and frequent thread switches, a lost or
        # misplaced write would change the sums.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for chunk_paths in (40, 100):  # a chunk would end mid-tile
                for workers in ("1", "2", "5"):
                    monkeypatch.setenv("OU_IRREV_THREADS", workers)
                    sums, ends, chunks = run(chunk_paths)
                    assert chunks > 1
                    assert np.array_equal(sums, ref_sums)
                    assert np.array_equal(ends, ref_ends)
        finally:
            sys.setswitchinterval(interval)

    def test_stream_buffers_sized_by_elements(self):
        # n = 16 on one 64-path tile over 2000 steps, keeping nothing: 64-step
        # blocks and 128-step draw spans peak at about 2.6 MiB (three tile
        # buffers of 64 x 16 x 64 doubles, 64 x 129 x 16 normals); 128-step
        # blocks and 1024-step draws peaked at about 13 MiB.
        law = stationary_law(sin_model(16))
        assert _blocking(16, _TILE, 2000) == (64, 128)
        tracemalloc.start()
        try:
            out = stream_batch(
                law.model, 0.01, 2000, _TILE, 5, lambda lo, hi: lambda k, states: None,
                chunk_paths=_TILE, law=law,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert out is None  # what is kept, the consumers hold

    def test_blocking(self):
        # At n = 2 on up to four tiles, the blocks and spans of a fixed count
        # of steps; larger n or chunks get shorter blocks, never shorter runs.
        for tiles in (1, 4):
            assert _blocking(2, tiles * _TILE, 10_000) == (_TIME_BLOCK, 1024)
        assert _blocking(32, _TILE, 10_000) == (32, 64)
        assert _blocking(32, 4 * _TILE, 10_000) == (8, 64)
        assert _blocking(16, _TILE, 100) == (64, 100)
        assert _blocking(2, _TILE, 1) == (1, 1)

    def test_chunk_bounds(self):
        # whole tiles per chunk, at least one, the cap and worker split
        # rounded to tiles; only the last chunk is short
        assert sampler._chunk_bounds(130, 1000, 1) == [(0, 130)]
        assert sampler._chunk_bounds(130, 1000, 2) == [(0, 128), (128, 130)]
        assert sampler._chunk_bounds(130, 1000, 5) == [(0, 64), (64, 128), (128, 130)]
        assert sampler._chunk_bounds(130, 100, 1) == [(0, 64), (64, 128), (128, 130)]
        assert sampler._chunk_bounds(3, 1, 1) == [(0, 3)]  # one tile above the cap
        budget = sampler._CHUNK_ELEMENT_BUDGET
        assert sampler._budget_paths(budget // 100) == 100
        assert sampler._budget_paths(2 * budget) == 1

    def test_own_buffers_budgeted(self, monkeypatch):
        # Whatever chunk_paths the caller passes, a chunk's paths hold at most
        # the budget in the sampler's own draws and generators.
        for n in range(1, linalg.MAX_DIM + 1):
            for width in (_TILE, 4 * _TILE, 1024 * _TILE):
                span = _blocking(n, width, 10**6)[1]
                assert (span + 1) * n + 93 <= sampler._path_elements(n, 10**6)
        assert sampler._path_elements(2, 10_000) == 1025 * 2 + 93
        assert sampler._path_elements(2, 200) == 201 * 2 + 93
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        monkeypatch.setattr(sampler, "_CHUNK_ELEMENT_BUDGET", 100 * sampler._path_elements(2, 50))
        chunks = []

        def consumer(lo, hi):
            chunks.append((lo, hi))
            return lambda k, states: None

        m = rotational_model(1.0)
        stream_batch(m, 0.01, 50, 300, 1, consumer, chunk_paths=10**6)
        assert chunks == [(0, 64), (64, 128), (128, 192), (192, 256), (256, 300)]


class TestStepHeat:
    """The per-step heat of estimators._StepHeat: the same bits for any time
    blocks after the starts, from W(0) = 0 and with the first increment as
    is."""

    @pytest.mark.parametrize("n", [2, 16])
    def test_time_block_invariance(self, n):
        # sample_batch fed it the sampler's 128-step (n = 2) or 64-step blocks
        m = sin_model(n)
        batch = sample_batch(m, 0.01, 300, 3, 8, law=stationary_law(m))
        states = batch.states.transpose(1, 2, 0)
        for ends in ((1, 301), (1, 2, 301), (1, 5, 301), (1, 8, 136, 301)):
            step_heat = _StepHeat(np.linalg.solve(m.A, m.B))
            blocks = [step_heat(lo, states[lo:hi]) for lo, hi in zip((0, *ends), ends)]
            assert np.array_equal(np.concatenate(blocks).T, batch.heat)

    def test_first_increment_keeps_its_sign(self):
        # x(1) = x(2) = x(0) and S x_mid > 0: dW_1 = -2 (+0.0) = -0.0, which
        # W(1) keeps as one cumsum over all steps would (0.0 + -0.0 is +0.0).
        step_heat = _StepHeat(np.ones((1, 1)))  # S = 1: B = Gamma = 1
        heat = np.concatenate([step_heat(0, np.ones((1, 1, 1))), step_heat(1, np.ones((2, 1, 1)))])
        assert heat.tolist() == [[0.0], [0.0], [0.0]]
        assert np.signbit(heat[:, 0]).tolist() == [False, True, True]


class TestWorkerResolution:
    def test_env_and_auto(self, monkeypatch):
        monkeypatch.setenv("OU_IRREV_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("OU_IRREV_THREADS", "0")
        assert resolve_workers() == 1
        monkeypatch.delenv("OU_IRREV_THREADS")
        assert resolve_workers() == 1

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("OU_IRREV_THREADS", "-1")
        with pytest.raises(ValueError, match="OU_IRREV_THREADS must be an integer >= 0, got '-1'"):
            resolve_workers()

    @pytest.mark.parametrize("raw", ["abc", "1.5"])
    def test_non_integer_rejected(self, raw, monkeypatch):
        # the message names the variable, not int()'s literal
        monkeypatch.setenv("OU_IRREV_THREADS", raw)
        message = f"OU_IRREV_THREADS must be an integer >= 0, got '{raw}'"
        with pytest.raises(ValueError, match=message):
            resolve_workers()


# irr16 is the stable irreversible drift B = D + W (D diagonal, W
# antisymmetric), Gamma = I, from closed-form entries so only the sampler's
# bits vary.
_PIN_MODELS = {"rot2": lambda: rotational_model(1.0), "irr16": lambda: sin_model(16)}

# (case, model, what is digested, method, start, steps). "batch" digests all of
# sample_batch(n_paths=3); "path" digests path 1 of sample_batch(n_paths=2)
# alone, a path that is not first in its chunk. With the 128-step time blocks
# of rot2 and the 64-step ones of irr16 (_blocking), 129 and 257 end one step
# into a new block and 1000 ends in a ragged block.
_PIN_CASES = [
    ("rot2-batch-exact-law-1", "rot2", "batch", "exact", "law", 1),
    ("rot2-batch-exact-law-257", "rot2", "batch", "exact", "law", 257),
    ("rot2-batch-exact-x0-1000", "rot2", "batch", "exact", "x0", 1000),
    ("rot2-batch-euler-law-129", "rot2", "batch", "euler", "law", 129),
    ("rot2-batch-euler-x0-1000", "rot2", "batch", "euler", "x0", 1000),
    ("irr16-batch-exact-law-257", "irr16", "batch", "exact", "law", 257),
    ("irr16-batch-exact-x0-1", "irr16", "batch", "exact", "x0", 1),
    ("irr16-batch-exact-x0-1000", "irr16", "batch", "exact", "x0", 1000),
    ("irr16-batch-euler-law-1000", "irr16", "batch", "euler", "law", 1000),
    ("irr16-batch-euler-x0-129", "irr16", "batch", "euler", "x0", 129),
    ("rot2-path-exact-x0-1", "rot2", "path", "exact", "x0", 1),
    ("rot2-path-exact-x0-257", "rot2", "path", "exact", "x0", 257),
    ("rot2-path-euler-x0-1000", "rot2", "path", "euler", "x0", 1000),
    ("irr16-path-exact-x0-129", "irr16", "path", "exact", "x0", 129),
    ("irr16-path-euler-x0-257", "irr16", "path", "euler", "x0", 257),
]

_PIN_DIGESTS = {
    "rot2-batch-exact-law-1": "aee20478ba77b48354f487886b1bffeceab6128f4ebb960a5b133e77a46ee5b6",
    "rot2-batch-exact-law-257": "59fe2e2150c7bff9bcc1cfb1da9170a9b5fea343423481fbfe230a5b32092f5f",
    "rot2-batch-exact-x0-1000": "d869cc7698e2d2b5424b59c8f1188362e40176b9bf93d6bb8ba499045b346652",
    "rot2-batch-euler-law-129": "104fb033d9bc4b9535fa566e14fc789de02a1d2235efae28984e918d39106a03",
    "rot2-batch-euler-x0-1000": "6d2ccc3173fa27ff86590b1d5a7021c5af9e640a4ba3f09cd953482b4e07dbb5",
    "irr16-batch-exact-law-257": "a571b88ab4e334c6ada661d5e4f495968031038f22eead2f7154c74bcf6bf5e7",
    "irr16-batch-exact-x0-1": "4e3bb4f7e7a2077d6549e79f714e0c5ed477b29969c25c392cad52e18805cc48",
    "irr16-batch-exact-x0-1000": "7841cba81a2b4ddaf486827753a7fe9ee35cfbd87e68e9fd37e478c5fd37ede1",
    "irr16-batch-euler-law-1000": "7425a159c32fabf54a9f08e4e33843caf5f4a1c52d7debf787ce315085014098",
    "irr16-batch-euler-x0-129": "3940aa6172140e4b78bca92628b6781ff7a411e59c6e49ac8b9c038ef412b5e5",
    "rot2-path-exact-x0-1": "35e0bba43daf938c92542502e072642f1d3a645bed4ced18ec29978f80561d7d",
    "rot2-path-exact-x0-257": "fec050a28572c9b6b9541ba01cd900c63515f8ccb5101f8767f42dc5893d199d",
    "rot2-path-euler-x0-1000": "f0619fc5ff9710a796a1c706eb2c878ae98e63367e7c461a39b4fb127890b1c3",
    "irr16-path-exact-x0-129": "ac1ab95a616d7362659d231708c4a82b65f56f7d3c7f71f3d4969b2bcf7b7851",
    "irr16-path-euler-x0-257": "7a9fbd8d3c476c181772acdb1650bf52d0479238d267a891cc22099e7279d921",
}


def _pin_digest(model_name, entry, method, start, steps) -> str:
    m = _PIN_MODELS[model_name]()
    x0 = np.linspace(1.0, -0.5, m.n)
    dt = 0.01
    kwargs = {"law": stationary_law(m)} if start == "law" else {"x0": x0}
    n_paths = 3 if entry == "batch" else 2
    out = sample_batch(m, dt, steps, n_paths=n_paths, seed=2024, method=method, **kwargs)
    states, heat = (out.states, out.heat) if entry == "batch" else (out.states[1], out.heat[1])
    return hashlib.sha256(states.tobytes() + heat.tobytes()).hexdigest()


class TestBitPin:
    """Pins the exact output bits of sample_batch: whole batches, and single
    paths (path 1 of a two-path batch) with shared starts.

    The reruns and worker-count checks in TestBatchDeterminism and
    TestTileBoundaries cannot see a change that alters bits the same way
    everywhere; these SHA-256 digests of states.tobytes() + heat.tobytes() (of
    the batch, or of the one path) can. They assume numpy's Philox bit
    generator and ziggurat standard_normal streams as of numpy 2.4.6, and the
    roundings of the (n, n) @ (n, 64) GEMMs of the BLAS it was built with
    (scipy-openblas 0.3.31); a numpy release that changes either stream, or a
    BLAS whose GEMM kernels round differently, changes them legitimately. The
    stationary starts also carry the bits of the Lyapunov solve, which are the
    same with one and two OpenBLAS threads, so every case holds on both.
    """

    @pytest.mark.parametrize("case", _PIN_CASES, ids=[c[0] for c in _PIN_CASES])
    def test_digest(self, case):
        name, *args = case
        assert _pin_digest(*args) == _PIN_DIGESTS[name]

    def test_cases_cover_time_block_edges(self):
        # Per model, at the time blocks its one-tile pin batches run in: one
        # step, one step into a new block, and a ragged last block.
        for name, model in _PIN_MODELS.items():
            steps = {case[-1] for case in _PIN_CASES if case[1] == name}
            rows = _blocking(model().n, _TILE, max(steps))[0]
            assert 1 in steps
            assert any(s > rows and s % rows == 1 for s in steps)
            assert any(s > rows + 1 and s % rows > 1 for s in steps)


class TestReferenceIntegrator:
    """The tiled GEMMs agree with the BLAS-free oracle integrator of
    tests/oracles.py on every state and heat value, to 1e-12 of each array's
    largest magnitude."""

    @pytest.mark.parametrize("method", ["exact", "euler"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_matches_oracle(self, n, method):
        m = sin_model(n)
        law = stationary_law(m)
        steps, n_paths, seed = 300, 3, 17
        batch = sample_batch(m, 0.01, steps, n_paths, seed, law=law, method=method)
        streams = [path_stream(seed, p) for p in range(n_paths)]
        z0 = np.stack([s.standard_normal(n) for s in streams], axis=1)
        normals = np.stack([s.standard_normal((steps, n)) for s in streams])
        states, heat = integrate_paths(
            _update(m, 0.01, method), np.linalg.solve(m.A, m.B), colmatvec(law.chol_Xi, z0), normals
        )
        for got, ref in ((batch.states, states), (batch.heat, heat)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
