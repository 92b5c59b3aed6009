import math
import tracemalloc

import numpy as np
import pytest

from ouirrev import estimators, linalg, sampler
from ouirrev.estimators import (
    _GEMM_DEPTH,
    _SUPER_BLOCK,
    PathStatistics,
    greenkubo_check,
    reversibility_test,
    stationary_statistics,
)
from ouirrev.exceptions import InsufficientDataError
from ouirrev.model import build_model
from ouirrev.stationary import stationary_law, two_time_covariance

import oracles
from conftest import rotational_model, sin_model, with_blas_threads
from oracles import sample_batch

# Master seeds of the shared stationary runs (dt 0.02, 2500 steps, 100 paths).
ROT_SEED, REV_SEED = 100, 200


@pytest.fixture(scope="module")
def rot_law():
    return stationary_law(rotational_model(1.0))


@pytest.fixture(scope="module")
def rev_law():
    return stationary_law(build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)))


def _run_stats(law, seed, lags, burn_in=0.0):
    """Path statistics and heat rate of the shared stationary run at seed."""
    return stationary_statistics(law, 0.02, 2500, 100, seed, lags, burn_in)


@pytest.fixture(scope="module")
def rot_batch(rot_law):
    """The rotational run's paths, stored, for tests that read the states."""
    return sample_batch(rot_law.model, 0.02, 2500, 100, ROT_SEED, law=rot_law)


def _lag_mean_and_se(stats, lag: float):
    """Ensemble mean of the per-path lag products and its standard error."""
    per_path = stats.lag_products[lag]
    return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / math.sqrt(stats.n_paths)


class TestEmpiricalMoments:
    def test_rotational_moments(self, rot_law, rot_batch):
        per_path_mean = rot_batch.states.mean(axis=1)
        se_mean = per_path_mean.std(axis=0, ddof=1) / math.sqrt(rot_batch.n_paths)
        assert np.all(np.abs(per_path_mean.mean(axis=0)) <= 4 * se_mean)
        stats, _ = _run_stats(rot_law, ROT_SEED, (0.0,))
        xi_hat, se_xi = _lag_mean_and_se(stats, 0.0)
        assert np.all(np.abs(xi_hat - rot_law.Xi) <= 4 * se_xi)

    def test_scalar_variance(self):
        law = stationary_law(build_model([[1.0]], [[1.0]]))
        stats, _ = stationary_statistics(law, 0.02, 2500, 100, 5, (0.0,))
        xi_hat, se_xi = _lag_mean_and_se(stats, 0.0)
        assert abs(xi_hat[0, 0] - 0.5) <= 4 * se_xi[0, 0]


class TestEmpiricalTwoTime:
    def test_zero_lag_matches_xi_hat(self, rot_law, rot_batch):
        r0 = _run_stats(rot_law, ROT_SEED, (0.0,))[0].lag_products[0.0].mean(axis=0)
        samples = rot_batch.n_paths * (rot_batch.n_steps + 1)
        xi_hat = np.einsum("pti,ptj->ij", rot_batch.states, rot_batch.states) / samples
        assert np.max(np.abs(r0 - xi_hat)) < 1e-12

    def test_rotational_asymmetry_detected(self, rot_law):
        r = _run_stats(rot_law, ROT_SEED, (0.5,))[0].lag_products[0.5].mean(axis=0)
        target = two_time_covariance(rot_law, 0.5)
        assert np.max(np.abs(r - target)) < 0.05
        # asymmetric part e^{-tau} sin(tau) is far above the noise floor
        asym = r - r.T
        assert abs(asym[0, 1]) > 0.1

    def test_lag_validation(self, rot_law):
        with pytest.raises(ValueError):
            _run_stats(rot_law, ROT_SEED, (0.013,))
        with pytest.raises(ValueError):
            _run_stats(rot_law, ROT_SEED, (1e9,))


class TestReversibilityTest:
    def test_reversible_accepted(self, rev_law):
        res = reversibility_test(_run_stats(rev_law, REV_SEED, [0.1, 0.5, 1.0])[0])
        assert res.verdict_reversible

    def test_rotational_rejected_strongly(self, rot_law):
        res = reversibility_test(_run_stats(rot_law, ROT_SEED, [0.1, 0.5, 1.0])[0])
        assert not res.verdict_reversible
        assert res.statistic > 5 * res.threshold

    def test_omega_zero_boundary_is_reversible(self):
        law = stationary_law(build_model(np.eye(2), np.eye(2)))
        stats, _ = stationary_statistics(law, 0.02, 2000, 80, 300, [0.1, 0.5])
        assert reversibility_test(stats).verdict_reversible

    def test_needs_two_lags(self, rot_law):
        # a repeated lag is one lag
        stats, _ = _run_stats(rot_law, ROT_SEED, [0.5, 0.5])
        with pytest.raises(ValueError, match="two distinct lags"):
            reversibility_test(stats)

    def test_deterministic_rerun(self, rot_law):
        a = reversibility_test(_run_stats(rot_law, ROT_SEED, [0.1, 0.5, 1.0])[0])
        b = reversibility_test(_run_stats(rot_law, ROT_SEED, [0.1, 0.5, 1.0])[0])
        assert a.statistic == b.statistic
        assert a.per_lag == b.per_lag

    @pytest.mark.parametrize("n_paths", [3, 199, 200, 5000, 50_000])
    def test_index_blocks_are_one_draw(self, n_paths, monkeypatch):
        # Blocks of resamples drawn in turn from the one bootstrap stream are
        # the one (200, paths) draw, whatever the block sizes.
        stats = _random_stats(2, n_paths)
        whole = sampler.path_stream(stats.seed, sampler.BOOTSTRAP_STREAM).integers(
            0, n_paths, size=(estimators.BOOTSTRAP_RESAMPLES, n_paths)
        )
        rng = sampler.path_stream(stats.seed, sampler.BOOTSTRAP_STREAM)
        uneven = [rng.integers(0, n_paths, size=(m, n_paths)) for m in [25] * 7 + [17, 8]]
        assert np.array_equal(np.concatenate(uneven), whole)
        for block in (25, 64):
            monkeypatch.setattr(estimators, "_RESAMPLE_BLOCK", block)
            assert np.array_equal(_resamples(stats), whole)
        # each resample's counts, as reversibility_test forms them
        counts = np.zeros(whole.shape)
        np.add.at(counts, (np.arange(len(whole))[:, None], whole), 1.0)
        for row, drawn in zip(counts, whole):
            assert np.array_equal(np.bincount(drawn, minlength=n_paths), row)

    def test_resample_blocks_keep_the_bits(self, monkeypatch):
        # 1000 paths (four GEMM depths) with blocks of 64 resamples, which do
        # not divide 200, and of 25: the bits of one block of every resample.
        stats = _random_stats(3, 1000)
        monkeypatch.setattr(estimators, "_RESAMPLE_BLOCK", estimators.BOOTSTRAP_RESAMPLES)
        whole = reversibility_test(stats)
        for block in (64, 25):
            monkeypatch.setattr(estimators, "_RESAMPLE_BLOCK", block)
            res = reversibility_test(stats)
            assert res.statistic == whole.statistic
            assert res.per_lag == whole.per_lag

    def test_peak_memory_many_paths(self):
        # 50 000 paths at n = 2: the (200, paths) resample indices and count
        # matrix held 156 MiB at once; blocks of 25 resamples hold about 24.
        stats = _random_stats(2, 50_000)
        tracemalloc.start()
        try:
            reversibility_test(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestHdrEstimate:
    def test_rotational_value(self, rot_law):
        _, est = stationary_statistics(rot_law, 0.01, 10_000, 200, 400, (0.0,), burn_in=0.0)
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.stderr > 0

    def test_reversible_centered_at_zero(self, rev_law):
        _, est = _run_stats(rev_law, REV_SEED, (0.0,), burn_in=0.0)
        assert abs(est.value) <= 3 * est.stderr

    def test_deterministic(self, rot_law):
        a = _run_stats(rot_law, ROT_SEED, (0.0,))[1]
        b = _run_stats(rot_law, ROT_SEED, (0.0,))[1]
        assert a.value == b.value

    def test_burn_in_too_long(self, rot_law):
        with pytest.raises(InsufficientDataError):
            _run_stats(rot_law, ROT_SEED, (0.0,), burn_in=1e6)


class TestGreenKubo:
    def test_conditional_decay_both_classes(self, rot_law, rev_law):
        for law, seed in ((rot_law, ROT_SEED), (rev_law, REV_SEED)):
            stats, _ = _run_stats(law, seed, [0.2, 0.5, 1.0], burn_in=0.0)
            res = greenkubo_check(law, stats, n_paths=2000, seed=500, x0=[1.0, 1.0])
            assert res.max_abs_z <= 4.0
            assert res.max_abs_z_two_time <= 4.0

    def test_one_expm_per_checkpoint(self, rot_law, monkeypatch):
        checkpoints = [0.2, 0.5, 1.0]
        stats, _ = _run_stats(rot_law, ROT_SEED, checkpoints, burn_in=0.0)
        calls, in_update = [], []
        kernel, update = linalg.expm, sampler._update

        def counting(a):
            if not in_update:  # not the sampler's step matrices
                calls.append(a)
            return kernel(a)

        def flagged(*args):
            in_update.append(True)
            try:
                return update(*args)
            finally:
                in_update.pop()

        monkeypatch.setattr(linalg, "expm", counting)
        monkeypatch.setattr(sampler, "_update", flagged)
        greenkubo_check(rot_law, stats, n_paths=20, seed=500, x0=[1.0, 1.0])
        assert len(calls) == len(checkpoints)
        for a, t in zip(calls, checkpoints):
            assert np.array_equal(a, -rot_law.model.B * t)

    def test_zero_start_stays_zero(self, rot1):
        law = stationary_law(rot1)
        stats, _ = stationary_statistics(law, 0.02, 100, 2, 1, [0.2, 1.0])
        res = greenkubo_check(law, stats, n_paths=2000, seed=600, x0=[0.0, 0.0])
        assert res.max_abs_z <= 4.0
        assert res.max_deviation < 0.05

    def test_equals_stored_batch(self, rot_law, monkeypatch):
        # The states kept at the lags, in chunks of one tile, are those of
        # the stored run as long as the longest lag.
        stats, _ = _run_stats(rot_law, ROT_SEED, [0.5, 0.1, 1.0])
        x0 = np.array([1.0, -0.5])
        consumers = []
        stream = estimators.stream_batch

        def keeping(model, dt, steps, n_paths, seed, make_consumer, **kwargs):
            def kept(lo, hi):
                consumers.append(make_consumer(lo, hi))
                return consumers[-1]

            stream(model, dt, steps, n_paths, seed, kept, **kwargs)

        monkeypatch.setattr(estimators, "stream_batch", keeping)
        monkeypatch.setattr(sampler, "_CHUNK_ELEMENT_BUDGET", sampler._TILE * 3 * 2)
        greenkubo_check(rot_law, stats, n_paths=130, seed=900, x0=x0)
        assert len(consumers) == 3
        # the chunks' slices tile one array of all the paths
        snaps = consumers[0].states.base
        assert snaps.shape == (3, 130, 2)
        assert all(c.states.base is snaps for c in consumers)
        batch = sample_batch(rot_law.model, 0.02, 50, 130, 900, x0=x0)
        assert np.array_equal(snaps, batch.states[:, [25, 5, 50]].transpose(1, 0, 2))

    def test_targets_at_sampled_time(self, rot_law):
        # 0.100000005 is 10 steps of 0.01 within _lag_steps' tolerance: the
        # paths and lag products sample t = 0.1, and so must both targets.
        results = []
        for lags in ((0.100000005, 0.5), (0.1, 0.5)):
            stats, _ = stationary_statistics(rot_law, 0.01, 200, 20, 6, lags)
            gk = greenkubo_check(rot_law, stats, n_paths=20, seed=7, x0=[1.0, 1.0])
            results.append((gk.max_abs_z, gk.max_deviation, gk.max_abs_z_two_time))
        assert results[0] == results[1]

    def test_validation_before_sampling(self, rot_law, monkeypatch):
        stats, _ = _run_stats(rot_law, ROT_SEED, [0.2, 0.5])

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(estimators, "stream_batch", no_sampling)
        with pytest.raises(InsufficientDataError, match="at least 2"):
            greenkubo_check(rot_law, stats, n_paths=1, seed=1, x0=[1.0, 1.0])
        # The paths run at stats.dt: statistics whose lags are off their own
        # grid are refused, not resampled.
        off_grid = PathStatistics(stats.lag_products, stats.n_paths, stats.seed, dt=0.03)
        with pytest.raises(ValueError, match="multiple of dt"):
            greenkubo_check(rot_law, off_grid, n_paths=20, seed=1, x0=[1.0, 1.0])


class TestConsistency:
    def test_error_scales_like_root_n(self):
        # slope of log error vs log paths over 4x doublings within [0.3, 0.7]
        law = stationary_law(rotational_model(1.0))
        sizes = (25, 50, 100, 200)
        errors = []
        for n_paths in sizes:
            sq = 0.0
            for rep in range(8):
                stats, _ = stationary_statistics(
                    law, 0.02, 1000, n_paths, 10_000 + 17 * rep, (0.0,)
                )
                xi_hat = stats.lag_products[0.0].mean(axis=0)
                sq += float(np.linalg.norm(xi_hat - law.Xi)) ** 2
            errors.append(math.sqrt(sq / 8))
        slope, _ = np.polyfit(np.log(sizes), np.log(errors), 1)
        assert -0.7 <= slope <= -0.3

    def test_path_statistics_bundle(self, rot_law):
        lags = [0.1, 0.5, 1.0]
        stats, _ = _run_stats(rot_law, ROT_SEED, lags, burn_in=0.0)
        assert stats.n_paths == 100
        assert stats.seed == ROT_SEED
        assert stats.dt == 0.02
        assert list(stats.lag_products) == lags
        for lag in lags:
            assert stats.lag_products[lag].shape == (100, 2, 2)
            alone = _run_stats(rot_law, ROT_SEED, (lag,))[0].lag_products[lag]
            assert np.array_equal(stats.lag_products[lag].mean(axis=0), alone.mean(axis=0))
        assert not reversibility_test(stats).verdict_reversible
        gk = greenkubo_check(rot_law, stats, n_paths=500, seed=700, x0=[1.0, 1.0])
        assert math.isfinite(gk.max_deviation)

    def test_repeated_lag_computed_once(self, rot_law):
        stats, _ = _run_stats(rot_law, ROT_SEED, [0.5, 0.1, 0.5])
        assert list(stats.lag_products) == [0.5, 0.1]
        assert not stats.lag_products[0.5].flags.writeable


def _superblock_oracle(states, k0, ell):
    """Per-path mean of x(j) x(j - ell)^T over j = k0 + ell .. steps: the
    package's kernel on each super-block of _SUPER_BLOCK consecutive j
    (aligned to j = 0), added in time order, all on the stored paths."""
    steps = states.shape[1] - 1
    total = np.zeros((states.shape[0], states.shape[2], states.shape[2]))
    for base in range(0, steps + 1, _SUPER_BLOCK):
        lo, hi = max(base, k0 + ell), min(base + _SUPER_BLOCK, steps + 1)
        if lo < hi:
            total += estimators._lag_products(states[:, lo:hi], states[:, lo - ell : hi - ell])
    return total / (steps + 1 - k0 - ell)


def _assert_close_per_path(got, ref, rtol=1e-12):
    """Every entry within rtol of its path's largest reference magnitude."""
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - ref) <= rtol * scale)


class TestLagProducts:
    """The per-path GEMM kernel: within 1e-12 of the einsum oracle, and the
    same bits for a path whatever other paths share its stack."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_equal_to_einsum(self, n):
        rng = np.random.default_rng(n)
        steps = 400
        states = rng.standard_normal((7, steps + 1, n))
        for k0 in (0, 37):
            for ell in (0, 1, 250):
                later = states[:, k0 + ell :, :]
                earlier = states[:, k0 : steps + 1 - ell, :]
                got = estimators._lag_products(later, earlier)
                _assert_close_per_path(got, oracles.lag_products(later, earlier))
                if ell == 0:  # the A A^T route
                    assert np.array_equal(got, got.transpose(0, 2, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_stack_size_invariance(self, n):
        # window layout of _LagSums: lag 0 passes one view twice (syrk), a
        # positive lag two overlapping views of the same window (gemm)
        rng = np.random.default_rng(100 + n)
        window = rng.standard_normal((65, 250 + _SUPER_BLOCK, n))
        for ell, length in ((0, _SUPER_BLOCK), (0, 7), (1, _SUPER_BLOCK), (250, 300)):
            later = window[:, 250 : 250 + length]
            earlier = window[:, 250 - ell : 250 - ell + length]
            alone = [estimators._lag_products(later[p : p + 1], earlier[p : p + 1])[0] for p in range(65)]
            for count in (1, 63, 64, 65):
                stacked = estimators._lag_products(later[:count], earlier[:count])
                for p in range(count):
                    assert np.array_equal(stacked[p], alone[p]), (ell, length, count, p)

    def test_path_statistics_matches_oracle(self, rot_law, rot_batch):
        batch = rot_batch
        k0, ell = 50, 25  # burn-in 1.0 and lag 0.5 at dt = 0.02
        stats, _ = _run_stats(rot_law, ROT_SEED, [0.5], burn_in=1.0)
        expected = _superblock_oracle(batch.states, k0, ell)
        assert np.array_equal(stats.lag_products[0.5], expected)
        later = batch.states[:, k0 + ell :, :]
        earlier = batch.states[:, k0 : batch.n_steps + 1 - ell, :]
        whole = oracles.lag_products(later, earlier) / earlier.shape[1]
        rel = np.linalg.norm(stats.lag_products[0.5] - whole) / np.linalg.norm(whole)
        assert rel <= 1e-12

    def test_blas_thread_invariance(self):
        # n = 32 with up to a whole super-block of time rows: the deepest
        # GEMMs a verify run forms
        code = (
            "import hashlib, numpy as np; from ouirrev import estimators\n"
            "w = np.random.default_rng(0).standard_normal((2, 1100, 32))\n"
            "out = [estimators._lag_products(w[:, 50 : 50 + t], w[:, 50 - ell : 50 - ell + t])\n"
            "       for t in (300, 1000, 1024) for ell in (0, 1)]\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in out)).hexdigest())"
        )
        assert with_blas_threads(code, 1) == with_blas_threads(code, 2)

    def test_validation(self, rot_law):
        with pytest.raises(ValueError, match="burn-in"):
            _run_stats(rot_law, ROT_SEED, [0.1], burn_in=-1.0)
        with pytest.raises(InsufficientDataError):
            _run_stats(rot_law, ROT_SEED, [0.1], burn_in=1e6)
        with pytest.raises(ValueError, match="multiple of dt"):
            _run_stats(rot_law, ROT_SEED, [0.013])
        with pytest.raises(ValueError, match="exceeds"):
            _run_stats(rot_law, ROT_SEED, [1e9])
        with pytest.raises(InsufficientDataError, match="at least 2 paths"):
            stationary_statistics(rot_law, 0.02, 50, 1, ROT_SEED, [0.1])


# (steps, burn-in index, lags in steps) around the super-block edges: one step;
# exactly one super-block; one super-block + 1 with the burn-in on the edge; a
# lag whose first pair straddles the edge; a ragged last super-block with the
# burn-in off the edge and a lag spanning earlier super-blocks. Around the
# GEMM pieces: verify's default burn-in and lags, whose lags 50 and 100 start
# their pieces 26 and 76 steps into a super-block; a lag longer than a piece;
# lag 0 starting off the piece grid; runs of one step less, exactly and one
# step more than whole pieces.
_STREAM_CASES = [
    (1, 0, (0,)),
    (_SUPER_BLOCK, 0, (0, 1)),
    (_SUPER_BLOCK + 1, _SUPER_BLOCK, (0, 1)),
    (_SUPER_BLOCK + 20, _SUPER_BLOCK - 5, (0, 10)),
    (2 * _SUPER_BLOCK + 300, 37, (0, 1, 150)),
    (3000, 1000, (1, 10, 50, 100)),
    (1400, 3, (1, 300)),
    (900, 100, (0,)),
    (3 * _GEMM_DEPTH - 1, 0, (0, 1, 5)),
    (3 * _GEMM_DEPTH, 0, (0, 1, 5)),
    (3 * _GEMM_DEPTH + 1, 0, (0, 1, 5)),
]


class TestStreamedStatistics:
    """stationary_statistics accumulates while it samples; it must give the
    same bits as the oracles applied to the stored batch of the same paths:
    _superblock_oracle for the lag products, and the heat-rate formula on
    its lag-one products and the stored states at burn-in and at T."""

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("case", _STREAM_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_equals_stored_batch(self, n, case, monkeypatch):
        steps, k0, ells = case
        dt, n_paths, seed = 0.01, 65, 11
        m = sin_model(n)
        law = stationary_law(m)
        lags = tuple(ell * dt for ell in ells)
        batch = sample_batch(m, dt, steps, n_paths, seed, law=law)
        refs = [_superblock_oracle(batch.states, k0, ell) for ell in ells]
        ends = batch.states[:, [k0, -1]].transpose(1, 0, 2)
        lag_one = _superblock_oracle(batch.states, k0, 1)
        span = (steps - k0) * dt
        rates = estimators._heat_rates(law.model.ainv_b, ends, lag_one, span, dt)
        ref_hdr = (
            math.fsum(rates.tolist()) / n_paths,
            float(rates.std(ddof=1)) / math.sqrt(n_paths),
        )
        # a budget of a few paths per chunk: whole tiles of 64, the last holds one
        monkeypatch.setattr(sampler, "_CHUNK_ELEMENT_BUDGET", 4 * min(steps, _SUPER_BLOCK) * n)
        stats, hdr = stationary_statistics(law, dt, steps, n_paths, seed, lags, k0 * dt)
        for lag, ref in zip(lags, refs):
            assert np.array_equal(stats.lag_products[lag], ref), lag
        assert (hdr.value, hdr.stderr) == ref_hdr
        sums = np.zeros((len(ells), n_paths, n, n))
        got_ends = np.empty((2, n_paths, n))
        chunks = []

        def consumer(lo, hi):
            chunks.append((lo, hi))
            return estimators._LagSums(ells, k0, steps, sums[:, lo:hi], got_ends[:, lo:hi])

        sampler.stream_batch(m, dt, steps, n_paths, seed, consumer, chunk_paths=2, law=law)
        assert chunks == [(0, 64), (64, 65)]
        assert np.array_equal(got_ends, ends)
        for total, ell, ref in zip(sums, ells, refs):
            assert np.array_equal(total / (steps + 1 - k0 - ell), ref)

    def test_worker_count_invariance(self, monkeypatch):
        law = stationary_law(rotational_model(1.0))
        # 70 paths: two workers get a tile of 64 and a chunk of 6
        args = (law, 0.01, 1500, 70, 21, (0.1, 0.5, 1.0), 2.0)
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        serial, serial_hdr = stationary_statistics(*args)
        monkeypatch.setenv("OU_IRREV_THREADS", "2")
        pooled, pooled_hdr = stationary_statistics(*args)
        for lag in serial.lag_products:
            assert np.array_equal(serial.lag_products[lag], pooled.lag_products[lag])
        assert (serial_hdr.value, serial_hdr.stderr) == (pooled_hdr.value, pooled_hdr.stderr)

    def test_window_sized_to_run(self):
        # a run shorter than two GEMM pieces holds its steps + 1 states after
        # the lag history, a longer one the history and two pieces
        ends = np.empty((2, 3, 2))
        sums = [np.zeros((3, 2, 2)) for _ in range(2)]
        assert estimators._LagSums((1, 10), 0, 200, sums, ends).window.shape == (3, 211, 2)
        window = estimators._LagSums((1, 10), 0, 5000, sums, ends).window
        assert window.shape == (3, 10 + 2 * _GEMM_DEPTH, 2)

    @pytest.mark.parametrize(
        "n, steps, n_paths", [(2, 10_000, 200), (16, 2000, 50)], ids=["verify-default", "irr16"]
    )
    def test_bench_budgets_one_chunk(self, n, steps, n_paths, monkeypatch):
        # The benchmark's verify budgets run each stream, the stationary one
        # and the Green-Kubo one, as one chunk of all the paths.
        monkeypatch.delenv("OU_IRREV_THREADS", raising=False)
        bounds, chunk_bounds = [], sampler._chunk_bounds

        def recording(*args):
            bounds.append(chunk_bounds(*args))
            return bounds[-1]

        monkeypatch.setattr(sampler, "_chunk_bounds", recording)
        law = stationary_law(sin_model(n))
        stats, _ = stationary_statistics(law, 0.01, steps, n_paths, 1, (0.1, 0.5, 1.0), 2.0)
        greenkubo_check(law, stats, n_paths=n_paths, seed=2, x0=np.ones(n))
        assert bounds == [[(0, n_paths)], [(0, n_paths)]]

    def test_validation_before_sampling(self, monkeypatch):
        law = stationary_law(rotational_model(1.0))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(estimators, "stream_batch", no_sampling)
        with pytest.raises(ValueError, match="multiple of dt"):
            stationary_statistics(law, 0.01, 100, 4, 1, (0.013,))
        with pytest.raises(ValueError, match="exceeds"):
            stationary_statistics(law, 0.01, 100, 4, 1, (1.0, 5.0))
        with pytest.raises(InsufficientDataError):
            stationary_statistics(law, 0.01, 100, 4, 1, (0.1,), burn_in=1.0)
        with pytest.raises(InsufficientDataError):
            stationary_statistics(law, 0.01, 100, 1, 1, (0.1,))
        for dt in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="dt must be"):
                stationary_statistics(law, dt, 100, 4, 1, (0.1,))
        with pytest.raises(ValueError, match="steps must be"):
            stationary_statistics(law, 0.01, 0, 4, 1, (0.0,))
        with pytest.raises(ValueError, match="at least one lag"):
            stationary_statistics(law, 0.01, 100, 4, 1, ())
        with pytest.raises(ValueError, match="lag must be >= 0"):
            stationary_statistics(law, 0.01, 100, 4, 1, (0.1, -0.1))

    @pytest.mark.parametrize(
        "dt, lags, burn_in, error, match",
        [
            (0.01, (0.1, 0.5), math.inf, InsufficientDataError, "discards"),
            (0.01, (0.1, 0.5), math.nan, ValueError, "burn-in"),
            (0.01, (0.1, math.inf), 0.0, ValueError, "lag inf"),
            (1e-320, (0.1, 0.5), 10.0, InsufficientDataError, "discards"),
            (1e-320, (0.1, 0.5), 0.0, ValueError, "lag 0.1"),
        ],
        ids=["burn-in-inf", "burn-in-nan", "lag-inf", "burn-in-over-dt", "lag-over-dt"],
    )
    def test_step_count_overflow_rejected(self, dt, lags, burn_in, error, match, monkeypatch):
        # burn_in / dt or lag / dt is inf or nan: an error before rounding
        law = stationary_law(rotational_model(1.0))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(estimators, "stream_batch", no_sampling)
        with pytest.raises(error, match=match):
            stationary_statistics(law, dt, 100, 4, 1, lags, burn_in)


class TestHeatIdentity:
    """The heat from the end states and the lag-one products (_heat_rates)
    is the midpoint sum: per path, W(T) - W(k0) within 1e-12 of the largest
    magnitude of the BLAS-free running sum of oracles.integrate_paths."""

    @pytest.mark.parametrize(
        "m",
        [rotational_model(1.0), build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)), sin_model(16)],
        ids=["rot2", "rev2", "irr16"],
    )
    def test_matches_midpoint_sum(self, m):
        law = stationary_law(m)
        s_mat = law.model.ainv_b
        dt, steps, k0, n_paths, seed = 0.01, 600, 100, 5, 13
        streams = [sampler.path_stream(seed, p) for p in range(n_paths)]
        z0 = np.stack([s.standard_normal(m.n) for s in streams], axis=1)
        normals = np.stack([s.standard_normal((steps, m.n)) for s in streams])
        states, heat = oracles.integrate_paths(
            sampler._update(m, dt, "exact"), s_mat, oracles.colmatvec(law.chol_Xi, z0), normals
        )
        ends = states[:, [k0, -1]].transpose(1, 0, 2)
        lag_one = oracles.lag_products(states[:, k0 + 1 :], states[:, k0:-1]) / (steps - k0)
        span = (steps - k0) * dt
        got = estimators._heat_rates(s_mat, ends, lag_one, span, dt) * span
        ref = heat[:, -1] - heat[:, k0]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _random_stats(n: int, n_paths: int) -> PathStatistics:
    rng = np.random.default_rng(n)
    products = {lag: rng.standard_normal((n_paths, n, n)) for lag in (0.1, 0.5)}
    return PathStatistics(lag_products=products, n_paths=n_paths, seed=5, dt=0.1)


def _resamples(stats: PathStatistics) -> np.ndarray:
    """Every resample's path indices, (BOOTSTRAP_RESAMPLES, paths), in one array."""
    blocks = estimators._bootstrap_indices(stats, estimators.BOOTSTRAP_RESAMPLES)
    return np.concatenate([indices for _, indices in blocks])


class TestBootstrapGemm:
    """reversibility_test forms each lag's resample means as GEMM rows of the
    resample-count matrix with the per-path asymmetries, a block of
    resamples at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_matches_fancy_index_oracle(self, n):
        stats = _random_stats(n, 200)
        if n == 1:  # a 1 x 1 product is its own transpose: no asymmetry
            with pytest.raises(InsufficientDataError, match="degenerate"):
                reversibility_test(stats)
            return
        res = reversibility_test(stats)
        statistic, per_lag = oracles.bootstrap_asymmetry(stats.lag_products, _resamples(stats))
        assert res.statistic == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert list(res.per_lag) == list(per_lag)
        for lag, z in per_lag.items():
            assert res.per_lag[lag] == pytest.approx(z, rel=1e-12, abs=0.0)

    def test_blas_thread_invariance(self):
        # 500 paths: more than one GEMM depth of paths
        code = (
            "import numpy as np; from ouirrev.estimators import PathStatistics, reversibility_test\n"
            "rng = np.random.default_rng(1)\n"
            "products = {lag: rng.standard_normal((500, 16, 16)) for lag in (0.1, 0.5)}\n"
            "stats = PathStatistics(lag_products=products, n_paths=500, seed=5, dt=0.1)\n"
            "res = reversibility_test(stats)\n"
            "print(repr((res.statistic, res.per_lag)))"
        )
        assert with_blas_threads(code, 1) == with_blas_threads(code, 2)

    def test_peak_memory_n32(self):
        # Resampling all 200 resamples at once held 200 x 200 x 32 x 32
        # doubles (328 MB) per lag.
        stats = _random_stats(32, 200)
        tracemalloc.start()
        try:
            reversibility_test(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
