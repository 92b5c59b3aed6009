import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ouirrev import estimators, linalg, sampler
from ouirrev.estimators import (
    _SUPER_BLOCK,
    PathStatistics,
    greenkubo_check,
    reversibility_test,
    stationary_statistics,
)
from ouirrev.exceptions import InsufficientDataError
from ouirrev.model import build_model
from ouirrev.sampler import sample_batch
from ouirrev.stationary import stationary_law, two_time_covariance

import oracles
from conftest import rotational_model, sin_model

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
            cond = sample_batch(law.model, dt=0.02, steps=50, n_paths=2000, seed=500, x0=[1.0, 1.0])
            stats, _ = _run_stats(law, seed, [0.2, 0.5, 1.0], burn_in=0.0)
            res = greenkubo_check(cond, law, stats)
            assert res.max_abs_z <= 4.0
            assert res.max_abs_z_two_time <= 4.0

    def test_one_expm_per_checkpoint(self, rot_law, monkeypatch):
        cond = sample_batch(rot_law.model, dt=0.02, steps=50, n_paths=20, seed=500, x0=[1.0, 1.0])
        checkpoints = [0.2, 0.5, 1.0]
        stats, _ = _run_stats(rot_law, ROT_SEED, checkpoints, burn_in=0.0)
        calls = []
        kernel = linalg.expm

        def counting(a):
            calls.append(a)
            return kernel(a)

        monkeypatch.setattr(linalg, "expm", counting)
        greenkubo_check(cond, rot_law, stats)
        assert len(calls) == len(checkpoints)

    def test_zero_start_stays_zero(self, rot1):
        cond = sample_batch(rot1, dt=0.02, steps=50, n_paths=2000, seed=600, x0=[0.0, 0.0])
        law = stationary_law(rot1)
        stats, _ = stationary_statistics(law, 0.02, 100, 2, 1, [0.2, 1.0])
        res = greenkubo_check(cond, law, stats)
        assert res.max_abs_z <= 4.0
        assert res.max_deviation < 0.05

    def test_rejects_stationary_start_batch(self, rot_law, rot_batch):
        stats, _ = stationary_statistics(rot_law, 0.02, 100, 2, 1, [0.2, 0.5])
        with pytest.raises(ValueError, match="do not share x0"):
            greenkubo_check(rot_batch, rot_law, stats)


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
        cond = sample_batch(rot_law.model, dt=0.02, steps=50, n_paths=500, seed=700, x0=[1.0, 1.0])
        lags = [0.1, 0.5, 1.0]
        stats, _ = _run_stats(rot_law, ROT_SEED, lags, burn_in=0.0)
        assert stats.n_paths == 100
        assert stats.seed == ROT_SEED
        assert list(stats.lag_products) == lags
        for lag in lags:
            assert stats.lag_products[lag].shape == (100, 2, 2)
            alone = _run_stats(rot_law, ROT_SEED, (lag,))[0].lag_products[lag]
            assert np.array_equal(stats.lag_products[lag].mean(axis=0), alone.mean(axis=0))
        assert not reversibility_test(stats).verdict_reversible
        gk = greenkubo_check(cond, rot_law, stats)
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


def _with_blas_threads(code: str, threads: int) -> str:
    """stdout of code run in a fresh interpreter with that many OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = str(Path(estimators.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


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
        assert _with_blas_threads(code, 1) == _with_blas_threads(code, 2)

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
# burn-in off the edge and a lag spanning earlier super-blocks.
_STREAM_CASES = [
    (1, 0, (0,)),
    (_SUPER_BLOCK, 0, (0, 1)),
    (_SUPER_BLOCK + 1, _SUPER_BLOCK, (0, 1)),
    (_SUPER_BLOCK + 20, _SUPER_BLOCK - 5, (0, 10)),
    (2 * _SUPER_BLOCK + 300, 37, (0, 1, 150)),
]


class TestStreamedStatistics:
    """stationary_statistics accumulates while it samples; it must give the
    same bits as the oracles applied to the stored batch of the same paths:
    _superblock_oracle for the lag products, and the heat-rate formula."""

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
        rates = (batch.heat[:, -1] - batch.heat[:, k0]) / ((steps - k0) * dt)
        ref_hdr = (
            math.fsum(rates.tolist()) / n_paths,
            float(rates.std(ddof=1)) / math.sqrt(n_paths),
        )
        # a budget of 2 paths per chunk: whole tiles of 64, the last holds one
        monkeypatch.setattr(sampler, "_CHUNK_ELEMENT_BUDGET", 4 * min(steps, _SUPER_BLOCK) * n)
        stats, hdr = stationary_statistics(law, dt, steps, n_paths, seed, lags, k0 * dt)
        for lag, ref in zip(lags, refs):
            assert np.array_equal(stats.lag_products[lag], ref), lag
        assert (hdr.value, hdr.stderr) == ref_hdr
        parts = sampler.stream_batch(
            m, dt, steps, n_paths, seed,
            lambda lo, hi: estimators._LagSums(ells, k0, steps, n, hi - lo),
            chunk_paths=2,
            law=law,
        )
        assert len(parts) == 2
        heat = np.concatenate([part.heat for part in parts])
        assert np.array_equal(heat, batch.heat[:, [k0, -1]])
        sums = np.concatenate([part.sums for part in parts], axis=1)
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


def _random_stats(n: int, n_paths: int) -> PathStatistics:
    rng = np.random.default_rng(n)
    products = {lag: rng.standard_normal((n_paths, n, n)) for lag in (0.1, 0.5)}
    return PathStatistics(lag_products=products, n_paths=n_paths, seed=5)


class TestBootstrapGemm:
    """reversibility_test forms each lag's resample means as one GEMM of the
    resample-count matrix with the per-path asymmetries."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_matches_fancy_index_oracle(self, n):
        stats = _random_stats(n, 200)
        if n == 1:  # a 1 x 1 product is its own transpose: no asymmetry
            with pytest.raises(InsufficientDataError, match="degenerate"):
                reversibility_test(stats)
            return
        res = reversibility_test(stats)
        resamples = estimators._bootstrap_indices(stats, estimators.BOOTSTRAP_RESAMPLES)
        statistic, per_lag = oracles.bootstrap_asymmetry(stats.lag_products, resamples)
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
            "res = reversibility_test(PathStatistics(lag_products=products, n_paths=500, seed=5))\n"
            "print(repr((res.statistic, res.per_lag)))"
        )
        assert _with_blas_threads(code, 1) == _with_blas_threads(code, 2)

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
