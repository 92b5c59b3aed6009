import math

import numpy as np
import pytest

from ouirrev import estimators, linalg
from ouirrev.estimators import (
    greenkubo_check,
    hdr_estimate,
    path_statistics,
    reversibility_test,
)
from ouirrev.exceptions import InsufficientDataError
from ouirrev.model import build_model
from ouirrev.sampler import sample_batch
from ouirrev.stationary import stationary_law, two_time_covariance

from conftest import rotational_model


@pytest.fixture(scope="module")
def rot_batch():
    m = rotational_model(1.0)
    law = stationary_law(m)
    return m, law, sample_batch(m, dt=0.02, steps=2500, n_paths=100, seed=100, law=law)


@pytest.fixture(scope="module")
def rev_batch():
    m = build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))
    law = stationary_law(m)
    return m, law, sample_batch(m, dt=0.02, steps=2500, n_paths=100, seed=200, law=law)


def _lag_mean_and_se(batch, lag: float):
    """Ensemble mean of the per-path lag products and its standard error."""
    per_path = path_statistics(batch, (lag,)).lag_products[lag]
    return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)


class TestEmpiricalMoments:
    def test_rotational_moments(self, rot_batch):
        _, law, batch = rot_batch
        per_path_mean = batch.states.mean(axis=1)
        se_mean = per_path_mean.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
        assert np.all(np.abs(per_path_mean.mean(axis=0)) <= 4 * se_mean)
        xi_hat, se_xi = _lag_mean_and_se(batch, 0.0)
        assert np.all(np.abs(xi_hat - law.Xi) <= 4 * se_xi)

    def test_scalar_variance(self):
        m = build_model([[1.0]], [[1.0]])
        law = stationary_law(m)
        batch = sample_batch(m, dt=0.02, steps=2500, n_paths=100, seed=5, law=law)
        xi_hat, se_xi = _lag_mean_and_se(batch, 0.0)
        assert abs(xi_hat[0, 0] - 0.5) <= 4 * se_xi[0, 0]


class TestEmpiricalTwoTime:
    def test_zero_lag_matches_xi_hat(self, rot_batch):
        _, _, batch = rot_batch
        r0 = path_statistics(batch, (0.0,)).lag_products[0.0].mean(axis=0)
        samples = batch.n_paths * (batch.n_steps + 1)
        xi_hat = np.einsum("pti,ptj->ij", batch.states, batch.states) / samples
        assert np.max(np.abs(r0 - xi_hat)) < 1e-12

    def test_rotational_asymmetry_detected(self, rot_batch):
        _, law, batch = rot_batch
        r = path_statistics(batch, (0.5,)).lag_products[0.5].mean(axis=0)
        target = two_time_covariance(law, 0.5)
        assert np.max(np.abs(r - target)) < 0.05
        # asymmetric part e^{-tau} sin(tau) is far above the noise floor
        asym = r - r.T
        assert abs(asym[0, 1]) > 0.1

    def test_lag_validation(self, rot_batch):
        _, _, batch = rot_batch
        with pytest.raises(ValueError):
            path_statistics(batch, (0.013,))
        with pytest.raises(ValueError):
            path_statistics(batch, (1e9,))


class TestReversibilityTest:
    def test_reversible_accepted(self, rev_batch):
        _, _, batch = rev_batch
        res = reversibility_test(path_statistics(batch, [0.1, 0.5, 1.0]))
        assert res.verdict_reversible

    def test_rotational_rejected_strongly(self, rot_batch):
        _, _, batch = rot_batch
        res = reversibility_test(path_statistics(batch, [0.1, 0.5, 1.0]))
        assert not res.verdict_reversible
        assert res.statistic > 5 * res.threshold

    def test_omega_zero_boundary_is_reversible(self):
        m = build_model(np.eye(2), np.eye(2))
        law = stationary_law(m)
        batch = sample_batch(m, dt=0.02, steps=2000, n_paths=80, seed=300, law=law)
        assert reversibility_test(path_statistics(batch, [0.1, 0.5])).verdict_reversible

    def test_needs_two_lags(self, rot_batch):
        _, _, batch = rot_batch
        with pytest.raises(ValueError):
            reversibility_test(path_statistics(batch, [0.5]))

    def test_deterministic_rerun(self, rot_batch):
        _, _, batch = rot_batch
        a = reversibility_test(path_statistics(batch, [0.1, 0.5, 1.0]))
        b = reversibility_test(path_statistics(batch, [0.1, 0.5, 1.0]))
        assert a.statistic == b.statistic
        assert a.per_lag == b.per_lag


class TestHdrEstimate:
    def test_rotational_value(self):
        m = rotational_model(1.0)
        law = stationary_law(m)
        batch = sample_batch(m, dt=0.01, steps=10_000, n_paths=200, seed=400, law=law)
        est = hdr_estimate(batch, burn_in=0.0)
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.stderr > 0

    def test_reversible_centered_at_zero(self, rev_batch):
        _, _, batch = rev_batch
        est = hdr_estimate(batch, burn_in=0.0)
        assert abs(est.value) <= 3 * est.stderr

    def test_deterministic(self, rot_batch):
        _, _, batch = rot_batch
        assert hdr_estimate(batch, 0.0).value == hdr_estimate(batch, 0.0).value

    def test_burn_in_too_long(self, rot_batch):
        _, _, batch = rot_batch
        with pytest.raises(InsufficientDataError):
            hdr_estimate(batch, burn_in=1e6)


class TestGreenKubo:
    def test_conditional_decay_both_classes(self, rot_batch, rev_batch):
        for m, law, batch in (rot_batch, rev_batch):
            cond = sample_batch(m, dt=0.02, steps=50, n_paths=2000, seed=500, x0=[1.0, 1.0])
            checkpoints = [0.2, 0.5, 1.0]
            stats = path_statistics(batch, checkpoints, burn_in=0.0)
            res = greenkubo_check(cond, m, checkpoints, stats=stats, law=law)
            assert res.max_abs_z <= 4.0
            assert res.max_abs_z_two_time <= 4.0

    def test_one_expm_per_checkpoint(self, rot_batch, monkeypatch):
        m, law, batch = rot_batch
        cond = sample_batch(m, dt=0.02, steps=50, n_paths=20, seed=500, x0=[1.0, 1.0])
        checkpoints = [0.2, 0.5, 1.0]
        stats = path_statistics(batch, checkpoints, burn_in=0.0)
        calls = []
        kernel = linalg.expm

        def counting(a):
            calls.append(a)
            return kernel(a)

        monkeypatch.setattr(linalg, "expm", counting)
        greenkubo_check(cond, m, checkpoints, stats=stats, law=law)
        assert len(calls) == len(checkpoints)

    def test_zero_start_stays_zero(self, rot1):
        cond = sample_batch(rot1, dt=0.02, steps=50, n_paths=2000, seed=600, x0=[0.0, 0.0])
        res = greenkubo_check(cond, rot1, [0.2, 1.0])
        assert res.max_abs_z <= 4.0
        assert res.max_deviation < 0.05

    def test_rejects_stationary_start_batch(self, rot_batch):
        m, _, batch = rot_batch
        with pytest.raises(ValueError):
            greenkubo_check(batch, m, [0.2])


class TestConsistency:
    def test_error_scales_like_root_n(self):
        # slope of log error vs log paths over 4x doublings within [0.3, 0.7]
        m = rotational_model(1.0)
        law = stationary_law(m)
        sizes = (25, 50, 100, 200)
        errors = []
        for n_paths in sizes:
            sq = 0.0
            for rep in range(8):
                batch = sample_batch(
                    m, dt=0.02, steps=1000, n_paths=n_paths, seed=10_000 + 17 * rep, law=law
                )
                xi_hat = path_statistics(batch, (0.0,)).lag_products[0.0].mean(axis=0)
                sq += float(np.linalg.norm(xi_hat - law.Xi)) ** 2
            errors.append(math.sqrt(sq / 8))
        slope, _ = np.polyfit(np.log(sizes), np.log(errors), 1)
        assert -0.7 <= slope <= -0.3

    def test_path_statistics_bundle(self, rot_batch):
        m, law, batch = rot_batch
        cond = sample_batch(m, dt=0.02, steps=50, n_paths=500, seed=700, x0=[1.0, 1.0])
        lags = [0.1, 0.5, 1.0]
        stats = path_statistics(batch, lags, burn_in=0.0)
        assert stats.n_paths == batch.n_paths
        assert stats.seed == batch.seed
        assert set(stats.lag_products) == set(lags)
        for lag in lags:
            assert stats.lag_products[lag].shape == (batch.n_paths, 2, 2)
            alone = path_statistics(batch, (lag,)).lag_products[lag]
            assert np.array_equal(stats.lag_products[lag].mean(axis=0), alone.mean(axis=0))
        assert not reversibility_test(stats).verdict_reversible
        gk = greenkubo_check(cond, m, lags, stats=stats, law=law)
        assert math.isfinite(gk.max_deviation)

    def test_repeated_lag_computed_once(self, rot_batch):
        _, _, batch = rot_batch
        stats = path_statistics(batch, [0.5, 0.1, 0.5])
        assert stats.lags == (0.5, 0.1, 0.5)
        assert list(stats.lag_products) == [0.5, 0.1]
        assert not stats.lag_products[0.5].flags.writeable

    def test_greenkubo_needs_checkpoint_lags(self, rot_batch):
        m, law, batch = rot_batch
        cond = sample_batch(m, dt=0.02, steps=50, n_paths=10, seed=701, x0=[1.0, 1.0])
        stats = path_statistics(batch, [0.1, 0.5])
        with pytest.raises(ValueError, match="not lags"):
            greenkubo_check(cond, m, [0.1, 1.0], stats=stats, law=law)


def _einsum_oracle(later, earlier):
    return np.einsum("pti,ptj->pij", later, earlier)


class TestLagProducts:
    """The row-wise kernel against the single-expression einsum it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_equal_to_einsum(self, n):
        rng = np.random.default_rng(n)
        steps = 400
        states = rng.standard_normal((7, steps + 1, n))
        for k0 in (0, 37):
            for ell in (0, 1, 250):
                later = states[:, k0 + ell :, :]
                earlier = states[:, k0 : steps + 1 - ell, :]
                assert np.array_equal(
                    estimators._lag_products(later, earlier), _einsum_oracle(later, earlier)
                ), (n, k0, ell)

    def test_path_statistics_matches_oracle(self, rot_batch):
        _, _, batch = rot_batch
        k0, ell = 50, 25  # burn-in 1.0 and lag 0.5 at dt = 0.02
        stats = path_statistics(batch, [0.5], burn_in=1.0)
        later = batch.states[:, k0 + ell :, :]
        earlier = batch.states[:, k0 : batch.n_steps + 1 - ell, :]
        expected = _einsum_oracle(later, earlier) / earlier.shape[1]
        assert np.array_equal(stats.lag_products[0.5], expected)

    def test_validation(self, rot_batch):
        _, _, batch = rot_batch
        with pytest.raises(ValueError, match="burn-in"):
            path_statistics(batch, [0.1], burn_in=-1.0)
        with pytest.raises(InsufficientDataError):
            path_statistics(batch, [0.1], burn_in=1e6)
        with pytest.raises(ValueError, match="multiple of dt"):
            path_statistics(batch, [0.013])
        with pytest.raises(ValueError, match="exceeds"):
            path_statistics(batch, [1e9])
