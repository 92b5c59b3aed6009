import math

import numpy as np
import pytest

from ouirrev import linalg
from ouirrev.exceptions import NoStationaryLawError
from ouirrev.model import Verdict, build_model, classify
from ouirrev.stationary import (
    force_flux,
    stationary_density,
    stationary_law,
    two_time_covariance,
)
from ouirrev.transient import GaussianState, instantaneous_rates

from conftest import random_reversible_model, ring_model, rotational_model, thermo_corpus
from oracles import epr_quadrature, gauss_hermite_expectation


class TestStationaryLaw:
    def test_scalar_variance(self):
        for lam in (0.5, 1.0, 4.0):
            law = stationary_law(build_model([[lam]], [[1.0]]))
            assert law.Xi[0, 0] == pytest.approx(1.0 / (2 * lam), rel=1e-12)

    def test_rotational_half_identity(self):
        law = stationary_law(rotational_model(1.0))
        assert np.allclose(law.Xi, np.eye(2) / 2, atol=1e-12)

    def test_sweeping_has_no_law(self, sweeping_model):
        with pytest.raises(NoStationaryLawError):
            stationary_law(sweeping_model)

    def test_lyapunov_residual_invariant(self):
        rng = np.random.default_rng(51)
        models = [rotational_model(2.0), random_reversible_model(rng, 3)]
        models.append(build_model([[3.0, 1.0], [0.0, 2.0]], np.diag([1.0, 0.8])))
        for m in models:
            law = stationary_law(m)
            res = np.linalg.norm(m.B @ law.Xi + law.Xi @ m.B.T - m.A)
            assert res <= 1e-9 * (1 + np.linalg.norm(m.A))
            assert linalg.is_spd(law.Xi)

    def test_reversible_closed_form_covariance(self):
        rng = np.random.default_rng(53)
        for n in (2, 3):
            m = random_reversible_model(rng, n)
            law = stationary_law(m)
            expected = 0.5 * np.linalg.solve(m.B, m.A)
            assert np.max(np.abs(law.Xi - expected)) < 1e-10


class TestEntropyProduction:
    def test_reversible_is_zero(self, reversible_2d):
        law = stationary_law(reversible_2d)
        assert law.epr <= 1e-10

    def test_scalar_is_zero(self):
        for lam in (0.3, 3.0):
            law = stationary_law(build_model([[lam]], [[1.0]]))
            assert law.epr <= 1e-12

    def test_rotational_value(self):
        for omega in (0.5, 1.0, 2.0):
            law = stationary_law(rotational_model(omega))
            assert law.epr == pytest.approx(2 * omega**2, abs=1e-10)

    def test_closed_form_matches_quadrature(self):
        # anti-hallucination gate: the Gaussian trace formula must agree with
        # quadrature of the defining integral
        cases = [
            rotational_model(0.5),
            rotational_model(1.0),
            rotational_model(2.0),
            build_model([[1.5, 1.0], [0.0, 0.8]], np.diag([1.0, 1.2])),
            build_model([[2.0, 1.0], [1.0, 2.0]], [[1.0, 0.0], [0.5, 1.0]]),
        ]
        for m in cases:
            law = stationary_law(m)
            assert abs(law.epr - epr_quadrature(law)) < 1e-6

    def test_epr_equals_force_times_flux(self):
        # E[Pi . (J / P)] over the stationary law, evaluated through force_flux
        for m in [rotational_model(1.0), build_model([[1.5, 1.0], [0.0, 0.8]], np.eye(2))]:
            law = stationary_law(m)

            def integrand(x):
                ff = force_flux(law, x)
                return float(ff.affinity @ ff.flux)

            val = gauss_hermite_expectation(integrand, np.zeros(m.n), law.Xi)
            assert abs(val - law.epr) < 1e-6


class TestHeatDissipation:
    def test_equals_epr_in_stationarity(self):
        rng = np.random.default_rng(59)
        models = [
            rotational_model(1.0),
            rotational_model(2.0),
            build_model([[3.0, 1.0], [0.0, 2.0]], np.eye(2)),
            random_reversible_model(rng, 2),
        ]
        for m in models:
            law = stationary_law(m)
            assert abs(law.hdr - law.epr) <= 1e-9

    def test_reversible_zero(self, reversible_2d):
        law = stationary_law(reversible_2d)
        assert abs(law.hdr) <= 1e-9

    def test_rotational_value(self):
        law = stationary_law(rotational_model(1.0))
        assert law.hdr == pytest.approx(2.0, abs=1e-10)

    def test_scalar_zero(self):
        law = stationary_law(build_model([[3.0]], [[1.0]]))
        assert abs(law.hdr) <= 1e-12


class TestSharedRateKernel:
    def test_law_rates_are_transient_rates_at_xi(self):
        # epr and hdr of the law are the transient rates at (0, Xi), bit for bit
        rng = np.random.default_rng(16)
        g, w = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        b16 = g @ g.T / 16 + 0.5 * np.eye(16) + (w - w.T) / math.sqrt(32.0)
        ring = ring_model(8)
        models = [m for m, _ in thermo_corpus()]
        models += [build_model(ring["B"], ring["Gamma"]), build_model(b16, np.eye(16))]
        for m in models:
            law = stationary_law(m)
            snap = instantaneous_rates(m, GaussianState(math.inf, np.zeros(m.n), law.Xi))
            assert law.epr == snap.epr_t
            assert law.hdr == snap.hdr_t


class TestTwoTimeCovariance:
    def test_zero_lag_is_xi(self):
        law = stationary_law(rotational_model(1.0))
        assert np.array_equal(two_time_covariance(law, 0.0), law.Xi)

    def test_reversible_symmetric(self, reversible_2d):
        law = stationary_law(reversible_2d)
        r = two_time_covariance(law, 0.7)
        assert linalg.sym_defect(r) <= 1e-10

    def test_rotational_closed_form(self):
        omega = 1.0
        law = stationary_law(rotational_model(omega))
        for tau in (0.3, 1.0, math.pi / 2):
            c, s = math.cos(omega * tau), math.sin(omega * tau)
            expected = math.exp(-tau) * np.array([[c, -s], [s, c]]) / 2
            assert np.max(np.abs(two_time_covariance(law, tau) - expected)) < 1e-12
        # asymmetric whenever omega tau is not a multiple of pi
        assert linalg.sym_defect(two_time_covariance(law, 0.5)) > 0.1

    def test_negative_lag_transpose(self):
        law = stationary_law(rotational_model(0.7))
        r = two_time_covariance(law, 0.4)
        assert np.max(np.abs(two_time_covariance(law, -0.4) - r.T)) < 1e-14

    def test_decay_to_zero(self):
        for m in [rotational_model(1.0), build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))]:
            law = stationary_law(m)
            tau = 25.0 / law.classification.spectrum_B.min_real_part
            assert np.max(np.abs(two_time_covariance(law, tau))) <= 1e-8


class TestForceFlux:
    def test_zero_state(self):
        law = stationary_law(rotational_model(1.0))
        ff = force_flux(law, np.zeros(2))
        assert np.array_equal(ff.affinity, np.zeros(2))
        assert np.array_equal(ff.flux, np.zeros(2))
        assert np.array_equal(ff.mechanical_force, np.zeros(2))

    def test_reversible_affinity_vanishes(self, reversible_2d):
        law = stationary_law(reversible_2d)
        for x in ([1.0, 0.0], [0.3, -2.0]):
            assert np.max(np.abs(force_flux(law, x).affinity)) < 1e-12

    def test_rotational_hand_value(self):
        # M = 2B - 2I = [[0, 2], [-2, 0]]; Pi(1,0) = -M e1 = (0, 2)
        law = stationary_law(rotational_model(1.0))
        ff = force_flux(law, [1.0, 0.0])
        assert np.allclose(ff.affinity, [0.0, 2.0], atol=1e-12)
        assert np.allclose(ff.flux, 0.5 * law.model.A @ ff.affinity, atol=1e-15)
        assert np.allclose(ff.mechanical_force, [-2.0, 2.0], atol=1e-12)


class TestFdrResiduals:
    def test_reversible_both_small(self, reversible_2d):
        law = stationary_law(reversible_2d)
        standard, strong = law.fdr_standard_residual, law.fdr_strong_residual
        assert standard <= 1e-10
        assert strong <= 1e-10

    def test_rotational_strong_value(self):
        # A - 2 B Xi = I - B, Frobenius norm omega sqrt(2), scale 1 + sqrt(2)
        for omega in (0.5, 1.0, 2.0):
            law = stationary_law(rotational_model(omega))
            standard, strong = law.fdr_standard_residual, law.fdr_strong_residual
            assert standard <= 1e-10
            assert strong == pytest.approx(omega * math.sqrt(2) / (1 + math.sqrt(2)), abs=1e-9)

    def test_scalar_both_tiny(self):
        law = stationary_law(build_model([[2.0]], [[1.0]]))
        standard, strong = law.fdr_standard_residual, law.fdr_strong_residual
        assert standard <= 1e-12
        assert strong <= 1e-12


class TestStationaryDensity:
    def test_standard_normal_peak(self):
        # lambda = 1/2 gives Xi = 1
        law = stationary_law(build_model([[0.5]], [[1.0]]))
        assert stationary_density(law, [0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_monotone_along_rays(self):
        law = stationary_law(rotational_model(1.0))
        direction = np.array([0.6, -0.8])
        values = [stationary_density(law, r * direction) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_rotational_plug_in(self):
        law = stationary_law(rotational_model(1.0))
        assert stationary_density(law, [1.0, 1.0]) == pytest.approx(
            math.exp(-2.0) / math.pi, rel=1e-12
        )


class TestReversibilityTrichotomy:
    def test_consistency_across_characterizations(self):
        rng = np.random.default_rng(61)
        corpus = [
            rotational_model(0.5),
            rotational_model(2.0),
            build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)),
            build_model([[3.0, 1.0], [0.0, 2.0]], np.eye(2)),
            build_model([[1.0]], [[2.0]]),
            random_reversible_model(rng, 3),
            build_model(np.diag([-1.0, 1.0]), np.eye(2)),
        ]
        for m in corpus:
            verdict = classify(m).verdict
            if verdict is Verdict.SWEEPING:
                with pytest.raises(NoStationaryLawError):
                    stationary_law(m)
                continue
            law = stationary_law(m)
            strong_zero = law.fdr_strong_residual <= 1e-8
            epr_zero = law.epr <= 1e-8
            assert strong_zero == (verdict is Verdict.REVERSIBLE)
            assert epr_zero == (verdict is Verdict.REVERSIBLE)
