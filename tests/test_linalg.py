import math

import numpy as np
import pytest
import scipy.linalg

from ouirrev import linalg
from ouirrev.exceptions import DegenerateModelError, NotPositiveDefiniteError, NumericalFailureError

from oracles import companion_eigvals, gram_quadrature, match_spectra


class TestEig:
    def test_diagonal(self):
        spec = linalg.eig(np.diag([-1.0, 2.0]))
        assert np.allclose(np.sort(spec.eigenvalues.real), [-1.0, 2.0], atol=1e-14)
        assert np.allclose(spec.eigenvalues.imag, 0.0, atol=1e-14)
        assert spec.min_real_part == pytest.approx(-1.0, abs=1e-14)

    def test_rotational_pair(self):
        # characteristic polynomial lam^2 - 2 lam + 1 + w^2 => 1 +- 0.5i
        spec = linalg.eig([[1.0, 0.5], [-0.5, 1.0]])
        assert np.allclose(np.sort_complex(spec.eigenvalues), [1 - 0.5j, 1 + 0.5j], atol=1e-14)

    def test_random_4x4_vs_companion_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((4, 4))
            mine = linalg.eig(m).eigenvalues
            assert match_spectra(mine, companion_eigvals(m)) < 1e-8

    def test_determinant_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n))
            norm = np.linalg.norm(m)
            for lam in linalg.eig(m).eigenvalues:
                res = abs(np.linalg.det(m - lam * np.eye(n)))
                assert res <= linalg.TOL_EIG * norm

    def test_conjugate_closure_and_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            m = rng.standard_normal((n, n)) * 10 ** rng.uniform(-1, 1)
            vals = linalg.eig(m).eigenvalues
            assert np.allclose(np.sort_complex(vals), np.sort_complex(vals.conj()), atol=1e-9)
            assert abs(vals.sum().real - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))
            assert abs(vals.sum().imag) <= 1e-9

    def test_repeated_and_defective(self):
        for m in [
            np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
            np.eye(5),
            np.zeros((3, 3)),
        ]:
            mine = linalg.eig(m).eigenvalues
            assert match_spectra(mine, np.linalg.eigvals(m)) < 1e-6

    def test_max_dimension(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((32, 32))
        assert match_spectra(linalg.eig(m).eigenvalues, np.linalg.eigvals(m)) < 1e-8

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            linalg.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestExpm:
    def test_zero_is_exact_identity(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.expm(np.diag([-1.0, -2.0]))
        assert np.allclose(out, np.diag([math.exp(-1), math.exp(-2)]), atol=1e-15)

    def test_rotation_generator(self):
        th = math.pi / 2
        out = linalg.expm([[0.0, th], [-th, 0.0]])
        assert np.allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            m *= 5.0 / max(np.linalg.norm(m), 5.0)
            t, s = rng.uniform(0, 2, size=2)
            lhs = linalg.expm(m * (t + s))
            rhs = linalg.expm(m * t) @ linalg.expm(m * s)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) * 10 ** rng.uniform(-2, 1)
            ref = scipy.linalg.expm(m)
            assert np.max(np.abs(linalg.expm(m) - ref)) <= 1e-10 * (1 + np.linalg.norm(ref))

    def test_extreme_norm_is_numerical_failure(self):
        from ouirrev.exceptions import NumericalFailureError

        with pytest.raises(NumericalFailureError):
            linalg.expm(1e30 * np.eye(2))


class TestSolveLyapunov:
    def test_identity_drift(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(linalg.solve_lyapunov(np.eye(2), a), a / 2, atol=1e-14)

    def test_rotational_is_half_identity(self):
        for omega in (0.3, 1.0, 4.0):
            b = np.array([[1.0, omega], [-omega, 1.0]])
            xi = linalg.solve_lyapunov(b, np.eye(2))
            assert np.allclose(xi, np.eye(2) / 2, atol=1e-12)
            # independent route: Bartels-Stewart
            ref = scipy.linalg.solve_continuous_lyapunov(b, np.eye(2))
            assert np.allclose(xi, ref, atol=1e-12)

    def test_symmetric_drift_closed_form(self):
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[1 / 3, -1 / 6], [-1 / 6, 1 / 3]])
        xi = linalg.solve_lyapunov(b, np.eye(2))
        assert np.allclose(xi, expected, atol=1e-14)
        assert np.linalg.norm(b @ xi + xi @ b.T - np.eye(2)) <= 1e-12

    def test_residual_contract(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            b = rng.standard_normal((n, n)) + (n + 1) * np.eye(n)
            g = rng.standard_normal((n, n))
            a = g @ g.T + 0.1 * np.eye(n)
            xi = linalg.solve_lyapunov(b, a)
            assert linalg.sym_defect(xi) == 0.0
            res = np.linalg.norm(b @ xi + xi @ b.T - a)
            assert res <= linalg.TOL_LYAP * (1 + np.linalg.norm(a))

    def test_degenerate_pair_raises(self):
        # eigenvalues +1 and -1 sum to zero: singular Kronecker system
        with pytest.raises(DegenerateModelError):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_asymmetric_rhs_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_lyapunov(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            linalg.solve_lyapunov(np.eye(33), np.eye(33))


class TestGramIntegral:
    def test_zero_time(self):
        assert np.array_equal(linalg.gram_integral(np.eye(2), np.eye(2), 0.0), np.zeros((2, 2)))

    def test_scalar_closed_form(self):
        for lam, t in [(0.5, 0.3), (2.0, 1.7), (1.0, 10.0)]:
            out = linalg.gram_integral([[lam]], [[1.0]], t)
            expected = (1 - math.exp(-2 * lam * t)) / (2 * lam)
            assert out[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_rotational_long_time(self):
        b = [[1.0, 1.0], [-1.0, 1.0]]
        out = linalg.gram_integral(b, np.eye(2), 10.0)
        assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-6

    def test_against_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            b = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            a = g @ g.T + 0.2 * np.eye(n)
            t = rng.uniform(0.1, 2.0)
            ref = gram_quadrature(b, a, t)
            assert np.max(np.abs(linalg.gram_integral(b, a, t) - ref)) < 1e-9

    def test_composition_law(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            b = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            a = g @ g.T
            t, s = rng.uniform(0.05, 1.5, size=2)
            lhs = linalg.gram_integral(b, a, t + s)
            phi = linalg.expm(-b * t)
            rhs = phi @ linalg.gram_integral(b, a, s) @ phi.T + linalg.gram_integral(b, a, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_agrees_with_lyapunov_at_large_time(self):
        # includes a spread spectrum ({1, 3}), where a single block
        # exponential would lose digits
        cases = [
            (np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2)),
            (np.array([[1.0, 2.0], [-2.0, 1.0]]), np.diag([1.0, 2.0])),
        ]
        for b, a in cases:
            min_real = min(np.linalg.eigvals(b).real)
            t = 20.0 / min_real + 5.0
            xi = linalg.solve_lyapunov(b, a)
            assert np.max(np.abs(linalg.gram_integral(b, a, t) - xi)) < 1e-8

    def test_monotone_trace(self):
        b = np.array([[1.0, 0.5], [-0.5, 1.0]])
        traces = [np.trace(linalg.gram_integral(b, np.eye(2), t)) for t in (0.0, 0.2, 1.0, 3.0)]
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(traces, traces[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linalg.gram_integral(np.eye(2), np.eye(2), -0.1)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_numerical_failure(self):
        # integral of e^{2s} over [0, 360] exceeds the double range
        with pytest.raises(NumericalFailureError):
            linalg.gram_integral([[-1.0]], [[1.0]], 360.0)
        with pytest.raises(NumericalFailureError):
            linalg.gram_integral(np.diag([-1.0, 1.0]), np.eye(2), 400.0)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(linalg.chol_spd(np.eye(3)), np.eye(3))
        assert linalg.is_spd(np.eye(3))

    def test_indefinite_detected(self):
        assert not linalg.is_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_hand_factor(self):
        # elimination by hand: [[4,2],[2,3]] = [[2,0],[1,sqrt(2)]] L^T
        s = np.array([[4.0, 2.0], [2.0, 3.0]])
        low = linalg.chol_spd(s)
        assert np.allclose(low, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-15)
        assert np.max(np.abs(low @ low.T - s)) <= 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            linalg.chol_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_floor_scaled_by_diagonal(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.chol_spd(np.diag([1.0, 1e-14]))


class TestSymDefect:
    def test_symmetric_zero(self):
        assert linalg.sym_defect(np.array([[1.0, 2.0], [2.0, 3.0]])) == 0.0

    def test_antisymmetric_value(self):
        # ||m - m^T||_F = 2 sqrt(2), ||m||_F = sqrt(2)
        val = linalg.sym_defect(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert val == pytest.approx(2 * math.sqrt(2) / (1 + math.sqrt(2)), rel=1e-15)

    def test_monotone_in_rotation_strength(self):
        defects = [
            linalg.sym_defect(np.array([[1.0, w], [-w, 1.0]])) for w in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(d2 > d1 for d1, d2 in zip(defects, defects[1:]))
