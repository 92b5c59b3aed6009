import math

import numpy as np
import pytest
import scipy.linalg

from ouirrev import linalg
from ouirrev.exceptions import DegenerateModelError, NotPositiveDefiniteError, NumericalFailureError
from ouirrev.model import build_model
from ouirrev.stationary import stationary_law

from conftest import ring_model, with_blas_threads
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
        with pytest.raises(ValueError, match="at least 1x1"):
            linalg.eig(np.zeros((0, 0)))

    def test_canonical_order_under_permutation(self):
        # Every eigenvalue of the ring has real part 1.5 up to rounding noise,
        # so only the rounded real key keeps the order fixed.
        b = np.array(ring_model(8)["B"])
        ref = linalg.eig(b).eigenvalues
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = np.eye(8)[rng.permutation(8)]
            vals = linalg.eig(p @ b @ p.T).eigenvalues
            assert np.max(np.abs(vals - ref)) <= 1e-14

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericalFailureError):
            linalg.eig(np.eye(2))


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

    @pytest.mark.filterwarnings("error")
    def test_extreme_norm_is_numerical_failure(self):
        from ouirrev.exceptions import NumericalFailureError

        with pytest.raises(NumericalFailureError):
            linalg.expm(1e30 * np.eye(2))
        # a 1-norm that overflows to inf, without a numpy warning
        with pytest.raises(NumericalFailureError):
            linalg.expm([[1e308, 1e308], [-1e308, 1e308]])

    @pytest.mark.filterwarnings("error")
    def test_squaring_overflow_is_numerical_failure(self):
        # the Pade step is finite and the squarings overflow, without a numpy warning
        with pytest.raises(NumericalFailureError, match="overflow in matrix exponential"):
            linalg.expm([[2000.0]])

    @pytest.mark.filterwarnings("error")
    def test_scaled_overflow_is_numerical_failure(self):
        m = np.array([[-2.0, -1.0], [1.0, -2.0]])
        for t in (0.01, 2.57, -1.5, 1e307):
            assert np.array_equal(linalg._scaled(m, t), m * t)
        # an entry of -B t that overflows before expm sees it, without a warning
        with pytest.raises(NumericalFailureError, match="overflows"):
            linalg._scaled(m, 1e308)


# The absolute residual bound these closed-form and random solves met before
# acceptance moved to the backward error; kept here as a check on them.
LYAP_ABS_RESIDUAL = 1e-9
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def triangular_lyapunov_draw():
    """150 stable upper-triangular b (strict upper entries N(0, 4), diagonal
    U(0.01, 3), n from 1 to 32) with a = g g^T + 0.1 I: non-normal b whose
    solutions are large, indexed in draw order."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(150):
        n = int(rng.integers(1, 33))
        b = np.triu(rng.normal(0.0, 2.0, (n, n)), 1) + np.diag(rng.uniform(0.01, 3.0, n))
        g = rng.standard_normal((n, n))
        cases.append((b, g @ g.T + 0.1 * np.eye(n)))
    return cases


# Draws 132 (n = 13, min Re eigenvalue 0.148), 9, 43, 22 and 110 (n = 15 to 18):
# exact to rounding, but over the former bound 1e-9 (1 + ||a||_F) on the residual.
NON_NORMAL_CASES = [triangular_lyapunov_draw()[i] for i in (132, 9, 43, 22, 110)]


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
            assert res <= LYAP_ABS_RESIDUAL * (1 + np.linalg.norm(a))

    # Spread spectrum; large right-hand side; eigenvalues 1e-8 +- i, next to
    # the imaginary axis, where the first sign step cancels and only the
    # refinement step meets the residual bound. Each has the closed form xi.
    @pytest.mark.parametrize(
        "b, a, xi",
        [
            (np.diag([1e-6, 1.0, 1e3]), np.eye(3), np.diag([5e5, 0.5, 5e-4])),
            (np.array([[1.0, 1.0], [-1.0, 1.0]]), 1e10 * np.eye(2), 5e9 * np.eye(2)),
            (np.array([[1e-8, 1.0], [-1.0, 1e-8]]), np.eye(2), 5e7 * np.eye(2)),
        ],
        ids=["spread", "large-rhs", "near-axis"],
    )
    def test_hard_cases(self, b, a, xi):
        got = linalg.solve_lyapunov(b, a)
        assert np.max(np.abs(got - xi)) <= 1e-14 * np.max(np.abs(xi))
        res = np.linalg.norm(b @ got + got @ b.T - a)
        assert res <= LYAP_ABS_RESIDUAL * (1 + np.linalg.norm(a))

    @pytest.mark.parametrize("case", range(len(NON_NORMAL_CASES)))
    def test_non_normal_drift_accepted(self, case):
        b, a = NON_NORMAL_CASES[case]
        n = b.shape[0]
        model = build_model(b, np.linalg.cholesky(a))
        xi = stationary_law(model).Xi
        assert np.linalg.norm(model.B @ xi + xi @ model.B.T - model.A) > 1e-9 * (
            1 + np.linalg.norm(model.A)
        )
        # Both solutions are backward stable, so they agree to what the
        # condition of the operator X -> b X + X b^T allows.
        ref = scipy.linalg.solve_continuous_lyapunov(model.B, model.A)
        op = np.kron(np.eye(n), model.B) + np.kron(model.B, np.eye(n))
        allowed = np.linalg.cond(op) * 2 * linalg.TOL_LYAP * n * UNIT_ROUNDOFF
        assert np.linalg.norm(xi - ref) <= allowed * np.linalg.norm(ref)

    @pytest.mark.parametrize("scale", [1e-16, 1e-8, 1e-3, 1.0, 7.0, 1e8, 1e16])
    @pytest.mark.parametrize(
        "b, a",
        [
            NON_NORMAL_CASES[0],
            (np.array([[1.0, 1.0], [-1.0, 1.0]]), np.eye(2)),
            (np.diag([1e-6, 1.0, 1e3]), np.eye(3)),
            (np.array([[1e-8, 1.0], [-1.0, 1e-8]]), np.eye(2)),
        ],
        ids=["triangular13", "rot2", "spread", "near-axis"],
    )
    def test_acceptance_independent_of_units(self, b, a, scale):
        # The solve is accepted at every scale of a; the true solution off by
        # 1e-8 relative is rejected at every scale, also where a is so small
        # that an absolute residual bound would pass it.
        xi = linalg.solve_lyapunov(b, scale * a)
        assert linalg._lyapunov_accepts(b, scale * a, xi)
        e = np.random.default_rng(41).standard_normal(b.shape)
        e = (e + e.T) / np.linalg.norm(e + e.T)
        off = xi + 1e-8 * np.linalg.norm(xi) * e
        assert not linalg._lyapunov_accepts(b, scale * a, off)

    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_solution_rejected(self, value):
        # with b > 0 entrywise the residual of an all-inf x is inf, not NaN
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert not linalg._lyapunov_accepts(b, np.eye(2), np.full((2, 2), value))

    @pytest.mark.filterwarnings("error")
    def test_norms_beyond_sum_of_squares(self):
        # ||b||_F^2 and ||a||_F^2 overflow, the norms do not: the backward
        # error alone accepts the solve, and rejects an x off by 1e-8
        b, a = np.diag([1e200, 2e200]), 1e200 * np.eye(2)
        xi = linalg.solve_lyapunov(b, a)
        np.testing.assert_allclose(xi, np.diag([0.5, 0.25]), rtol=1e-15)
        assert not linalg._lyapunov_accepts(b, a, xi + 1e-8 * np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_underflowing_solve_rejected(self):
        # b = 1e308 I: X = I / 2e308 is subnormal, and the sign iteration's
        # Z^{-1} Y Z^{-T} underflows to 0, so it returns 3/4 of it; the
        # backward error (0.12) rejects it without an overflow in its norms
        with pytest.raises(DegenerateModelError, match="backward error"):
            linalg.solve_lyapunov(1e308 * np.eye(2), np.eye(2))

    def test_degenerate_pair_raises(self):
        # eigenvalues +1 and -1 sum to zero: no solution, and b is not stable
        with pytest.raises(DegenerateModelError):
            linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_imaginary_axis_eigenvalues_singular(self):
        # b = [[0, 1], [-1, 0]] has eigenvalues +-i: the first step maps Z to 0
        with pytest.raises(DegenerateModelError, match="sign iteration singular"):
            linalg.solve_lyapunov([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_solution_is_numerical_failure(self):
        # X = a / 2 = 5e307 is finite, but the sign iteration's Y = 2 X is not
        with pytest.raises(NumericalFailureError, match="overflows"):
            linalg.solve_lyapunov([[1.0]], [[1e308]])

    def test_anti_stable_drift_raises(self):
        # solvable (xi = diag(-1/2, -1/4)) but outside the stable domain
        with pytest.raises(DegenerateModelError, match="not stable"):
            linalg.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))

    def test_same_bits_on_one_and_two_blas_threads(self):
        code = (
            "import hashlib, numpy as np\n"
            "from ouirrev import linalg\n"
            "for n in (16, 32):\n"
            "    i, j = np.indices((n, n))\n"
            "    b = np.diag(1.0 + 0.25 * np.arange(n)) + 0.5 * np.sin(i - j)\n"
            "    print(hashlib.sha256(linalg.solve_lyapunov(b, np.eye(n)).tobytes()).hexdigest())"
        )
        assert with_blas_threads(code, 1) == with_blas_threads(code, 2)

    def test_asymmetric_rhs_rejected(self):
        with pytest.raises(ValueError):
            linalg.solve_lyapunov(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            linalg.solve_lyapunov(np.eye(33), np.eye(33))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.solve_lyapunov(np.eye(2), np.eye(3))


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            linalg.gram_integral(np.eye(2), np.eye(3), 1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_numerical_failure(self):
        # integral of e^{2s} over [0, 360] exceeds the double range
        with pytest.raises(NumericalFailureError):
            linalg.gram_integral([[-1.0]], [[1.0]], 360.0)
        with pytest.raises(NumericalFailureError):
            linalg.gram_integral(np.diag([-1.0, 1.0]), np.eye(2), 400.0)
        # a block-matrix 1-norm times t that overflows to inf, without a warning
        with pytest.raises(NumericalFailureError):
            linalg.gram_integral(np.eye(2), 9e306 * np.eye(2), 100.0)


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
        assert not linalg.is_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_floor_scaled_by_diagonal(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.chol_spd(np.diag([1.0, 1e-14]))

    def test_one_matrix_only(self):
        # A stack of matrices goes to _chol_stack (the transient grid's route).
        for func in (linalg.chol_spd, linalg.is_spd):
            with pytest.raises(ValueError, match="square"):
                func(np.stack([np.eye(2)] * 3))


def _chol_reference(s: np.ndarray) -> np.ndarray:
    """The per-matrix column loop that chol_spd ran before it called LAPACK:
    an oracle to 1e-13 of the factor's largest entry, not to the bit, since
    potrf orders its sums differently."""
    n = s.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        low[j, j] = math.sqrt(s[j, j] - float(np.dot(low[j, :j], low[j, :j])))
        if j + 1 < n:
            low[j + 1 :, j] = (s[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def _spd_stack(n: int, count: int = 12) -> np.ndarray:
    rng = np.random.default_rng(n)
    g = rng.standard_normal((count, n, n)) * rng.uniform(0.1, 10.0, (count, 1, 1))
    s = g @ g.swapaxes(1, 2) + rng.uniform(0.0, 2.0, (count, 1, 1)) * np.eye(n)
    return 0.5 * (s + s.swapaxes(1, 2))


class TestCholeskyStack:
    """_chol_stack, which factors the transient grid's covariances in one call,
    gives each matrix of a stack chol_spd's factor of that matrix alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 32])
    def test_stack_equals_each_matrix_alone(self, n):
        stack = _spd_stack(n)
        lows, ok = linalg._chol_stack(stack)
        assert lows.shape == stack.shape
        for s, low in zip(stack, lows):
            ref = _chol_reference(s)
            assert np.max(np.abs(low - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(low, linalg.chol_spd(s))
            assert np.array_equal(low, linalg._chol_stack(s[None])[0][0])
        grid = linalg._chol_stack(stack.reshape(3, 4, n, n))[0]
        assert np.array_equal(grid, lows.reshape(3, 4, n, n))
        assert ok.all()

    def test_member_below_floor(self):
        # Each member fails in a different way: a positive pivot below the
        # floor, the point mass of a transient grid's t = 0 row (which potrf
        # rejects), an indefinite matrix, and a pivot exactly at the floor.
        members = [
            np.diag([1.0, 1e-14, 2.0]),
            np.zeros((3, 3)),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1.0, linalg.PD_FLOOR_SCALE * (1.0 + 2.0), 2.0]),
        ]
        for member in members:
            stack = _spd_stack(3, 5)
            stack[2] = member
            with pytest.raises(NotPositiveDefiniteError):
                linalg.chol_spd(member)
            assert not linalg.is_spd(member)
            lows, ok = linalg._chol_stack(stack)
            assert ok.tolist() == [True, True, False, True, True]
            assert np.isnan(lows[2]).all()
            for k in (0, 1, 3, 4):
                assert np.array_equal(lows[k], linalg.chol_spd(stack[k]))

    def test_asymmetric_member_rejected(self):
        stack = _spd_stack(3, 5)
        stack[4, 0, 1] += 0.5
        with pytest.raises(ValueError, match="symmetric"):
            linalg._chol_stack(stack)


class TestFrobenius:
    def test_numpy_bits_in_range(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 8, 32):
            for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
                stack = scale * rng.standard_normal((3, n, n))
                norms = linalg._frobenius(stack)
                assert norms.tolist() == [np.linalg.norm(m) for m in stack]
                assert float(linalg._frobenius(stack[0])) == np.linalg.norm(stack[0])

    @pytest.mark.filterwarnings("error")
    def test_edges_of_the_range(self):
        # the sum of squares overflows at 1e300 and underflows at 5e-324,
        # the norm does neither; each matrix of a stack is scaled on its own
        cases = [
            (np.full((2, 2), 1e300), 2e300),
            (np.full((2, 2), 1e308), math.inf),
            (np.full((2, 2), 5e-324), 1e-323),
            (np.zeros((2, 2)), 0.0),
            (np.array([[np.inf, 1.0], [0.0, 0.0]]), math.inf),
        ]
        stack = np.stack([m for m, _ in cases])
        assert linalg._frobenius(stack).tolist() == [norm for _, norm in cases]
        assert math.isnan(linalg._frobenius(np.array([[np.nan, 1.0], [0.0, 0.0]])))


class TestSymDefect:
    def test_symmetric_zero(self):
        assert linalg.sym_defect(np.array([[1.0, 2.0], [2.0, 3.0]])) == 0.0

    def test_antisymmetric_value(self):
        # ||m - m^T||_F = 2 sqrt(2), ||m||_F = sqrt(2)
        val = linalg.sym_defect(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert val == pytest.approx(2 * math.sqrt(2) / (1 + math.sqrt(2)), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_defect_rejected(self):
        # ||m - m^T||_F and ||m||_F are both beyond the double range: the
        # defect is NaN, which no symmetry check lets through. At 1e300 only
        # their sums of squares would overflow: the defect is finite, and
        # rejected as well.
        huge = np.array([[1e308, 1.5e308], [-1.5e308, 1e308]])
        assert math.isnan(linalg.sym_defect(huge))
        m = np.array([[1e300, 1e300], [-1e300, 3e300]])
        assert linalg.sym_defect(m) == pytest.approx(math.sqrt(8 / 12), rel=1e-15)
        for m in (huge, m):
            assert not linalg.is_spd(m)
            with pytest.raises(ValueError, match="chol_spd must be symmetric"):
                linalg.chol_spd(m)
            with pytest.raises(ValueError, match="right-hand side a must be symmetric"):
                linalg.solve_lyapunov(np.eye(2), m)
            with pytest.raises(ValueError, match="integrand matrix a must be symmetric"):
                linalg.gram_integral(np.eye(2), m, 1.0)

    def test_monotone_in_rotation_strength(self):
        defects = [
            linalg.sym_defect(np.array([[1.0, w], [-w, 1.0]])) for w in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(d2 > d1 for d1, d2 in zip(defects, defects[1:]))
