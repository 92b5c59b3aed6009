import math

import numpy as np
import pytest
from scipy.integrate import quad

from ouirrev import linalg, sampler
from ouirrev.exceptions import NumericalFailureError, PotentialUndefinedError, UndefinedEntropyError
from ouirrev.model import Verdict, build_model, classify
from ouirrev.stationary import force_flux, stationary_density, stationary_law
from ouirrev.transient import (
    GaussianState,
    entropy,
    free_energy,
    grid_rates,
    instantaneous_rates,
    potential,
    propagate,
    propagate_grid,
    transition_density,
)

from conftest import ring_model, rotational_model, thermo_corpus
from oracles import gaussian_kl

FD_STEP = 1e-4
GRID_RTOL = 1e-12


def irreversible_8d():
    """B = K + W with K SPD and W antisymmetric, Gamma = I: stable, irreversible."""
    rng = np.random.default_rng(8)
    g = rng.standard_normal((8, 8))
    w = rng.standard_normal((8, 8))
    return build_model(g @ g.T / 8 + 0.5 * np.eye(8) + (w - w.T), np.eye(8))


def ring_8d():
    ring = ring_model(8)
    return build_model(ring["B"], ring["Gamma"])


def rates_reference(model, state):
    """The per-state rate formulas in their original operation order."""
    low = linalg.chol_spd(state.cov)
    n = model.n
    ent = 0.5 * n * (1.0 + math.log(2.0 * math.pi)) + float(np.sum(np.log(np.diag(low))))
    cov_inv = np.linalg.solve(state.cov, np.eye(n))
    cov_inv = 0.5 * (cov_inv + cov_inv.T)
    ainv_b = np.linalg.solve(model.A, model.B)
    m_t = 2.0 * ainv_b - cov_inv
    bt_ainv_b = model.B.T @ ainv_b
    mean_term = 2.0 * float(state.mean @ bt_ainv_b @ state.mean)
    epr_t = 0.5 * float(np.trace(m_t.T @ model.A @ m_t @ state.cov)) + mean_term
    epr_t = max(epr_t, 0.0)
    hdr_t = 2.0 * float(np.trace(bt_ainv_b @ state.cov)) - float(np.trace(model.B)) + mean_term
    psi = None
    if classify(model).verdict is Verdict.REVERSIBLE:
        s = np.linalg.solve(model.A, model.B)
        s = 0.5 * (s + s.T)
        psi = float(np.trace(s @ state.cov)) + float(state.mean @ s @ state.mean) - ent
    return epr_t, hdr_t, epr_t - hdr_t, psi


def entropy_rate_fd(model, x0, t):
    h = FD_STEP * max(1.0, t)
    return (entropy(propagate(model, x0, t + h)) - entropy(propagate(model, x0, t - h))) / (2 * h)


class TestPropagate:
    def test_time_zero(self):
        m = rotational_model(1.0)
        state = propagate(m, [1.0, 2.0], 0.0)
        assert np.array_equal(state.mean, [1.0, 2.0])
        assert np.array_equal(state.cov, np.zeros((2, 2)))

    def test_scalar_formulas(self):
        lam, t, x0 = 1.3, 0.8, 2.0
        state = propagate(build_model([[lam]], [[1.0]]), [x0], t)
        assert state.mean[0] == pytest.approx(x0 * math.exp(-lam * t), rel=1e-12)
        assert state.cov[0, 0] == pytest.approx((1 - math.exp(-2 * lam * t)) / (2 * lam), rel=1e-12)

    def test_sweeping_growth(self, sweeping_model):
        # unstable first axis: variance integral of e^{2s} over [0, 1]
        state = propagate(sweeping_model, [0.0, 0.0], 1.0)
        assert state.cov[0, 0] == pytest.approx((math.e**2 - 1) / 2, rel=1e-12)

    def test_composition(self):
        m = rotational_model(0.8)
        x0 = np.array([1.0, -1.0])
        t, s = 0.6, 1.1
        full = propagate(m, x0, t + s)
        part = propagate(m, x0, s)
        from ouirrev.linalg import expm

        e = expm(-m.B * t)
        assert np.max(np.abs(full.mean - e @ part.mean)) < 1e-9
        cov = e @ part.cov @ e.T + propagate(m, x0, t).cov
        assert np.max(np.abs(full.cov - cov)) < 1e-9

    def test_converges_to_stationary(self):
        for m in [rotational_model(1.0), build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))]:
            law = stationary_law(m)
            t = 25.0 / law.classification.spectrum_B.min_real_part
            state = propagate(m, [3.0, -2.0], t)
            assert np.max(np.abs(state.cov - law.Xi)) < 1e-6
            assert np.max(np.abs(state.mean)) < 1e-6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(rotational_model(1.0), [0.0, 0.0], -0.5)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_numerical_failure(self):
        with pytest.raises(NumericalFailureError):
            propagate(build_model([[-1.0]], [[1.0]]), [1.0], 360.0)


def assert_rows_match_propagate(grid, model, x0, h):
    """Every row of a grid within GRID_RTOL (normwise relative) of the law
    evaluated afresh at its time, with an exactly symmetric covariance."""
    for k, (t, mean, cov) in enumerate(zip(grid.t, grid.mean, grid.cov)):
        ref = propagate(model, x0, k * h)
        assert t == k * h
        for got, want in ((mean, ref.mean), (cov, ref.cov)):
            assert np.linalg.norm(got - want) <= GRID_RTOL * np.linalg.norm(want)
        assert np.array_equal(cov, cov.T)


class TestPropagateGrid:
    @pytest.mark.parametrize(
        "model, x0, h, n_rows",
        [
            (rotational_model(1.0), [2.0, 0.0], 0.01, 2001),
            (build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)), [1.0, -3.0], 0.01, 1001),
            (build_model(np.diag([-1.0, 1.0]), np.eye(2)), [1.0, 1.0], 0.05, 401),
            (irreversible_8d(), np.linspace(-1.0, 1.0, 8), 0.02, 501),
            (ring_8d(), [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0], 0.01, 201),
        ],
        ids=["rot2", "reversible2", "sweeping2", "irreversible8", "ring8"],
    )
    def test_matches_propagate_every_row(self, model, x0, h, n_rows):
        grid = propagate_grid(model, x0, h, n_rows)
        assert len(grid.t) == n_rows
        assert_rows_match_propagate(grid, model, x0, h)

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize(
        "model, x0",
        [(rotational_model(1.0), [2.0, 0.0]), (irreversible_8d(), np.linspace(-1.0, 1.0, 8))],
        ids=["rot2", "irreversible8"],
    )
    def test_lengths_across_doubling_boundaries(self, model, x0, n_rows):
        # Rows [m, 2m) come from rows [0, m), the last block cut short, so a
        # grid is the prefix of any longer grid on the same step, bit for bit.
        grid = propagate_grid(model, x0, 0.05, n_rows)
        assert grid.mean.shape == (n_rows, model.n) and grid.cov.shape == (n_rows, model.n, model.n)
        assert_rows_match_propagate(grid, model, x0, 0.05)
        longer = propagate_grid(model, x0, 0.05, 130)
        assert np.array_equal(grid.mean, longer.mean[:n_rows])
        assert np.array_equal(grid.cov, longer.cov[:n_rows])

    def test_first_row_is_point_mass(self):
        grid = propagate_grid(rotational_model(1.0), [1.0, 2.0], 0.1, 1)
        assert grid.t[0] == 0.0
        assert np.array_equal(grid.mean[0], [1.0, 2.0])
        assert np.array_equal(grid.cov[0], np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_numerical_failure(self):
        # The one-step kernels are finite; the message names the first row
        # whose law is not finite.
        for b, h, n_rows, t in [
            ([[-1.0]], 1.0, 401, "355.0"),
            (np.diag([-20.0, 1.0]), 0.1, 301, "17.900000000000002"),
        ]:
            model = build_model(b, np.eye(len(b)))
            with pytest.raises(NumericalFailureError) as info:
                propagate_grid(model, np.ones(model.n), h, n_rows)
            assert str(info.value) == f"transient law overflows at t = {t}"

    @pytest.mark.parametrize("h, n_rows", [(0.0, 3), (-0.1, 3), (math.inf, 3), (0.1, 0)])
    def test_bad_grid_rejected(self, h, n_rows):
        with pytest.raises(ValueError):
            propagate_grid(rotational_model(1.0), [0.0, 0.0], h, n_rows)


class TestTransitionDensity:
    def test_long_time_limit_is_stationary(self):
        m = build_model([[1.0]], [[1.0]])
        law = stationary_law(m)
        for x in (-1.0, 0.0, 0.7):
            p = transition_density(m, [x], 40.0, [5.0])
            assert p == pytest.approx(stationary_density(law, [x]), rel=1e-9)

    def test_chapman_kolmogorov_by_quadrature(self):
        m = build_model([[1.0]], [[1.0]])
        t, s, x0, x = 0.7, 0.4, 1.0, -0.3

        def integrand(y):
            return transition_density(m, [x], t, [y]) * transition_density(m, [y], s, [x0])

        val, _ = quad(integrand, -12.0, 12.0, epsabs=1e-10)
        assert val == pytest.approx(transition_density(m, [x], t + s, [x0]), abs=1e-6)

    def test_detailed_balance_symmetry_reversible(self, reversible_2d):
        law = stationary_law(reversible_2d)
        rng = np.random.default_rng(67)
        for _ in range(5):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            t = rng.uniform(0.1, 1.5)
            lhs = transition_density(reversible_2d, x, t, y) * stationary_density(law, y)
            rhs = transition_density(reversible_2d, y, t, x) * stationary_density(law, x)
            assert abs(lhs - rhs) <= 1e-9

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            transition_density(rotational_model(1.0), [0.0, 0.0], 0.0, [0.0, 0.0])

    def test_point_mass_undefined(self):
        # at t = 1e-14 the covariance (about 2e-14 I) fails the Cholesky floor
        with pytest.raises(UndefinedEntropyError, match="singular"):
            transition_density(rotational_model(1.0), [0.0, 0.0], 1e-14, [0.0, 0.0])


# Each function that takes a point, called with a point p: (model, law, p) -> result.
_POINT_CALLS = {
    "propagate": lambda m, law, p: propagate(m, p, 1.0),
    "propagate_grid": lambda m, law, p: propagate_grid(m, p, 0.1, 3),
    "transition_density-x": lambda m, law, p: transition_density(m, p, 1.0, [0.0, 0.0]),
    "transition_density-x0": lambda m, law, p: transition_density(m, [0.0, 0.0], 1.0, p),
    "potential": lambda m, law, p: potential(m, p),
    "force_flux": lambda m, law, p: force_flux(law, p),
    "stationary_density": lambda m, law, p: stationary_density(law, p),
    "stream_batch": lambda m, law, p: sampler.stream_batch(
        m, 0.01, 10, 1, 0, lambda lo, hi: pytest.fail("consumer made"), chunk_paths=1, x0=p
    ),
}


class TestNonFinitePoint:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", sorted(_POINT_CALLS))
    def test_rejected_before_any_kernel(self, call, bad, reversible_2d, monkeypatch):
        law = stationary_law(reversible_2d)

        def refuse(*args):
            raise AssertionError("a kernel ran on a non-finite point")

        monkeypatch.setattr(linalg, "expm", refuse)
        monkeypatch.setattr(linalg, "gram_integral", refuse)
        with pytest.raises(ValueError, match="non-finite"):
            _POINT_CALLS[call](reversible_2d, law, [bad, 0.0])


class TestEntropy:
    def test_standard_gaussian_2d(self):
        state = GaussianState(t=1.0, mean=np.zeros(2), cov=np.eye(2))
        assert entropy(state) == pytest.approx(1 + math.log(2 * math.pi), rel=1e-14)

    def test_scaled_scalar(self):
        for c in (0.2, 1.0, 9.0):
            state = GaussianState(t=1.0, mean=np.zeros(1), cov=np.array([[c]]))
            assert entropy(state) == pytest.approx(0.5 * math.log(2 * math.pi * math.e * c), rel=1e-13)

    def test_matches_quadrature(self):
        m = build_model([[1.0]], [[1.0]])
        state = propagate(m, [2.0], 0.6)
        mu, var = state.mean[0], state.cov[0, 0]

        def neg_plogp(x):
            p = math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            return -p * math.log(p)

        val, _ = quad(neg_plogp, mu - 14 * math.sqrt(var), mu + 14 * math.sqrt(var), epsabs=1e-12)
        assert val == pytest.approx(entropy(state), abs=1e-8)

    def test_point_mass_is_error(self):
        state = GaussianState(t=0.0, mean=np.zeros(2), cov=np.zeros((2, 2)))
        with pytest.raises(UndefinedEntropyError):
            entropy(state)


class TestFreeEnergy:
    def test_scalar_potential(self):
        # A = 1, B = 1: U(x) = x^2 so that 2 A^{-1} b(x) = -2x = -grad U
        m = build_model([[1.0]], [[1.0]])
        assert potential(m, [2.0]) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_extreme_finite_potential(self):
        # S = sym(A^-1 B) is halved before the sum, which would overflow
        m = build_model(1e308 * np.eye(2), np.eye(2))
        assert potential(m, [1.0, 0.0]) == 1e308

    def test_irreversible_rejected(self):
        m = rotational_model(1.0)
        state = propagate(m, [1.0, 0.0], 1.0)
        with pytest.raises(PotentialUndefinedError):
            free_energy(m, state)

    def test_strictly_decreasing_from_point_start(self, reversible_2d):
        values = [
            free_energy(reversible_2d, propagate(reversible_2d, [2.0, 0.0], t))
            for t in np.arange(0.1, 3.1, 0.1)
        ]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))

    def test_stationary_state_is_minimum(self, reversible_2d):
        law = stationary_law(reversible_2d)
        stat = GaussianState(t=math.inf, mean=np.zeros(2), cov=law.Xi)
        psi_min = free_energy(reversible_2d, stat)
        for t in (0.3, 1.0, 2.5):
            state = propagate(reversible_2d, [2.0, 0.0], t)
            assert free_energy(reversible_2d, state) > psi_min - 1e-12


class TestInstantaneousRates:
    def test_stationary_consistency(self):
        for m in [rotational_model(1.0), build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))]:
            law = stationary_law(m)
            snap = instantaneous_rates(m, GaussianState(t=1.0, mean=np.zeros(m.n), cov=law.Xi))
            assert snap.epr_t == pytest.approx(law.epr, abs=1e-9)
            assert abs(snap.entropy_rate) <= 1e-9

    def test_entropy_balance_finite_difference(self):
        for m, x0 in thermo_corpus():
            for t in (0.1, 0.5, 1.0, 2.0):
                snap = instantaneous_rates(m, propagate(m, x0, t))
                fd = entropy_rate_fd(m, x0, t)
                assert abs(fd - snap.entropy_rate) <= 1e-5

    def test_free_energy_decay_rate(self, reversible_2d):
        x0 = np.array([2.0, 0.0])
        for t in (0.2, 0.5, 1.0, 2.0):
            h = FD_STEP * max(1.0, t)
            dpsi = (
                free_energy(reversible_2d, propagate(reversible_2d, x0, t + h))
                - free_energy(reversible_2d, propagate(reversible_2d, x0, t - h))
            ) / (2 * h)
            snap = instantaneous_rates(reversible_2d, propagate(reversible_2d, x0, t))
            assert abs(dpsi + snap.epr_t) <= 1e-5

    def test_point_mass_is_error(self):
        # at t = 0 the law is the point mass x0: no entropy, so no rates
        m = rotational_model(1.0)
        with pytest.raises(UndefinedEntropyError, match="point mass"):
            instantaneous_rates(m, propagate(m, [2.0, 0.0], 0.0))

    def test_rotational_long_time_limits(self):
        m = rotational_model(1.0)
        law = stationary_law(m)
        snap = instantaneous_rates(m, propagate(m, [2.0, 0.0], 15.0))
        assert abs(snap.entropy_rate) < 1e-8
        assert snap.epr_t == pytest.approx(2.0, abs=1e-8)
        assert snap.epr_t == pytest.approx(law.epr, abs=1e-8)

    def test_fixed_states_bit_identical(self, sweeping_model):
        models = [m for m, _ in thermo_corpus()] + [sweeping_model, irreversible_8d()]
        for m in models:
            x0 = np.linspace(2.0, -1.0, m.n)
            for t in (0.05, 0.7, 3.0):
                state = propagate(m, x0, t)
                snap = instantaneous_rates(m, state)
                got = (snap.epr_t, snap.hdr_t, snap.entropy_rate, snap.free_energy)
                assert got == rates_reference(m, state)
                assert snap.entropy == entropy(state)
                if snap.free_energy is not None:
                    assert snap.free_energy == free_energy(m, state)

    def test_snapshot_free_energy_only_when_reversible(self, reversible_2d):
        rev_snap = instantaneous_rates(reversible_2d, propagate(reversible_2d, [1.0, 1.0], 0.5))
        assert rev_snap.free_energy is not None
        rot = rotational_model(1.0)
        rot_snap = instantaneous_rates(rot, propagate(rot, [1.0, 1.0], 0.5))
        assert rot_snap.free_energy is None


class TestGridRates:
    @pytest.mark.parametrize(
        "model, x0",
        [*thermo_corpus(), (irreversible_8d(), np.linspace(-1.0, 1.0, 8))],
        ids=["reversible2", "rot2", "irreversible2", "scalar", "irreversible8"],
    )
    def test_every_row_bit_identical(self, model, x0):
        grid = propagate_grid(model, x0, 0.01, 500)
        snaps = grid_rates(model, classify(model), grid)
        assert np.isnan(snaps.entropy[0]) and np.isnan(snaps.epr_t[0])
        for k in range(1, 500):
            state = GaussianState(t=grid.t[k], mean=grid.mean[k], cov=grid.cov[k])
            got = (snaps.epr_t[k], snaps.hdr_t[k], snaps.entropy_rate[k])
            psi = None if snaps.free_energy is None else snaps.free_energy[k]
            assert (*got, psi) == rates_reference(model, state)
            assert snaps.entropy[k] == entropy(state)

    def test_rows_below_pivot_floor_undefined(self):
        # cov(t) ~ 1e-10 t I stays at or below the floor 1e-12 (1 + max diag)
        # through t = 0.01, so rows 0-10 of the h = 0.001 grid are undefined
        model = build_model([[1.0, 1.0], [-1.0, 1.0]], 1e-5 * np.eye(2))
        grid = propagate_grid(model, [2.0, 0.0], 0.001, 41)
        snaps = grid_rates(model, classify(model), grid)
        for field in (snaps.entropy, snaps.epr_t, snaps.hdr_t, snaps.entropy_rate):
            assert np.flatnonzero(np.isnan(field)).tolist() == list(range(11))


    @pytest.mark.filterwarnings("error")
    def test_rate_matrix_overflow_is_numerical_failure(self):
        # B^T A^-1 B, 2 A^-1 B and tr B of B = 1e308 I overflow: a numerical
        # failure, without a warning, even where every row is undefined
        model = build_model(1e308 * np.eye(2), np.eye(2))
        grid = propagate_grid(model, [1.0, 0.0], 1e-308, 2)
        with pytest.raises(NumericalFailureError, match="B\\^T A\\^-1 B"):
            grid_rates(model, classify(model), grid)
        # the stationary law evaluates the same formulas at (0, Xi): here
        # Xi = 5e-11 I clears the Cholesky floor, B^T A^-1 B = 1e310 I overflows
        with pytest.raises(NumericalFailureError, match="B\\^T A\\^-1 B"):
            stationary_law(build_model(1e300 * np.eye(2), 1e145 * np.eye(2)))

    @pytest.mark.filterwarnings("error")
    def test_rate_overflow_is_numerical_failure(self):
        # B = -I sweeps: the law stays finite through t = 354, but from
        # t = 332 on 2 mu^T B^T A^-1 B mu overflows, and the rates of a
        # defined row are never left NaN
        model = build_model(-np.eye(2), np.eye(2))
        grid = propagate_grid(model, [1e10, 0.0], 1.0, 355)
        with pytest.raises(NumericalFailureError, match=r"rates overflow at t = 332\.0$"):
            grid_rates(model, classify(model), grid)
        head = GaussianState(t=grid.t[:332], mean=grid.mean[:332], cov=grid.cov[:332])
        snaps = grid_rates(model, classify(model), head)
        assert np.isfinite(snaps.epr_t[1:]).all() and np.isfinite(snaps.entropy_rate[1:]).all()
        state = GaussianState(t=332.0, mean=grid.mean[332], cov=grid.cov[332])
        with pytest.raises(NumericalFailureError, match=r"rates overflow at t = 332\.0$"):
            instantaneous_rates(model, state)


class TestRelativeEntropy:
    def test_kl_to_stationary_nonincreasing(self):
        for m, x0 in thermo_corpus():
            law = stationary_law(m)
            times = np.arange(0.1, 3.0, 0.2)
            kls = []
            for t in times:
                state = propagate(m, x0, t)
                kls.append(gaussian_kl(state.mean, state.cov, np.zeros(m.n), law.Xi))
            assert all(k2 <= k1 + 1e-10 for k1, k2 in zip(kls, kls[1:]))
