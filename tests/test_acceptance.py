"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to stream them). Tolerances are pinned here, not configurable.

Heavy Monte Carlo inputs (default budget: dt = 0.01, 200 paths, T = 100)
are shared across criteria through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from ouirrev import linalg
from ouirrev.cli import main
from ouirrev.estimators import greenkubo_check, hdr_estimate, path_statistics, reversibility_test
from ouirrev.exceptions import NoStationaryLawError
from ouirrev.model import Verdict, build_model, classify
from ouirrev.sampler import sample_batch
from ouirrev.stationary import stationary_law, two_time_covariance
from ouirrev.transient import entropy, free_energy, instantaneous_rates, potential, propagate

from conftest import random_reversible_model, rotational_model, thermo_corpus
from oracles import epr_quadrature


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f" ({len(failures)} violations; first: {failures[0]})"
    print(f"[{status}] criterion {num}: {name}{detail}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


@pytest.fixture(scope="module")
def rev_model():
    return build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))


@pytest.fixture(scope="module")
def rot_batch_default():
    m = rotational_model(1.0)
    law = stationary_law(m)
    return m, law, sample_batch(m, dt=0.01, steps=10_000, n_paths=200, seed=1001, law=law)


@pytest.fixture(scope="module")
def rev_batch_default(rev_model):
    law = stationary_law(rev_model)
    return rev_model, law, sample_batch(
        rev_model, dt=0.01, steps=10_000, n_paths=200, seed=1002, law=law
    )


def test_criterion_1_reversible_equivalence_suite():
    failures = []
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        m = random_reversible_model(rng, n)
        check(
            failures,
            classify(m).verdict is Verdict.REVERSIBLE,
            f"trial {trial}: not classified reversible",
        )
        law = stationary_law(m)
        closed = 0.5 * np.linalg.solve(m.B, m.A)
        check(
            failures,
            float(np.linalg.norm(law.Xi - closed)) <= 1e-8,
            f"trial {trial}: Xi differs from half B^-1 A",
        )
        check(
            failures,
            law.fdr_strong_residual <= 1e-8,
            f"trial {trial}: strong FDR residual {law.fdr_strong_residual:.3g}",
        )
        for tau in (0.1, 0.5, 1.0):
            defect = linalg.sym_defect(two_time_covariance(law, tau))
            check(failures, defect <= 1e-8, f"trial {trial}: R({tau}) defect {defect:.3g}")
        check(failures, law.epr <= 1e-10, f"trial {trial}: epr {law.epr:.3g}")
    elapsed = time.time() - start
    check(failures, elapsed < 5.0, f"suite took {elapsed:.1f}s (limit 5s)")
    report(1, "reversible equivalence suite (20 random models)", failures)


def test_criterion_2_rotational_family(rot_batch_default):
    failures = []
    _, law1, batch1 = rot_batch_default
    for omega in (0.5, 1.0, 2.0):
        start = time.time()
        m = rotational_model(omega)
        law = stationary_law(m)
        check(
            failures,
            abs(law.epr - 2 * omega**2) <= 1e-10,
            f"omega={omega}: epr {law.epr!r} != 2 omega^2",
        )
        check(
            failures,
            abs(law.epr - epr_quadrature(law)) <= 1e-6,
            f"omega={omega}: quadrature disagrees with closed form",
        )
        check(
            failures,
            law.fdr_standard_residual <= 1e-10,
            f"omega={omega}: standard residual {law.fdr_standard_residual:.3g}",
        )
        expected_strong = omega * math.sqrt(2) / (1 + math.sqrt(2))
        check(
            failures,
            abs(law.fdr_strong_residual - expected_strong) <= 1e-9,
            f"omega={omega}: strong residual {law.fdr_strong_residual!r}",
        )
        if omega == 1.0:
            batch = batch1
        else:
            batch = sample_batch(m, dt=0.01, steps=10_000, n_paths=200, seed=1001, law=law)
        hdr = hdr_estimate(batch, burn_in=0.0)
        rel = abs(hdr.value - law.epr) / law.epr
        check(failures, rel <= 0.05, f"omega={omega}: MC hdr off by {100 * rel:.1f}%")
        elapsed = time.time() - start
        check(failures, elapsed < 60.0, f"omega={omega}: took {elapsed:.1f}s (limit 60s)")
    report(2, "irreversible rotational family (epr, FDR, MC heat rate)", failures)


def test_criterion_3_sweeping_criterion():
    failures = []
    m = build_model(np.diag([-1.0, 1.0]), np.eye(2))
    check(failures, classify(m).verdict is Verdict.SWEEPING, "not classified sweeping")
    try:
        stationary_law(m)
        check(failures, False, "stationary_law did not raise")
    except NoStationaryLawError:
        pass
    batch = sample_batch(m, dt=0.01, steps=300, n_paths=1000, seed=77, x0=[0.0, 0.0])
    for t in (1.0, 2.0, 3.0):
        k = int(round(t / 0.01))
        second_moment = float(np.mean(batch.states[:, k, 0] ** 2))
        expected = (math.exp(2 * t) - 1) / 2
        ratio = second_moment / expected
        check(failures, 0.5 <= ratio <= 2.0, f"t={t}: growth ratio {ratio:.2f} outside [0.5, 2]")
    report(3, "sweeping criterion and unstable-axis growth", failures)


def test_criterion_4_exact_sampler_fidelity(rev_model):
    failures = []
    x0 = np.array([1.0, -1.0])
    for label, m in (("reversible", rev_model), ("irreversible", rotational_model(1.0))):
        batch = sample_batch(m, dt=0.05, steps=100, n_paths=10_000, seed=88, x0=x0)
        for t in (0.1, 1.0, 5.0):
            k = int(round(t / 0.05))
            snap = batch.states[:, k, :]
            ref = propagate(m, x0, t)
            se_mean = snap.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
            z_mean = np.max(np.abs(snap.mean(axis=0) - ref.mean) / se_mean)
            check(failures, z_mean <= 4.0, f"{label} t={t}: mean z {z_mean:.2f}")
            centered = snap - ref.mean
            prods = centered[:, :, None] * centered[:, None, :]
            se_cov = prods.std(axis=0, ddof=1) / math.sqrt(batch.n_paths)
            z_cov = np.max(np.abs(prods.mean(axis=0) - ref.cov) / se_cov)
            check(failures, z_cov <= 4.0, f"{label} t={t}: cov z {z_cov:.2f}")
    report(4, "exact-sampler ensemble fidelity (10^4 paths vs exact law)", failures)


def test_criterion_5_green_kubo(rot_batch_default, rev_batch_default):
    failures = []
    checkpoints = (0.1, 0.5, 1.0)
    for label, (m, law, batch) in (
        ("irreversible", rot_batch_default),
        ("reversible", rev_batch_default),
    ):
        cond = sample_batch(m, dt=0.01, steps=100, n_paths=2000, seed=99, x0=[1.0, 1.0])
        stats = path_statistics(batch, checkpoints, burn_in=10.0)
        res = greenkubo_check(cond, m, checkpoints, stats=stats, law=law)
        check(
            failures,
            res.max_abs_z <= 4.0,
            f"{label}: conditional-mean z {res.max_abs_z:.2f} > 4",
        )
        check(
            failures,
            res.max_abs_z_two_time <= 4.0,
            f"{label}: two-time z {res.max_abs_z_two_time:.2f} > 4",
        )
    report(5, "conditional-mean regression and R(t,0) identity", failures)


def test_criterion_6_entropy_balance(rev_model):
    failures = []
    h = 1e-4
    for m, x0 in thermo_corpus():
        for t in (0.1, 0.5, 1.0, 2.0):
            step = h * max(1.0, t)
            fd = (
                entropy(propagate(m, x0, t + step)) - entropy(propagate(m, x0, t - step))
            ) / (2 * step)
            snap = instantaneous_rates(m, propagate(m, x0, t))
            check(
                failures,
                abs(fd - snap.entropy_rate) <= 1e-5,
                f"n={m.n} t={t}: entropy balance gap {abs(fd - snap.entropy_rate):.2e}",
            )
    x0 = np.array([2.0, 0.0])
    for t in (0.1, 0.5, 1.0, 2.0):
        step = h * max(1.0, t)
        dpsi = (
            free_energy(rev_model, propagate(rev_model, x0, t + step))
            - free_energy(rev_model, propagate(rev_model, x0, t - step))
        ) / (2 * step)
        snap = instantaneous_rates(rev_model, propagate(rev_model, x0, t))
        check(
            failures,
            abs(dpsi + snap.epr_t) <= 1e-5,
            f"t={t}: free-energy decay gap {abs(dpsi + snap.epr_t):.2e}",
        )
    grid = np.arange(0.05, 3.0, 0.05)
    psi = [free_energy(rev_model, propagate(rev_model, x0, t)) for t in grid]
    check(
        failures,
        all(p2 <= p1 + 1e-12 for p1, p2 in zip(psi, psi[1:])),
        "free energy not monotone nonincreasing",
    )
    report(6, "entropy balance and free-energy decay", failures)


def test_criterion_7_heat_potential_identity(rev_batch_default):
    failures = []
    m, _, batch = rev_batch_default
    worst = 0.0
    for k in range(batch.n_paths):
        u0 = potential(m, batch.states[k, 0])
        u_end = potential(m, batch.states[k, -1])
        err = abs(batch.heat[k, -1] + u_end - u0) / (1 + abs(u0))
        worst = max(worst, err)
    check(failures, worst <= 1e-9, f"worst path identity error {worst:.2e}")
    report(7, "per-path heat equals potential drop (200 paths)", failures)


def test_criterion_8_reversibility_test_calibration(rev_model):
    failures = []
    lags = (0.1, 0.5, 1.0)
    # false-positive calibration on reversible models (light budget; the
    # test's size does not depend on the budget)
    other = build_model(np.diag([1.0, 3.0]), np.diag([1.0, 1.3]))
    laws = {id(rev_model): stationary_law(rev_model), id(other): stationary_law(other)}
    false_positives = 0
    for s in range(50):
        m = rev_model if s % 2 == 0 else other
        batch = sample_batch(m, dt=0.01, steps=3000, n_paths=100, seed=1000 + s, law=laws[id(m)])
        if not reversibility_test(path_statistics(batch, lags, burn_in=0.0)).verdict_reversible:
            false_positives += 1
    check(failures, false_positives <= 2, f"{false_positives}/50 false irreversible verdicts")
    # detection power at the default budget
    m = rotational_model(1.0)
    law = stationary_law(m)
    detected = 0
    for s in range(50):
        batch = sample_batch(m, dt=0.01, steps=10_000, n_paths=200, seed=3000 + s, law=law)
        if not reversibility_test(path_statistics(batch, lags, burn_in=10.0)).verdict_reversible:
            detected += 1
    check(failures, detected >= 48, f"only {detected}/50 rotational runs detected")
    report(8, "reversibility test calibration (<=5% FP, >=95% detection)", failures)


def test_criterion_9_simulate_determinism(tmp_path, monkeypatch):
    failures = []
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({"B": [[1.0, 1.0], [-1.0, 1.0]], "Gamma": [[1.0, 0.0], [0.0, 1.0]]})
    )
    args = [
        "simulate",
        str(model_path),
        "--paths",
        "5",
        "--steps",
        "500",
        "--seed",
        "123",
        "--stationary",
    ]

    def run(tag: str, threads: str) -> list[bytes]:
        monkeypatch.setenv("OU_IRREV_THREADS", threads)
        assert main(args + ["--out", str(tmp_path / tag)]) == 0
        return [(tmp_path / f"{tag}_p{k}.csv").read_bytes() for k in range(5)]

    serial_a = run("a", "1")
    serial_b = run("b", "1")
    pooled = run("c", "3")
    check(failures, serial_a == serial_b, "reruns differ byte-for-byte")
    check(failures, serial_a == pooled, "worker counts 1 and 3 differ byte-for-byte")
    report(9, "byte-identical simulate across runs and worker counts", failures)
