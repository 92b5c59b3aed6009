import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ouirrev
from ouirrev.model import LinearModel, build_model


def with_blas_threads(code: str, threads: int) -> str:
    """stdout of code run in a fresh interpreter with that many OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = str(Path(ouirrev.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def rotational_model(omega: float) -> LinearModel:
    """Irreversible family B = [[1, w], [-w, 1]], Gamma = I; epr = 2 w^2."""
    return build_model([[1.0, omega], [-omega, 1.0]], np.eye(2))


def sin_model(n: int) -> LinearModel:
    """B = D + 0.5 sin(i - j) with D = diag(1, 1.25, ...), Gamma = I: stable,
    irreversible for n >= 2, from closed-form entries."""
    i, j = np.indices((n, n))
    return build_model(np.diag(1.0 + 0.25 * np.arange(n)) + 0.5 * np.sin(i - j), np.eye(n))


def random_reversible_model(rng: np.random.Generator, n: int) -> LinearModel:
    """B = A K with K random SPD and Gamma random nonsingular, so A^{-1} B = K.

    Redraws until Gamma is comfortably conditioned, keeping the acceptance
    corpus away from accidental near-singularity.
    """
    while True:
        gamma = rng.standard_normal((n, n))
        if np.linalg.cond(gamma) < 20.0:
            break
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = q @ np.diag(rng.uniform(0.3, 3.0, size=n)) @ q.T
    k = 0.5 * (k + k.T)
    a = gamma @ gamma.T
    return build_model(a @ k, gamma)


def ring_model(n: int) -> dict:
    """Irreversible n-dimensional model: B = 1.5 I plus a cyclic rotation
    (B[i][i+1] = 1, B[i+1][i] = -1), Gamma lower bidiagonal (1 on the
    diagonal, 0.5 below it)."""
    b = [[0.0] * n for _ in range(n)]
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = 1.5
        b[i][(i + 1) % n] += 1.0
        b[(i + 1) % n][i] -= 1.0
        gamma[i][i] = 1.0
        if i:
            gamma[i][i - 1] = 0.5
    return {"B": b, "Gamma": gamma}


@pytest.fixture
def rot1() -> LinearModel:
    return rotational_model(1.0)


@pytest.fixture
def reversible_2d() -> LinearModel:
    return build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2))


@pytest.fixture
def reversible_diag() -> LinearModel:
    return build_model(np.diag([1.0, 3.0]), np.diag([1.0, 1.3]))


@pytest.fixture
def sweeping_model() -> LinearModel:
    return build_model(np.diag([-1.0, 1.0]), np.eye(2))


@pytest.fixture
def scalar_model() -> LinearModel:
    return build_model([[1.0]], [[1.0]])


def thermo_corpus() -> list[tuple[LinearModel, np.ndarray]]:
    """Non-sweeping models with start points for the transient balance checks."""
    return [
        (build_model([[2.0, 1.0], [1.0, 2.0]], np.eye(2)), np.array([2.0, 0.0])),
        (rotational_model(1.0), np.array([2.0, 0.0])),
        (build_model([[3.0, 1.0], [0.0, 2.0]], np.diag([1.0, 0.8])), np.array([1.0, 1.0])),
        (build_model([[1.5]], [[1.0]]), np.array([2.0])),
    ]
