"""Linear stochastic system dx/dt = -B x + Gamma xi(t): construction,
validation, and classification into Sweeping / Reversible / Irreversible.

Noise units fix kT = 1 throughout; the diffusion matrix is A = Gamma Gamma^T.
Models are immutable values, safe to share across concurrent tasks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ModelValidationError, NumericalFailureError

# Eigenvalues with real part <= SPECTRAL_TOL classify as Sweeping; those within
# +-SPECTRAL_TOL of the imaginary axis are numerically undecidable and flagged
# marginal rather than guessed.
SPECTRAL_TOL = 1e-9


class Verdict(enum.Enum):
    SWEEPING = "Sweeping"
    REVERSIBLE = "Reversible"
    IRREVERSIBLE = "Irreversible"

    def __str__(self) -> str:  # CLI-facing label
        return self.value


@dataclass(frozen=True, eq=False)
class LinearModel:
    """The pair (B, Gamma), diffusion A = Gamma Gamma^T and the model's one A^{-1} B.

    B has units 1/time, Gamma state/sqrt(time), A state^2/time; all are read-only.
    """

    n: int
    B: np.ndarray
    Gamma: np.ndarray
    A: np.ndarray
    ainv_b: np.ndarray


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    spectrum_B: linalg.Spectrum
    symmetry_defect_AinvB: float
    marginal: bool


def build_model(B, Gamma) -> LinearModel:
    """Validate (B, Gamma) and construct the model with A = Gamma Gamma^T.

    Raises
    ------
    ModelValidationError
        If Gamma is singular (smallest singular value <= 1e-12 times the
        largest, a test that depends neither on units nor on n) or A fails
        the positive-definiteness check.
    ValueError
        On shape mismatch or non-finite entries.
    """
    b = linalg._as_square(B, "B")
    g = linalg._as_square(Gamma, "Gamma")
    n = b.shape[0]
    if g.shape[0] != n:
        raise ValueError(f"dimension mismatch: B is {n}x{n}, Gamma is {g.shape[0]}x{g.shape[0]}")
    if n > linalg.MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {linalg.MAX_DIM}")
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ModelValidationError("Gamma is singular or nearly singular")
    a = g @ g.T
    a = 0.5 * (a + a.T)
    if not linalg.is_spd(a):
        raise ModelValidationError("A = Gamma Gamma^T is not positive definite")
    ainv_b = np.linalg.solve(a, b)
    for m in (b, g, a, ainv_b):
        m.setflags(write=False)
    return LinearModel(n=n, B=b, Gamma=g, A=a, ainv_b=ainv_b)


def classify(model: LinearModel) -> Classification:
    """Classify the model by the spectrum of B and the symmetry of A^{-1} B.

    Sweeping: some eigenvalue of B has real part <= SPECTRAL_TOL (marginal is
    set when the minimum real part is within +-SPECTRAL_TOL of the axis).
    Reversible: non-sweeping, A^{-1} B symmetric within tolerance and positive
    definite. Irreversible: everything else.
    """
    spectrum = linalg.eig(model.B)
    defect = linalg.sym_defect(model.ainv_b)
    if spectrum.min_real_part <= SPECTRAL_TOL:
        marginal = abs(spectrum.min_real_part) <= SPECTRAL_TOL
        return Classification(Verdict.SWEEPING, spectrum, defect, marginal)
    if defect <= linalg.TOL_SYM and linalg.is_spd(0.5 * (model.ainv_b + model.ainv_b.T)):
        # B is then similar to a symmetric matrix, so its spectrum must be real.
        if float(np.max(np.abs(spectrum.eigenvalues.imag))) > 1e-8:
            raise NumericalFailureError(
                "inconsistent classification: symmetric A^{-1}B but complex spectrum"
            )
        return Classification(Verdict.REVERSIBLE, spectrum, defect, False)
    return Classification(Verdict.IRREVERSIBLE, spectrum, defect, False)


def model_from_dict(payload) -> LinearModel:
    """Build a model from the JSON object {"B": [[...]], "Gamma": [[...]]}.

    Rows must be equally sized (no ragged input); n is inferred.
    """
    if not isinstance(payload, dict):
        raise ModelValidationError("model file must contain a JSON object")
    missing = {"B", "Gamma"} - set(payload)
    if missing:
        raise ModelValidationError(f"model object missing keys: {sorted(missing)}")

    def to_matrix(key: str) -> np.ndarray:
        rows = payload[key]
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise ModelValidationError(f'"{key}" must be a non-empty list of rows')
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ModelValidationError(f'"{key}" has ragged rows')
        try:
            mat = np.array(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ModelValidationError(f'"{key}" contains non-numeric entries') from exc
        if mat.shape[0] != mat.shape[1]:
            raise ModelValidationError(f'"{key}" must be square, got shape {mat.shape}')
        return mat

    return build_model(to_matrix("B"), to_matrix("Gamma"))
