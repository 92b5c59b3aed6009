"""Dense real-matrix kernels: eigenvalues, matrix exponential, Lyapunov solves,
Gram integrals of exponentials, SPD factorization, symmetry diagnostics.

chol_spd and is_spd take one matrix. The transient rates of a whole time
grid factor a stack (..., n, n) of covariances with _chol_stack, LAPACK potrf
(np.linalg.cholesky's gufunc) one matrix at a time in one call; each factor
has the same bits as chol_spd's factor of that matrix alone.

Eigenvalues come from LAPACK through np.linalg.eigvals. The Lyapunov solve is
the matrix-sign-function iteration on n x n matrices (inverses, determinants
and products), whose bits do not depend on the BLAS thread count at n <= 32;
the rest is numpy array arithmetic.
Everything is pure: no shared mutable state, safe for concurrent use.
Intended scale is dense matrices with n <= 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import DegenerateModelError, NotPositiveDefiniteError, NumericalFailureError

# Tolerances; double-precision headroom at n <= 32.
TOL_EIG = 1e-10
TOL_SYM = 1e-9
# solve_lyapunov accepts X when its normwise backward error is at most
# TOL_LYAP * n * u, u = 2**-53 the unit roundoff (see _lyapunov_accepts).
TOL_LYAP = 8.0
PD_FLOOR_SCALE = 1e-12
MAX_DIM = 32
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# Sign iteration: stop on a relative change of Z (Frobenius) at most _SIGN_TOL;
# convergence is quadratic, so Z is then within rounding of its limit.
_SIGN_TOL = 1e-10
_SIGN_MAX_ITER = 100

# Diagonal Pade coefficients of order 6 for the matrix exponential.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def _as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as a finite float array of shape (n, n), n >= 1; with stack set, any
    stack (..., n, n) of such matrices."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError(f"{name} must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_vector(x, n: int, name: str = "state") -> np.ndarray:
    """x as a finite float array of shape (n,)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix, closed under conjugation.

    Attributes
    ----------
    eigenvalues : complex ndarray in canonical order (see eig)
    min_real_part : smallest real part over the spectrum
    """

    eigenvalues: np.ndarray
    min_real_part: float


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., n, n): one dot product of
    its flattened entries, as np.linalg.norm takes it."""
    flat = a.reshape(*a.shape[:-2], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])


def _sym_defects(a: np.ndarray) -> np.ndarray:
    """sym_defect of each matrix of a stack (..., n, n)."""
    return _frobenius(a - a.swapaxes(-1, -2)) / (1.0 + _frobenius(a))


def sym_defect(m) -> float:
    """Relative asymmetry ||m - m^T||_F / (1 + ||m||_F); zero iff symmetric."""
    return float(_sym_defects(_as_square(m)))


def eig(m) -> Spectrum:
    """All eigenvalues of a real square matrix, in canonical order.

    The values come from np.linalg.eigvals (LAPACK geev). They are ordered by
    real part rounded to a grid of TOL_EIG times the spectral radius, then by
    imaginary part, so that values whose real parts differ only by rounding
    noise keep one order however the matrix was permuted.

    Raises
    ------
    NumericalFailureError
        If the eigenvalue iteration does not converge.
    """
    a = _as_square(m)
    try:
        values = np.linalg.eigvals(a).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration did not converge: {exc}") from exc
    grid = TOL_EIG * float(np.max(np.abs(values)))
    real_key = np.round(values.real / grid) if grid > 0.0 else values.real
    values = values[np.lexsort((values.imag, real_key))]
    return Spectrum(eigenvalues=values, min_real_part=float(np.min(values.real)))


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a diagonal Pade
    approximant of order 6; the input is scaled so its 1-norm is <= 0.5.

    Raises
    ------
    NumericalFailureError
        On overflow (extreme norms) or non-finite intermediates.
    """
    a = _as_square(m)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    if norm == 0.0:
        return np.eye(n)
    s = max(0, int(math.ceil(math.log2(norm / 0.5))))
    if s > 64:
        raise NumericalFailureError(f"matrix norm {norm:.3g} too large to exponentiate")
    a = a / (2.0**s)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (_PADE6[1] * ident + _PADE6[3] * a2 + _PADE6[5] * a4)
    v = _PADE6[0] * ident + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * a6
    try:
        f = np.linalg.solve(v - u, v + u)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - requires pathological input
        raise NumericalFailureError("Pade denominator singular") from exc
    for _ in range(s):
        f = f @ f
    if not np.all(np.isfinite(f)):
        raise NumericalFailureError("overflow in matrix exponential")
    return f


def _sign_solve(bm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with bm X + X bm^T = rhs, from the scaled sign-function iteration
    Z <- (c Z + Z^{-1}/c) / 2, Y <- (c Y + Z^{-1} Y Z^{-T}/c) / 2 started at
    Z = -bm, Y = rhs, with the determinant scaling c = |det Z|^{-1/n}
    (Roberts 1971, Byers 1987). Z tends to sign(-bm), which is -I exactly
    when bm is stable, and Y to 2 X. Y is symmetrized at every step.

    Raises
    ------
    DegenerateModelError
        If Z becomes singular (an eigenvalue of bm on the imaginary axis) or
        does not reach -I within _SIGN_MAX_ITER steps (bm not stable).
    """
    n = bm.shape[0]
    z, y = -bm, rhs
    for _ in range(_SIGN_MAX_ITER):
        sign, logdet = np.linalg.slogdet(z)
        if sign == 0.0:
            raise DegenerateModelError(
                "Lyapunov sign iteration singular (an eigenvalue of b on the imaginary axis)"
            )
        z_inv = np.linalg.inv(z)
        c = math.exp(-logdet / n)
        z_next = 0.5 * (c * z + z_inv / c)
        y = 0.5 * (c * y + z_inv @ y @ z_inv.T / c)
        y = 0.5 * (y + y.T)
        change = float(np.linalg.norm(z_next - z))
        z = z_next
        if change <= _SIGN_TOL * float(np.linalg.norm(z)):
            break
    if not float(np.linalg.norm(z + np.eye(n))) <= _SIGN_TOL:  # NaN fails too
        raise DegenerateModelError(
            "Lyapunov sign iteration did not reach -I: b is not stable "
            "(an eigenvalue has real part <= 0)"
        )
    return 0.5 * y


def solve_lyapunov(b, a) -> np.ndarray:
    """Solve b X + X b^T = a for symmetric a and stable b (every eigenvalue
    of b with positive real part).

    The scaled matrix-sign-function iteration (_sign_solve) solves it with
    n x n inverses, determinants and products only, then solves once more
    with the symmetrized residual as right-hand side and adds that
    correction. The result is symmetric, and it is accepted only at a
    normwise backward error of rounding level (_lyapunov_accepts), which
    does not depend on the units of a or on how far b is from normal. A b
    with an eigenvalue of zero or negative real part is rejected even where
    the equation has a solution.

    Raises
    ------
    DegenerateModelError
        If b is not stable, or the backward error exceeds TOL_LYAP * n * u.
    """
    bm = _as_square(b, "b")
    am = _as_square(a, "a")
    n = bm.shape[0]
    if am.shape[0] != n:
        raise ValueError(f"dimension mismatch: b is {n}x{n}, a is {am.shape[0]}x{am.shape[0]}")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    if sym_defect(am) > TOL_SYM:
        raise ValueError("right-hand side a must be symmetric")
    xi = _sign_solve(bm, am)
    r = am - (bm @ xi + xi @ bm.T)
    xi = xi + _sign_solve(bm, 0.5 * (r + r.T))
    if not _lyapunov_accepts(bm, am, xi):
        raise DegenerateModelError("Lyapunov backward error too large; system near-singular")
    return xi


def _lyapunov_accepts(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> bool:
    """Whether x solves b X + X b^T = a to rounding level: its normwise
    backward error ||b x + x b^T - a||_F / (2 ||b||_F ||x||_F + ||a||_F)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 16)
    is at most TOL_LYAP * n * u. The ratio is unchanged when a and x are
    scaled together, and a non-normal b with a large x is not held to a
    bound that ignores ||x||.

    TOL_LYAP = 8 is argued from measurement: on 150 stable triangular b with
    strict upper entries N(0, 4) (the non-normal case), n from 1 to 32, each
    with a scaled by 1e-16 to 1e16, the sign iteration's backward error is
    at most 0.82 n u, the largest at n = 1, where evaluating the residual
    alone costs up to 3u. An x off by 1e-8 relative has a backward error
    near 1e-9, which no n <= 32 accepts (8 * 32 * u = 2.8e-14).
    """
    residual = float(np.linalg.norm(b @ x + x @ b.T - a))
    scale = 2.0 * float(np.linalg.norm(b)) * float(np.linalg.norm(x)) + float(np.linalg.norm(a))
    # A NaN residual compares false; an x that overflowed gives an infinite scale.
    return math.isfinite(scale) and residual <= TOL_LYAP * b.shape[0] * _UNIT_ROUNDOFF * scale


def gram_integral(b, a, t: float) -> np.ndarray:
    """Integral of e^{-b s} a e^{-b^T s} ds over [0, t], for symmetric PSD a.

    Computed from the exponential of the 2n x 2n block matrix
    [[-b, a], [0, b^T]] (Van Loan construction) over a scaled-down interval,
    then doubled back up with the composition law
    G(2s) = Phi(s) G(s) Phi(s)^T + G(s), Phi(s) = e^{-b s}.
    The doubling keeps every intermediate at the size of the result itself;
    a single block exponential loses accuracy once t times the spread of the
    spectrum of b is large.

    Raises
    ------
    NumericalFailureError
        If the integral overflows (b with eigenvalues of negative real part
        over a long interval), as expm does.
    """
    bm = _as_square(b, "b")
    am = _as_square(a, "a")
    n = bm.shape[0]
    if am.shape[0] != n:
        raise ValueError(f"dimension mismatch: b is {n}x{n}, a is {am.shape[0]}x{am.shape[0]}")
    if sym_defect(am) > TOL_SYM:
        raise ValueError("integrand matrix a must be symmetric")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"time must be finite and >= 0, got {t}")
    if t == 0.0:
        return np.zeros((n, n))
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -bm
    blk[:n, n:] = am
    blk[n:, n:] = bm.T
    norm = float(np.linalg.norm(blk, 1)) * t
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.0 else 0
    f = expm(blk * (t / 2.0**s))
    phi = f[:n, :n]
    g = f[:n, n:] @ phi.T
    g = 0.5 * (g + g.T)
    # Overflow is detected by the finiteness check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            g = _compose(phi, g, g)
            phi = phi @ phi
    if not np.all(np.isfinite(g)):
        raise NumericalFailureError("overflow in Gram integral")
    return g


def _compose(phi: np.ndarray, c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sym(phi c phi^T + g): covariance c, (n, n) or a stack, after a step (phi, g)."""
    cov = phi @ c @ phi.T + g
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def _chol_stack(s) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of s, shape (n, n) or (..., n, n), and the per-matrix
    pass mask (True where every pivot clears the floor). A matrix that fails
    gets an all-NaN factor.

    Raises
    ------
    ValueError
        If some matrix is not symmetric within TOL_SYM.
    """
    a = _as_square(s, stack=True)
    if np.any(_sym_defects(a) > TOL_SYM):
        raise ValueError("input to chol_spd must be symmetric")
    floor = PD_FLOOR_SCALE * (1.0 + np.max(np.diagonal(a, axis1=-2, axis2=-1), axis=-1))
    # np.linalg.cholesky's private gufunc gives NaN per rejected matrix, not one raise per stack.
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(a, signature="d->d")
        pivots = np.diagonal(low, axis1=-2, axis2=-1)
        ok = np.all(pivots * pivots > floor[..., None], axis=-1)
    low[~ok] = np.nan
    return low, ok


def chol_spd(s) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L L^T = s, for one matrix s
    (n, n), from LAPACK potrf.

    Raises
    ------
    ValueError
        If s is not square, or not symmetric within TOL_SYM (argument error).
    NotPositiveDefiniteError
        If potrf rejects s or a pivot L_jj**2 of its factor is at or below
        1e-12 * (1 + max diagonal).
    """
    low, ok = _chol_stack(_as_square(s))
    if not ok:
        raise NotPositiveDefiniteError(
            "Cholesky pivot at or below floor 1e-12 * (1 + max diagonal)"
        )
    return low


def is_spd(s) -> bool:
    """Whether the matrix s is symmetric positive definite by chol_spd's
    test."""
    return bool(_chol_stack(_as_square(s))[1])
