"""Dense real-matrix kernels: eigenvalues, matrix exponential, Lyapunov solves,
Gram integrals of exponentials, SPD factorization, symmetry diagnostics.

chol_spd and is_spd also accept a stack (..., n, n) of matrices, factored by
LAPACK potrf (np.linalg.cholesky's gufunc) one matrix at a time in one call;
each factor has the same bits as the factor of that matrix alone, which the
transient rates of a whole time grid rest on.

Eigenvalues come from LAPACK through np.linalg.eigvals, and the Lyapunov solve
is one LU solve of the Kronecker system; the rest is numpy array arithmetic.
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
TOL_LYAP = 1e-9
PD_FLOOR_SCALE = 1e-12
MAX_DIM = 32

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


def solve_lyapunov(b, a) -> np.ndarray:
    """Solve b X + X b^T = a for symmetric a by Kronecker vectorization.

    The n^2 x n^2 dense system (I (x) b + b (x) I) vec(X) = vec(a) is solved
    by LU with partial pivoting; O(n^6) work is acceptable at n <= 32. The
    result is symmetrized and its residual checked.

    Raises
    ------
    DegenerateModelError
        If the Kronecker system is singular or near-singular (an eigenvalue
        pair of b sums to ~0).
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
    ident = np.eye(n)
    kron = np.kron(ident, bm) + np.kron(bm, ident)
    try:
        vec = np.linalg.solve(kron, am.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("Lyapunov system singular (eigenvalue pair sums to 0)") from exc
    xi = vec.reshape((n, n), order="F")
    xi = 0.5 * (xi + xi.T)
    residual = float(np.linalg.norm(bm @ xi + xi @ bm.T - am))
    if residual > TOL_LYAP * (1.0 + float(np.linalg.norm(am))):
        raise DegenerateModelError(
            f"Lyapunov residual {residual:.3g} too large; system near-singular"
        )
    return xi


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
            g = phi @ g @ phi.T + g
            g = 0.5 * (g + g.T)
            phi = phi @ phi
    if not np.all(np.isfinite(g)):
        raise NumericalFailureError("overflow in Gram integral")
    return g


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
    """Lower-triangular Cholesky factor L with L L^T = s, from LAPACK potrf.

    s is one matrix (n, n) or a stack (..., n, n); a stack is factored in one
    call and each of its factors equals, bit for bit, the factor of that
    matrix alone.

    Raises
    ------
    ValueError
        If s is not symmetric within TOL_SYM (argument error).
    NotPositiveDefiniteError
        If potrf rejects a matrix or a pivot L_jj**2 of its factor is at or
        below 1e-12 * (1 + max diagonal) of it; names the first in a stack.
    """
    low, ok = _chol_stack(s)
    if not ok.all():
        first = np.unravel_index(int(np.argmin(ok)), ok.shape)
        where = f" of matrix {', '.join(map(str, first))}" if ok.ndim else ""
        raise NotPositiveDefiniteError(
            f"Cholesky pivot{where} at or below floor 1e-12 * (1 + max diagonal)"
        )
    return low


def is_spd(s) -> bool | np.ndarray:
    """Whether s is symmetric positive definite by chol_spd's test: a bool for
    one matrix, a bool array for a stack (..., n, n)."""
    ok = _chol_stack(s)[1]
    return bool(ok) if ok.ndim == 0 else ok
