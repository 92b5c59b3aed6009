"""Dense real-matrix kernels: eigenvalues, matrix exponential, Lyapunov solves,
Gram integrals of exponentials, SPD factorization, symmetry diagnostics.

Everything here is self-contained (numpy array arithmetic plus one LU solve for
the Kronecker system) and pure: no shared mutable state, safe for concurrent use.
Intended scale is dense matrices with n <= 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateModelError, NotPositiveDefiniteError, NumericalFailureError

# Tolerances; double-precision headroom at n <= 32.
TOL_EIG = 1e-10
TOL_SYM = 1e-9
TOL_LYAP = 1e-9
PD_FLOOR_SCALE = 1e-12
MAX_DIM = 32

_EPS = float(np.finfo(float).eps)

# Diagonal Pade coefficients of order 6 for the matrix exponential.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix, closed under conjugation.

    Attributes
    ----------
    eigenvalues : complex ndarray, sorted by (real, imag)
    min_real_part : smallest real part over the spectrum
    """

    eigenvalues: np.ndarray
    min_real_part: float


def sym_defect(m) -> float:
    """Relative asymmetry ||m - m^T||_F / (1 + ||m||_F); zero iff symmetric."""
    a = _as_square(m)
    return float(np.linalg.norm(a - a.T) / (1.0 + np.linalg.norm(a)))


def _hessenberg(a: np.ndarray) -> np.ndarray:
    """Reduce to upper Hessenberg form by Householder similarity transforms."""
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k].copy()
        sigma = math.sqrt(float(np.dot(x, x)))
        if sigma == 0.0:
            continue
        alpha = -math.copysign(sigma, x[0]) if x[0] != 0.0 else -sigma
        v = x
        v[0] -= alpha
        vsq = float(np.dot(v, v))
        if vsq == 0.0:
            continue
        beta = 2.0 / vsq
        # H = I - beta v v^T applied on both sides (similarity).
        h[k + 1 :, k:] -= beta * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= beta * np.outer(h[:, k + 1 :] @ v, v)
        h[k + 1, k] = alpha
        h[k + 2 :, k] = 0.0
    return h


def _hqr_eigvals(h: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of an upper Hessenberg matrix by Francis double-shift QR.

    Classic EISPACK-style bulge-chasing iteration without eigenvector
    accumulation; h is destroyed. Returns (real parts, imag parts).
    """
    n = h.shape[0]
    wr = np.zeros(n)
    wi = np.zeros(n)
    anorm = 0.0
    for i in range(n):
        for j in range(max(i - 1, 0), n):
            anorm += abs(h[i, j])
    if anorm == 0.0:
        return wr, wi
    nn = n - 1
    t = 0.0
    sweeps = 0
    p = q = r = 0.0
    while nn >= 0:
        its = 0
        while True:
            # Look for a single negligible subdiagonal element.
            l = 0
            for ll in range(nn, 0, -1):
                s = abs(h[ll - 1, ll - 1]) + abs(h[ll, ll])
                if s == 0.0:
                    s = anorm
                if abs(h[ll, ll - 1]) <= _EPS * s:
                    h[ll, ll - 1] = 0.0
                    l = ll
                    break
            x = h[nn, nn]
            if l == nn:
                # One real eigenvalue deflates.
                wr[nn] = x + t
                wi[nn] = 0.0
                nn -= 1
                break
            y = h[nn - 1, nn - 1]
            w = h[nn, nn - 1] * h[nn - 1, nn]
            if l == nn - 1:
                # Trailing 2x2 block deflates: real pair or conjugate pair.
                p = 0.5 * (y - x)
                q = p * p + w
                z = math.sqrt(abs(q))
                x += t
                if q >= 0.0:
                    z = p + math.copysign(z, p)
                    wr[nn - 1] = wr[nn] = x + z
                    if z != 0.0:
                        wr[nn] = x - w / z
                    wi[nn - 1] = wi[nn] = 0.0
                else:
                    wr[nn - 1] = wr[nn] = x + p
                    wi[nn - 1] = -z
                    wi[nn] = z
                nn -= 2
                break
            if sweeps >= max_sweeps:
                raise NumericalFailureError(
                    f"QR eigenvalue iteration did not converge within {max_sweeps} sweeps"
                )
            if its > 0 and its % 10 == 0:
                # Exceptional shift to break occasional cycling.
                t += x
                for i in range(nn + 1):
                    h[i, i] -= x
                s = abs(h[nn, nn - 1]) + abs(h[nn - 1, nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            sweeps += 1
            # Form the implicit double shift; look for two consecutive
            # small subdiagonals so the bulge chase can start mid-block.
            m = nn - 2
            while m >= l:
                z = h[m, m]
                r = x - z
                s = y - z
                p = (r * s - w) / h[m + 1, m] + h[m, m + 1]
                q = h[m + 1, m + 1] - z - r - s
                r = h[m + 2, m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u = abs(h[m, m - 1]) * (abs(q) + abs(r))
                v = abs(p) * (abs(h[m - 1, m - 1]) + abs(z) + abs(h[m + 1, m + 1]))
                if u <= _EPS * v:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                h[i, i - 2] = 0.0
            for i in range(m + 3, nn + 1):
                h[i, i - 3] = 0.0
            # Double QR step (bulge chase) on rows l..nn, columns m..nn.
            for k in range(m, nn):
                if k != m:
                    p = h[k, k - 1]
                    q = h[k + 1, k - 1]
                    r = h[k + 2, k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x != 0.0:
                        p /= x
                        q /= x
                        r /= x
                s = math.copysign(math.sqrt(p * p + q * q + r * r), p)
                if s == 0.0:
                    continue
                if k == m:
                    if l != m:
                        h[k, k - 1] = -h[k, k - 1]
                else:
                    h[k, k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                z = r / s
                q /= p
                r /= p
                for j in range(k, nn + 1):
                    pp = h[k, j] + q * h[k + 1, j]
                    if k != nn - 1:
                        pp += r * h[k + 2, j]
                        h[k + 2, j] -= pp * z
                    h[k + 1, j] -= pp * y
                    h[k, j] -= pp * x
                mmin = nn if nn < k + 3 else k + 3
                for i in range(l, mmin + 1):
                    pp = x * h[i, k] + y * h[i, k + 1]
                    if k != nn - 1:
                        pp += z * h[i, k + 2]
                        h[i, k + 2] -= pp * r
                    h[i, k + 1] -= pp * q
                    h[i, k] -= pp
    return wr, wi


def eig(m) -> Spectrum:
    """All eigenvalues of a real square matrix.

    Hessenberg reduction followed by shifted (Francis double-shift) QR
    iteration, capped at 100*n sweeps. Only eigenvalues are computed; the
    result is closed under conjugation by construction.

    Raises
    ------
    NumericalFailureError
        If the QR iteration does not converge within the sweep budget.
    """
    a = _as_square(m)
    n = a.shape[0]
    h = _hessenberg(a)
    wr, wi = _hqr_eigvals(h, max_sweeps=100 * n)
    values = wr + 1j * wi
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    return Spectrum(eigenvalues=values, min_real_part=float(np.min(wr)))


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


def chol_spd(s) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L L^T = s.

    Raises
    ------
    ValueError
        If s is not symmetric within TOL_SYM (argument error).
    NotPositiveDefiniteError
        If any pivot falls at or below the floor 1e-12 * (1 + max diagonal).
    """
    a = _as_square(s)
    if sym_defect(a) > TOL_SYM:
        raise ValueError("input to chol_spd must be symmetric")
    n = a.shape[0]
    floor = PD_FLOOR_SCALE * (1.0 + float(np.max(np.diag(a))))
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - float(np.dot(low[j, :j], low[j, :j]))
        if d <= floor:
            raise NotPositiveDefiniteError(f"pivot {d:.3g} at column {j} below floor {floor:.3g}")
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def is_spd(s) -> bool:
    """Whether s is symmetric positive definite (all Cholesky pivots above floor)."""
    try:
        chol_spd(s)
    except NotPositiveDefiniteError:
        return False
    return True
