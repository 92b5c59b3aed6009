"""Independent numerical oracles used to cross-check closed forms.

These deliberately take different computational routes from the package:
characteristic-polynomial roots instead of QR iteration, quadrature instead
of trace formulas, scipy's Bartels-Stewart solver instead of the Kronecker
solve, elementwise products instead of the sampler's BLAS tiles, einsum
and fancy indexing instead of the estimators' GEMMs, a stored batch written
path by path instead of simulate's streamed CSV files.
"""

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad_vec


def charpoly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (monic, descending powers) by
    the Faddeev-LeVerrier recursion."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.array(m, dtype=float, copy=True)
    for k in range(1, n + 1):
        c = -np.trace(mk) / k
        coeffs[k] = c
        if k < n:
            mk = m @ (mk + c * np.eye(n))
    return coeffs


def companion_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial (companion matrix)."""
    return np.roots(charpoly_coeffs(m))


def match_spectra(computed: np.ndarray, reference: np.ndarray) -> float:
    """Worst absolute gap under greedy nearest matching of two spectra."""
    pool = list(reference)
    worst = 0.0
    for lam in computed:
        k = int(np.argmin(np.abs(np.array(pool) - lam)))
        worst = max(worst, abs(pool.pop(k) - lam))
    return worst


def gram_quadrature(b: np.ndarray, a: np.ndarray, t: float) -> np.ndarray:
    """Adaptive quadrature of the Gram integrand e^{-b s} a e^{-b^T s}."""
    from scipy.linalg import expm as scipy_expm

    def integrand(s):
        e = scipy_expm(-b * s)
        return e @ a @ e.T

    result, _ = quad_vec(integrand, 0.0, t, epsabs=1e-12, epsrel=1e-12)
    return result


def gauss_hermite_expectation(f, mean: np.ndarray, cov: np.ndarray, order: int = 24) -> float:
    """E[f(x)] for x ~ N(mean, cov) by tensor-product Gauss-Hermite quadrature.

    Uses the probabilists' weight; exact for polynomial integrands of degree
    below 2*order per axis.
    """
    n = len(mean)
    nodes, weights = hermegauss(order)
    weights = weights / np.sqrt(2.0 * np.pi)
    low = np.linalg.cholesky(cov)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    u = np.stack([g.reshape(-1) for g in grids], axis=-1)
    x = mean + u @ low.T
    wgrids = np.meshgrid(*([weights] * n), indexing="ij")
    w = np.prod(np.stack([g.reshape(-1) for g in wgrids], axis=-1), axis=-1)
    values = np.array([f(xi) for xi in x])
    return float(np.dot(w, values))


def epr_quadrature(law, order: int = 24) -> float:
    """Quadrature of the defining entropy-production integral
    (1/2) E[(grad log P - 2 A^{-1} b)^T A (grad log P - 2 A^{-1} b)]."""
    model = law.model
    a_inv = np.linalg.inv(model.A)

    def integrand(x):
        v = -law.Xi_inv @ x + 2.0 * a_inv @ (model.B @ x)
        return 0.5 * float(v @ model.A @ v)

    return gauss_hermite_expectation(integrand, np.zeros(model.n), law.Xi, order)


def gaussian_kl(mean0, cov0, mean1, cov1) -> float:
    """KL(N(mean0, cov0) || N(mean1, cov1)) in closed form."""
    n = len(mean0)
    cov1_inv = np.linalg.inv(cov1)
    d = np.asarray(mean1) - np.asarray(mean0)
    return 0.5 * (
        float(np.trace(cov1_inv @ cov0))
        + float(d @ cov1_inv @ d)
        - n
        + float(np.linalg.slogdet(cov1)[1] - np.linalg.slogdet(cov0)[1])
    )


def colmatvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x over axis -2 of x, whose last axis indexes paths, as n
    column-broadcast multiply-adds m[:, j] * x[..., j, :] in fixed j order:
    no BLAS call, so every output element is the same sequence of roundings
    for any batch shape."""
    out = m[:, 0:1] * x[..., 0:1, :]
    for j in range(1, m.shape[1]):
        out += m[:, j : j + 1] * x[..., j : j + 1, :]
    return out


def integrate_paths(update, starts: np.ndarray, normals: np.ndarray):
    """Reference integrator: states (paths, steps + 1, n) and heat
    (paths, steps + 1) of the sampler's update (exact or euler) from starts
    (n, paths) and normals (paths, steps, n), one step at a time through
    colmatvec, the heat a running sum of the midpoint increments
    -2 (S x_mid) . dx."""
    n, count = starts.shape
    steps = normals.shape[1]
    states = np.empty((steps + 1, n, count))
    heat = np.zeros((steps + 1, count))
    states[0] = starts
    euler = update.method == "euler"
    for k in range(steps):
        x, z = states[k], normals[:, k].T
        noise = colmatvec(update.noise_mat, z)
        if euler:
            noise *= np.sqrt(update.dt)
            states[k + 1] = x - update.dt * colmatvec(update.drift, x) + noise
        else:
            states[k + 1] = colmatvec(update.drift, x) + noise
        mid = 0.5 * (states[k + 1] + x)
        dw = (colmatvec(update.s_mat, mid) * (states[k + 1] - x)).sum(axis=0)
        heat[k + 1] = heat[k] - 2.0 * dw
    return states.transpose(2, 0, 1), heat.T


def lag_products(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Sum over t of later[p, t, i] * earlier[p, t, j], shape (paths, n, n),
    as one einsum (numpy's own summation loops, no BLAS call)."""
    return np.einsum("pti,ptj->pij", later, earlier)


def bootstrap_asymmetry(lag_products: dict, resamples: np.ndarray):
    """(statistic, per_lag) of the path-bootstrap asymmetry test for the
    resample indices (resamples x paths): each resample's mean asymmetry is
    taken over its fancy-indexed paths, one resample at a time."""
    obs_norms, boot_norms, per_lag = [], [], {}
    for lag, per_path in lag_products.items():
        asym = per_path - per_path.transpose(0, 2, 1)
        observed = asym.mean(axis=0)
        norms = np.array([np.linalg.norm(asym[rows].mean(axis=0) - observed) for rows in resamples])
        obs_norms.append(float(np.linalg.norm(observed)))
        boot_norms.append(norms)
        per_lag[lag] = (obs_norms[-1] - float(norms.mean())) / float(norms.std(ddof=1))
    boot_max = np.max(boot_norms, axis=0)
    statistic = (max(obs_norms) - float(boot_max.mean())) / float(boot_max.std(ddof=1))
    return statistic, per_lag


def simulate_files(model, dt, steps, n_paths, seed, *, x0=None, law=None, method="exact"):
    """The bytes of each of simulate's CSV files, written from the stored
    batch: sample_batch, then per path its header and _csvfmt.rows of the
    columns t, x1 .. xn, W."""
    from ouirrev import _csvfmt
    from ouirrev.sampler import sample_batch

    batch = sample_batch(model, dt, steps, n_paths, seed, x0=x0, law=law, method=method)
    header = ("t," + ",".join(f"x{i + 1}" for i in range(model.n)) + ",W\n").encode("ascii")
    t = np.arange(steps + 1) * batch.dt
    return [
        header + b"".join(_csvfmt.rows([t, batch.states[k], batch.heat[k]]))
        for k in range(n_paths)
    ]
