"""Independent cross-check routes for the production assembly and solvers.

Everything here deliberately avoids the code paths it is meant to check:
the nonlocal-form oracle integrates the defining double integral with
adaptive quadrature (element pair by element pair, splitting along the
diagonal where the kernel is singular, and with the exterior integral mapped
to a finite domain instead of using its closed form), the pencil oracle
locates eigenvalues by inertia bisection on LDL^T factorizations, the
threshold oracle bisects the coupling on the same inertia count, and the
quotient oracles use direct randomized search.  They are slow and only meant
for desk-scale matrices.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import integrate, linalg

from .mesh import MeshInterval

__all__ = [
    "gagliardo_entry_oracle",
    "gagliardo_matrix_oracle",
    "pencil_eigenvalues_oracle",
    "threshold_oracle",
    "rayleigh_min_oracle",
    "quotient_max_oracle",
]


def _hat(mesh: MeshInterval, i: int):
    """Hat function of interior node i (1-based), zero outside its support."""
    xi = float(mesh.nodes[i - 1])
    h = mesh.h

    def phi(x: float) -> float:
        # quad and dblquad pass scalars: scalar math avoids numpy's per-call overhead
        return max(0.0, 1.0 - abs(x - xi) / h)

    return phi


def _quiet_quad(func, lo, hi, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(func, lo, hi, **kw)
    return val


def _quiet_dblquad(func, x0, x1, y0, y1, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.dblquad(func, x0, x1, y0, y1, epsabs=eps, epsrel=eps)
    return val


def _exterior_entry_oracle(
    mesh: MeshInterval, s: float, i: int, j: int, eps: float = 1e-10
) -> float:
    """Adaptive-quadrature exterior collar part of the pairing of hats i and j."""
    phi_i = _hat(mesh, i)
    phi_j = _hat(mesh, j)
    expo = 1.0 + 2.0 * s

    def collar_weight(d: float) -> float:
        # int_0^inf (d + u)^(-1-2s) du via u = t / (1 - t)
        return _quiet_quad(
            lambda t: (d + t / (1.0 - t)) ** (-expo) / (1.0 - t) ** 2,
            0.0,
            1.0,
            epsabs=eps,
            epsrel=eps,
            limit=200,
        )

    def exterior_integrand(x):
        return phi_i(x) * phi_j(x) * (collar_weight(x - mesh.a) + collar_weight(mesh.b - x))

    ext = 0.0
    for k in sorted({i - 1, i} & {j - 1, j}):  # cells in both supports
        x0, x1 = mesh.a + k * mesh.h, mesh.a + (k + 1) * mesh.h
        ext += _quiet_quad(exterior_integrand, x0, x1, epsabs=eps, epsrel=eps, limit=200)
    return 2.0 * ext


def gagliardo_entry_oracle(
    mesh: MeshInterval, s: float, i: int, j: int, eps: float = 1e-10
) -> float:
    """Adaptive-quadrature value of the Gagliardo pairing of hats i and j.

    The Omega x Omega part is integrated cell pair by cell pair with
    ``dblquad`` (identical cells are split along the diagonal x = y so the
    kernel singularity sits on the region boundary).  The exterior part,
    ``_exterior_entry_oracle``, is integrated adaptively as well, with the
    unbounded inner integral mapped onto (0, 1) by u = t / (1 - t).
    """
    a = mesh.a
    h = mesh.h
    n_el = mesh.n_elem
    phi_i = _hat(mesh, i)
    phi_j = _hat(mesh, j)
    expo = 1.0 + 2.0 * s

    def integrand(y, x):
        return (phi_i(x) - phi_i(y)) * (phi_j(x) - phi_j(y)) / abs(x - y) ** expo

    def cell_touches_support(k: int, node: int) -> bool:
        # support of hat `node` is [x_{node-1}, x_{node+1}] = elements node-1, node
        return k in (node - 1, node)

    total = 0.0
    for k in range(n_el):
        for m in range(n_el):
            if not (cell_touches_support(k, i) or cell_touches_support(m, i)):
                continue
            if not (cell_touches_support(k, j) or cell_touches_support(m, j)):
                continue
            x0, x1 = a + k * h, a + (k + 1) * h
            y0, y1 = a + m * h, a + (m + 1) * h
            if k == m:
                total += _quiet_dblquad(integrand, x0, x1, lambda x: y0, lambda x: x, eps)
                total += _quiet_dblquad(integrand, x0, x1, lambda x: x, lambda x: y1, eps)
            else:
                total += _quiet_dblquad(integrand, x0, x1, lambda x: y0, lambda x: y1, eps)

    return total + _exterior_entry_oracle(mesh, s, i, j, eps)


def gagliardo_matrix_oracle(mesh: MeshInterval, s: float, eps: float = 1e-10) -> np.ndarray:
    n = mesh.ndof
    S = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            val = gagliardo_entry_oracle(mesh, s, i, j, eps=eps)
            S[i - 1, j - 1] = val
            S[j - 1, i - 1] = val
    return S


def _inertia(A: np.ndarray, M: np.ndarray, lam: float) -> int:
    """Number of pencil eigenvalues strictly below lam (Sylvester inertia)."""
    shifted = A - lam * M
    _, d, _ = linalg.ldl(shifted)
    count = 0
    i = 0
    n = d.shape[0]
    while i < n:
        off = abs(d[i, i + 1]) if i + 1 < n else 0.0
        off = max(off, abs(d[i + 1, i]) if i + 1 < n else 0.0)
        if off > 0.0:
            # 2x2 block contributes one negative eigenvalue iff det < 0,
            # two iff det > 0 and trace < 0
            ev = np.linalg.eigvalsh(d[i : i + 2, i : i + 2])
            count += int(np.sum(ev < 0))
            i += 2
        else:
            if d[i, i] < 0:
                count += 1
            i += 1
    return count


def pencil_eigenvalues_oracle(
    A: np.ndarray, M: np.ndarray, m: int, tol: float = 1e-10, max_iter: int = 200
) -> np.ndarray:
    """m smallest eigenvalues of (A, M) by bisection on the inertia count.

    Brackets come from Gershgorin-type bounds: |lambda| <= ||A||_inf divided
    by a lower Gershgorin bound on the SPD matrix M.
    """
    m_low = np.min(np.diag(M) - (np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))))
    if m_low <= 0:
        m_low = float(np.min(linalg.eigvalsh(M)))
    bound = float(linalg.norm(A, np.inf)) / m_low + 1.0
    out = np.empty(m)
    for k in range(1, m + 1):
        lo, hi = -bound, bound
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if _inertia(A, M, mid) >= k:
                hi = mid
            else:
                lo = mid
            if hi - lo <= tol:
                break
        out[k - 1] = 0.5 * (lo + hi)
    return out


def threshold_oracle(K: np.ndarray, S: np.ndarray, bracket: tuple[float, float]) -> float:
    """Coupling alpha* where K + alpha S turns indefinite, to 1e-10, by
    bisection on the number of negative LDL^T pivots (no eigensolver).

    K + alpha S has no negative eigenvalue for alpha > alpha* and at least
    one below it; the bracket must hold the crossing, lo < alpha* <= hi.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def negative(alpha: float) -> bool:
        # eigenvalues of (K, -S) below alpha = negative pivots of K + alpha S
        return _inertia(K, -S, alpha) > 0

    if not (negative(lo) and not negative(hi)):
        raise ValueError(f"bracket ({lo}, {hi}) does not hold the indefiniteness crossing")
    for _ in range(200):
        if hi - lo <= 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if negative(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rayleigh_min_oracle(
    A: np.ndarray, M: np.ndarray, trials: int, seed: int = 0, iters: int = 400
) -> float:
    """Direct multistart minimization of u^T A u / u^T M u (no eigensolver on
    the full pencil; each step is an exact line search on a 2D subspace)."""
    rng = np.random.default_rng(seed)
    n = A.shape[0]
    best = np.inf
    for _ in range(trials):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for _ in range(iters):
            qm = u @ M @ u
            rho = (u @ A @ u) / qm
            g = 2.0 * (A @ u - rho * (M @ u)) / qm
            if np.linalg.norm(g) < 1e-14 * max(1.0, abs(rho)):
                break
            basis = np.stack([u, -g]).T
            ar = basis.T @ A @ basis
            mr = basis.T @ M @ basis
            try:
                w, v = linalg.eigh(ar, mr)
            except linalg.LinAlgError:
                break
            u = basis @ v[:, 0]
            u /= np.linalg.norm(u)
        rho = (u @ A @ u) / (u @ M @ u)
        best = min(best, rho)
    return float(best)


def quotient_max_oracle(value_fn, n: int, samples: int, seed: int = 0) -> float:
    """Best value of a scale-invariant quotient over random direction samples."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    done = 0
    while done < samples:
        take = min(4096, samples - done)
        for row in rng.standard_normal((take, n)):
            val = value_fn(row)
            if val > best:
                best = val
        done += take
    return float(best)
