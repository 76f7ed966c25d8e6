"""Independent cross-check routes for the production assembly and solvers.

Everything here deliberately avoids the code paths it is meant to check:
the nonlocal-form oracle integrates the defining double integral with
adaptive quadrature (element pair by element pair, splitting along the
diagonal where the kernel is singular, and with the exterior integral mapped
to a finite domain instead of using its closed form), the pencil oracle
locates eigenvalues by inertia bisection on LDL^T factorizations, the
threshold oracle bisects the coupling on the same inertia count, the
Hessian oracle subtracts the weighted-mass band from a copy of the dense A
where production applies A by its circulant embedding, the
quotient oracles use direct randomized search, and the linking-geometry
oracle samples J by multistart descent on spheres and along the boundary of
the half-cylinder, where production bounds it by inequalities.  They are
slow and only meant for desk-scale matrices.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, linalg

from .assembly import OperatorSystem
from .functional import J_gradients, J_values, _apply_rows, _dot_rows, _field_at_quad, weighted_mass
from .mesh import FeField, MeshInterval
from .solvers import _x_norm

__all__ = [
    "gagliardo_entry_oracle",
    "gagliardo_matrix_oracle",
    "pencil_eigenvalues_oracle",
    "threshold_oracle",
    "hessian_oracle",
    "rayleigh_min_oracle",
    "quotient_max_oracle",
]

# sampled linking geometry
RHO_GRID = tuple(float(x) for x in np.logspace(-3, 0.5, 8))  # sphere radii searched
SPHERE_RESTARTS = 12  # random starts per sphere


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


def _hat_on_cell(mesh: MeshInterval, node: int, k: int) -> tuple[float, float, float]:
    """(c0, xi, d) with the hat of interior node ``node`` equal to
    c0 - (x - xi) / d on cell k: ``_hat``'s own float operations inside its
    support (d = -h on the left cell, h on the right one) and 0 off it."""
    xi = float(mesh.nodes[node - 1])
    if k == node - 1:
        return 1.0, xi, -mesh.h
    if k == node:
        return 1.0, xi, mesh.h
    return 0.0, xi, math.inf


def _pair_integrand(mesh: MeshInterval, s: float, i: int, j: int, k: int, m: int):
    """The Omega x Omega integrand of hats i and j for x in cell k and y in
    cell m, where each hat is affine: one closure of float arithmetic.  It
    is 0 on the diagonal x == y, a null set that the quadrature of a
    diagonal cell pair can still reach at its edge."""
    ai, xi, di = _hat_on_cell(mesh, i, k)
    bi, _, ei = _hat_on_cell(mesh, i, m)
    aj, xj, dj = _hat_on_cell(mesh, j, k)
    bj, _, ej = _hat_on_cell(mesh, j, m)
    expo = 1.0 + 2.0 * s

    def integrand(y: float, x: float) -> float:
        if x == y:
            return 0.0
        return (
            ((ai - (x - xi) / di) - (bi - (y - xi) / ei))
            * ((aj - (x - xj) / dj) - (bj - (y - xj) / ej))
            / abs(x - y) ** expo
        )

    return integrand


def gagliardo_entry_oracle(
    mesh: MeshInterval, s: float, i: int, j: int, eps: float = 1e-10
) -> float:
    """Adaptive-quadrature value of the Gagliardo pairing of hats i and j.

    The Omega x Omega part is integrated cell pair by cell pair with
    ``dblquad`` (identical cells are split along the diagonal x = y so the
    kernel singularity sits on the region boundary), each hat resolved once
    per pair to its affine piece.  The exterior part,
    ``_exterior_entry_oracle``, is integrated adaptively as well, with the
    unbounded inner integral mapped onto (0, 1) by u = t / (1 - t).
    """
    a = mesh.a
    h = mesh.h
    n_el = mesh.n_elem

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
            integrand = _pair_integrand(mesh, s, i, j, k, m)
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


def hessian_oracle(sys: OperatorSystem, nl, u: FeField) -> np.ndarray:
    """The dense Hessian of the discrete energy at u, (K + alpha S) -
    quad(f'(x, u) phi_i phi_j): the weighted-mass band subtracted from a copy
    of the dense A, the check of ``functional.J_hessian_operator``."""
    if u.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    diag, off = weighted_mass(sys.mesh, lambda x: nl.fprime(x, _field_at_quad(sys.mesh, u.coeffs)))
    H, n = sys.A.copy(), sys.ndof
    H.flat[:: n + 1] -= diag
    H.flat[1 :: n + 1] -= off
    H.flat[n :: n + 1] -= off
    return H


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


def _x_norms(sys: OperatorSystem, W: np.ndarray) -> np.ndarray:
    """X norms of the rows of W, each bit-identical to ``mixlap.solvers._x_norm``."""
    return np.sqrt(np.maximum(0.0, _dot_rows(np.ascontiguousarray(sys.apply_K(W.T).T), W)))


def _sphere_min(
    sys: OperatorSystem, nl, V: np.ndarray, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Multistart projected descent of J, at most 300 steps, on the X-sphere
    of each radius in ``RHO_GRID`` inside the span of the columns of V.
    Returns (min value, spread) per radius.

    The starts of all radii run in lockstep, one block evaluation of J or its
    gradient per step, each row on its own radius; the random starts are
    drawn radius by radius.  Each start keeps its own step length and
    acceptance test, and leaves the block when it converges or its line
    search fails.  A start's line search begins at 0.5 / max(1, |gradient|),
    capped at four times its last accepted step.
    """
    nsub = V.shape[1]
    KV = sys.apply_K(V)
    unit = np.eye(nsub)[: min(nsub, 3)]
    C = np.vstack([np.vstack([unit, rng.standard_normal((SPHERE_RESTARTS, nsub))]) for _ in RHO_GRID])
    rho = np.repeat(RHO_GRID, len(C) // len(RHO_GRID))

    def on_sphere(Cb, rb):
        W = _apply_rows(V, Cb)
        r = _x_norms(sys, W)
        return W, r, (rb / r)[:, None] * W

    active = np.arange(len(C))
    last = np.full(len(C), np.inf)  # each start's last accepted step
    for _ in range(300):
        if active.size == 0:
            break
        ra = rho[active]
        W, r, U = on_sphere(C[active], ra)
        G = J_gradients(sys, nl, U)
        # chain rule through the radial projection
        GC = (ra / r)[:, None] * (
            _apply_rows(V.T, G) - (_dot_rows(W, G) / r**2)[:, None] * _apply_rows(KV.T, W)
        )
        gn = np.sqrt(_dot_rows(GC, GC))
        val = J_values(sys, nl, U)
        step = np.minimum(0.5 / np.maximum(1.0, gn), 4.0 * last[active])
        improved = np.zeros(active.size, dtype=bool)
        trying = (gn >= 1e-12 * np.maximum(1.0, np.abs(val))) & (step > 1e-14)
        while trying.any():
            t = np.flatnonzero(trying)
            C_try = C[active[t]] - step[t, None] * GC[t]
            ok = J_values(sys, nl, on_sphere(C_try, ra[t])[2]) < val[t] - 1e-12
            C[active[t[ok]]] = C_try[ok]
            last[active[t[ok]]] = step[t[ok]]
            improved[t[ok]] = True
            step[t[~ok]] *= 0.5
            trying[t] = ~ok & (step[t] > 1e-14)
        active = active[improved]
    out = []
    for results in np.sort(J_values(sys, nl, on_sphere(C, rho)[2]).reshape(len(RHO_GRID), -1)):
        second = results[1] if results.size > 1 else results[0]
        out.append((float(results[0]), float((second - results[0]) / (1.0 + abs(results[0])))))
    return out


def _delta_boundary_max(
    sys: OperatorSystem, nl, U: np.ndarray, v_dir: np.ndarray, rho: float, rng: np.random.Generator
) -> float:
    """Max of J sampled over the boundary of the half-cylinder
    (X-ball of radius rho in span U) + [0, rho] * v_dir, along 100 random
    ball directions per face."""
    k = U.shape[1]
    ts = np.linspace(0.0, rho, 33)[:, None]
    rs = np.linspace(0.0, rho, 17)[:, None]

    def ball_dirs():
        if k == 0:
            return np.zeros((1, 0))
        if k == 1:
            return np.array([[1.0], [-1.0]])
        d = rng.standard_normal((100, k))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def x_normalize(w):
        n = _x_norm(sys, w)
        return w / n if n > 0 else w

    def sup(block):
        return float(np.max(J_values(sys, nl, block)))

    # at k = 0 the ball is the origin, the side face is empty and the
    # boundary reduces to the two segment endpoints
    best = -math.inf
    # bottom face t = 0, |w| <= rho  (includes the origin)
    for d in ball_dirs():
        best = max(best, sup(rs * x_normalize(U @ d)))
    # side face |w| = rho, t in [0, rho]
    for d in ball_dirs():
        if k:
            best = max(best, sup(rho * x_normalize(U @ d) + ts * v_dir))
    # top face t = rho, |w| <= rho
    for d in ball_dirs():
        best = max(best, sup(rs * x_normalize(U @ d) + rho * v_dir))
    return best
