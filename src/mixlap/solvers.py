"""Certified critical-point searches for the semilinear problem.

Solvers produce a ``CriticalPointReport`` carrying the dual norm, in the
K^{-1} inner product, of the discrete energy gradient
phi -> B(u, phi) - int f(x, u) phi.  A report claims convergence only when
that norm is below tolerance, the iterate is nontrivial, and the energy
level matches the geometry that produced it.  The linking search, its
geometry probe and the coercivity gap work in the spectral splitting at
level k, span(u_1..u_k) and its M-orthogonal complement, which
``_splitting`` computes for all three.

Search strategies:

* asymptotically linear model: direct resolvent solve with a resonance guard;
* superlinear model, ground level: path deformation (steepest descent of the
  path maximum along a discretized path from zero to a negative-energy
  endpoint), then Newton;
* superlinear model, higher levels: peak-selection minimax over the splitting
  span(u_1..u_k) + ray, with an outer descent on the ray direction, then
  Newton.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy import linalg

from .assembly import OperatorSystem
from .functional import (
    AffineLinear,
    J_eval,
    J_gradient,
    J_gradients,
    J_hessian,
    J_values,
    _apply_rows,
    _dot_rows,
    asymptotic_slopes,
    load_vector,
    weighted_mass,
)
from .mesh import FeField
from .spectrum import ZERO_TOL, DegenerateSpectrumError, solve_pencil

__all__ = [
    "SolverConfig",
    "CriticalPointReport",
    "LinkingGeometryReport",
    "ResonanceError",
    "solve_resolvent",
    "newton_refine",
    "mountain_pass",
    "verify_geometry",
    "coercivity_gap",
    "linking_search",
]


class ResonanceError(RuntimeError):
    """The requested linear level sits on (or too close to) an eigenvalue."""


# mountain pass and linking search
PATH_NODES = 41  # nodes of the discretized mountain-pass path
T_MAX = 1e3  # largest multiple of u_1 tried as the negative-energy endpoint
BLOWUP_BOUND = 1e6  # X-norm guard on the path and peak iterates
NEWTON_MAX_ITER = 40
NEWTON_TOL = 1e-12
NEWTON_GATE_FACTOR = 0.25  # early-Newton trigger relative to the first gradient

# linking geometry probe
RHO_GRID = tuple(float(x) for x in np.logspace(-3, 0.5, 8))  # sphere radii searched
PROBE_RESTARTS = 12  # random starts per sphere (and random directions, affine kind)
RHO_BIG_MAX = 1e4  # largest half-cylinder (or sphere) radius tried


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 600
    seed: int = 0


@dataclass
class CriticalPointReport:
    u: FeField
    J_value: float
    grad_norm: float
    classification: str  # trivial | nontrivial
    iterations: int
    converged: bool
    status: str
    message: str = ""
    path_history: list = field(default_factory=list)
    geometry: Optional[LinkingGeometryReport] = None  # the probe that gated a linking search

    def to_dict(self) -> dict:
        return {
            "J_value": self.J_value,
            "grad_norm": self.grad_norm,
            "classification": self.classification,
            "iterations": self.iterations,
            "converged": self.converged,
            "status": self.status,
            "message": self.message,
        }


@dataclass
class LinkingGeometryReport:
    k: int
    rho_small: float
    alpha_tilde: float
    rho_big: float
    boundary_sup: float
    certified: bool
    mode: str  # linking | saddle
    inconclusive: bool = False
    spread: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# dual norm
# ---------------------------------------------------------------------------


def _riesz(sys: OperatorSystem, g: np.ndarray) -> np.ndarray:
    """K^{-1} g: Riesz representative of the functional in the local energy."""
    return linalg.cho_solve_banded((sys.k_factor, False), g)


def _dual_norm(sys: OperatorSystem, g: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(g @ _riesz(sys, g))))


def _x_norm(sys: OperatorSystem, c: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(c @ sys.K @ c)))


def _x_norms(sys: OperatorSystem, W: np.ndarray) -> np.ndarray:
    """X norms of the rows of W, each bit-identical to ``_x_norm``."""
    return np.sqrt(np.maximum(0.0, _dot_rows(_apply_rows(sys.K.T, W), W)))


def _slope_at_zero(sys: OperatorSystem, nl):
    """Sampled slope of f at t = 0, at 9 evenly spaced interior mesh nodes."""
    nodes = sys.mesh.nodes
    picks = np.linspace(0, nodes.size - 1, 9).round().astype(int)
    return asymptotic_slopes(nl, "at_zero", nodes[picks])


def _classify(sys: OperatorSystem, c: np.ndarray, threshold: float) -> str:
    return "nontrivial" if _x_norm(sys, c) >= threshold else "trivial"


# ---------------------------------------------------------------------------
# linear resolvent
# ---------------------------------------------------------------------------


def solve_resolvent(
    sys: OperatorSystem, lam: float, a: FeField, cfg: SolverConfig | None = None
) -> CriticalPointReport:
    """Direct solve of (K + alpha S - lam M) u = M a with a resonance guard.

    The right-hand side is the piecewise-linear field a; the certificate is
    evaluated against the affine nonlinearity built from its interpolant, so
    the gradient norm of the direct solve is at round-off level.
    """
    cfg = cfg or SolverConfig()
    if a.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    eigs = sys.eigenpairs[0]  # the guard reads eigenvalues only
    gaps = np.abs(eigs - lam)
    k_near = int(np.argmin(gaps))
    if gaps[k_near] < 1e-8 * (1.0 + abs(lam)):
        raise ResonanceError(
            f"lambda={lam!r} is within tolerance of eigenvalue k={k_near + 1} "
            f"(lambda_k={eigs[k_near]!r}); the linear problem is resonant"
        )
    Amat = sys.A - lam * sys.M
    rhs = sys.M @ a.coeffs
    lu = linalg.lu_factor(Amat)
    x = linalg.lu_solve(lu, rhs)
    for _ in range(3):  # iterative refinement to push the residual to round-off
        r = rhs - Amat @ x
        if np.max(np.abs(r)) == 0.0:
            break
        x = x + linalg.lu_solve(lu, r)
    u = FeField(x, sys.mesh)
    nl = AffineLinear(lam, a.evaluate)
    gn = _dual_norm(sys, J_gradient(sys, nl, u).coeffs)
    ok = gn <= max(cfg.tol, 1e-10)
    return CriticalPointReport(
        u=u,
        J_value=J_eval(sys, nl, u),
        grad_norm=gn,
        classification=_classify(sys, x, 1e-12),
        iterations=1,
        converged=ok,
        status="converged" if ok else "residual_above_tolerance",
    )


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------


def newton_refine(
    sys: OperatorSystem, nl, u0: FeField, cfg: SolverConfig | None = None
) -> CriticalPointReport:
    """Damped Newton on J'(u) = 0 with the analytic Jacobian K + alpha S - M_{f'(u)}.

    The merit function is the dual gradient norm; steps fall back to the
    Riesz gradient direction when the Jacobian solve fails.
    """
    cfg = cfg or SolverConfig()
    u = FeField(u0.coeffs, sys.mesh)
    hist: list[tuple[int, float, float]] = []
    status = "max_iterations"
    it = 0
    g = J_gradient(sys, nl, u).coeffs
    gn = _dual_norm(sys, g)
    for it in range(NEWTON_MAX_ITER):
        hist.append((it, J_eval(sys, nl, u), gn))
        if gn <= NEWTON_TOL or gn <= 1e-16:
            status = "converged"
            break
        try:
            delta = np.linalg.solve(J_hessian(sys, nl, u), -g)
        except np.linalg.LinAlgError:
            delta = -_riesz(sys, g)
        sigma = 1.0
        accepted = False
        while sigma >= 2.0**-24:
            u_try = FeField(u.coeffs + sigma * delta, sys.mesh)
            g_try = J_gradient(sys, nl, u_try).coeffs
            gn_try = _dual_norm(sys, g_try)
            if gn_try < gn:
                u, g, gn = u_try, g_try, gn_try
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            status = "diverged"
            break
    else:
        if gn <= NEWTON_TOL:
            status = "converged"
    converged = status == "converged" and gn <= cfg.tol
    return CriticalPointReport(
        u=u,
        J_value=J_eval(sys, nl, u),
        grad_norm=gn,
        classification=_classify(sys, u.coeffs, 1e-6),
        iterations=it,
        converged=converged,
        status=status,
        path_history=hist,
    )


# ---------------------------------------------------------------------------
# mountain pass
# ---------------------------------------------------------------------------


def _reparameterize(sys: OperatorSystem, path: np.ndarray, n_nodes: int) -> np.ndarray:
    """Resample the polyline to n_nodes equal arclength steps in the K norm."""
    seg = _x_norms(sys, np.diff(path, axis=0))
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    total = arc[-1]
    if total == 0.0:
        return path.copy()
    targets = np.linspace(0.0, total, n_nodes)
    out = np.empty((n_nodes, path.shape[1]))
    j = 0
    for i, t in enumerate(targets):
        while j < len(seg) - 1 and arc[j + 1] < t:
            j += 1
        denom = max(arc[j + 1] - arc[j], 1e-300)
        w = (t - arc[j]) / denom
        out[i] = (1.0 - w) * path[j] + w * path[j + 1]
    out[0] = path[0]
    out[-1] = path[-1]
    return out


def _geometry_failure(
    sys: OperatorSystem, message: str, status: str = "geometry_violation", hist=(), geometry=None
) -> CriticalPointReport:
    """The zero field, for a search that stopped before Newton after len(hist) steps."""
    return CriticalPointReport(
        u=FeField.zero(sys.mesh),
        J_value=0.0,
        grad_norm=math.nan,
        classification="trivial",
        iterations=len(hist),
        converged=False,
        status=status,
        message=message,
        path_history=list(hist),
        geometry=geometry,
    )


def _certify(
    sys: OperatorSystem, nl, c: np.ndarray, cfg: SolverConfig, radius: float, hist: list,
    status: str, message: str, geometry=None,
) -> CriticalPointReport:
    """Newton-refine the descent iterate c and certify the result: gradient
    norm <= tol, X norm >= 1e-4 * radius and J > 0; otherwise the report
    keeps the descent's status."""
    refined = newton_refine(sys, nl, FeField(c, sys.mesh), cfg)
    classification = _classify(sys, refined.u.coeffs, 1e-4 * radius)
    converged = (
        refined.grad_norm <= cfg.tol
        and classification == "nontrivial"
        and refined.J_value > 0.0
    )
    return CriticalPointReport(
        u=refined.u,
        J_value=refined.J_value,
        grad_norm=refined.grad_norm,
        classification=classification,
        iterations=len(hist) + refined.iterations,
        converged=converged,
        status="converged" if converged else status,
        message=message,
        path_history=hist,
        geometry=geometry,
    )


def mountain_pass(sys: OperatorSystem, nl, cfg: SolverConfig | None = None) -> CriticalPointReport:
    """Path-deformation search for a positive-level critical point.

    Requires the slope of f at zero to sit strictly below the first pencil
    eigenvalue (checked via a sampled slope estimate); otherwise a geometry
    violation report is returned without searching.  A discrete path from 0
    to a negative-energy endpoint along the first eigenfield is deformed by
    steepest descent of its maximal node (backtracking guarantees the path
    maximum decreases), re-parameterized by arclength each iteration, and the
    final maximal node is Newton-refined.
    """
    cfg = cfg or SolverConfig()
    spec = solve_pencil(sys, m=min(sys.ndof, 2))
    lam1 = float(spec.lambdas[0])
    theta = _slope_at_zero(sys, nl)
    if theta.diverged or theta.inconclusive:
        return _geometry_failure(sys, "slope estimate at zero is unreliable: " + (
            "diverged" if theta.diverged else "inconclusive"))
    if not theta.upper < lam1:
        return _geometry_failure(
            sys,
            f"slope at zero {theta.upper:.6g} is not below the first eigenvalue "
            f"{lam1:.6g}; ground-level geometry fails",
        )

    u1 = spec.vectors[:, 0]
    u1 = u1 / _x_norm(sys, u1)
    t = 1.0
    endpoint = None
    while t <= T_MAX:
        if J_eval(sys, nl, FeField(t * u1, sys.mesh)) < 0.0:
            endpoint = t * u1
            break
        t *= 2.0
    if endpoint is None:
        return _geometry_failure(
            sys, f"no negative-energy endpoint along the first eigenfield up to t={T_MAX:g}"
        )

    path = np.linspace(0.0, 1.0, PATH_NODES)[:, None] * endpoint[None, :]
    hist: list[tuple[int, float, float]] = []
    status = "max_iterations"
    message = ""
    sigma0 = 1.0
    m_idx = 0
    radius = _x_norm(sys, endpoint)
    newton_gate = math.inf
    for it in range(cfg.max_iter):
        jvals = J_values(sys, nl, path)
        m_idx = int(np.argmax(jvals))
        if m_idx in (0, PATH_NODES - 1):
            status = "geometry_violation"
            message = "path maximum collapsed to an endpoint; minimax level is not positive"
            break
        if np.max(_x_norms(sys, path)) > BLOWUP_BOUND:
            status = "blowup"
            message = "path iterate exceeded the boundedness guard"
            break
        g = J_gradient(sys, nl, FeField(path[m_idx], sys.mesh)).coeffs
        gd = _riesz(sys, g)
        gn = math.sqrt(max(0.0, float(g @ gd)))
        if newton_gate is math.inf:
            newton_gate = NEWTON_GATE_FACTOR * gn
        if gn <= 10.0 * cfg.tol or gn <= newton_gate:
            # the path maximum looks localized: try to certify it right away
            rep = _certify(sys, nl, path[m_idx], cfg, radius, hist, status, message)
            if rep.converged:
                return rep
            newton_gate *= 0.25
            if gn <= 10.0 * cfg.tol:
                status = "stagnation"
                message = "descent converged but Newton refinement did not certify"
                hist.append((it, float(jvals[m_idx]), gn))
                break
        # accept a step only when the re-parameterized path's maximum drops:
        # this makes the recorded minimax level monotone by construction
        sigma = sigma0
        accepted = False
        j_max_old = float(jvals[m_idx])
        while sigma >= 2.0**-30:
            trial = path.copy()
            trial[m_idx] = path[m_idx] - sigma * gd
            trial = _reparameterize(sys, trial, PATH_NODES)
            j_trial = float(np.max(J_values(sys, nl, trial)))
            if j_trial < j_max_old - 1e-4 * sigma * gn * gn:
                path = trial
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            status = "stagnation"
            message = f"descent stalled with gradient norm {gn:.3e}"
            hist.append((it, j_max_old, gn))
            break
        sigma0 = min(1.0, sigma * 4.0)
        hist.append((it, float(j_trial), gn))

    if status in ("geometry_violation", "blowup"):
        return _geometry_failure(sys, message, status, hist)
    return _certify(sys, nl, path[m_idx], cfg, radius, hist, status, message)


# ---------------------------------------------------------------------------
# spectral splitting, linking geometry probe and coercivity gap
# ---------------------------------------------------------------------------


def _splitting(sys: OperatorSystem, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectral splitting at level k: all pencil eigenvalues, the first k
    eigenfields U and the remaining ones V, as columns."""
    if not 0 <= k < sys.ndof:
        raise ValueError(f"splitting level k={k} is outside 0..{sys.ndof - 1}")
    full = solve_pencil(sys, m=sys.ndof)
    if np.any(np.abs(full.lambdas[:k]) < ZERO_TOL):
        raise DegenerateSpectrumError(
            "a zero eigenvalue among the first k makes the splitting degenerate"
        )
    return full.lambdas, full.vectors[:, :k], full.vectors[:, k:]


def _sphere_min(
    sys: OperatorSystem, nl, V: np.ndarray, rho: float, rng: np.random.Generator
) -> tuple[float, float]:
    """Multistart projected descent of J, at most 300 steps, on the X-sphere
    of radius rho inside the span of the columns of V.  Returns (min value,
    spread).

    The starts run in lockstep, one block evaluation of J or its gradient per
    step.  Each start keeps its own step length and acceptance test, and
    leaves the block when it converges or its line search fails.
    """
    nsub = V.shape[1]
    KV = sys.K @ V
    starts = [np.eye(nsub)[j] for j in range(min(nsub, 3))]
    starts += [rng.standard_normal(nsub) for _ in range(PROBE_RESTARTS)]
    C = np.array(starts)

    def on_sphere(Cb):
        W = _apply_rows(V, Cb)
        r = _x_norms(sys, W)
        return W, r, (rho / r)[:, None] * W

    active = np.arange(len(C))
    for _ in range(300):
        if active.size == 0:
            break
        W, r, U = on_sphere(C[active])
        G = J_gradients(sys, nl, U)
        # chain rule through the radial projection
        GC = (rho / r)[:, None] * (
            _apply_rows(V.T, G) - (_dot_rows(W, G) / r**2)[:, None] * _apply_rows(KV.T, W)
        )
        gn = np.sqrt(_dot_rows(GC, GC))
        val = J_values(sys, nl, U)
        step = 0.5 / np.maximum(1.0, gn)
        improved = np.zeros(active.size, dtype=bool)
        trying = (gn >= 1e-12 * np.maximum(1.0, np.abs(val))) & (step > 1e-14)
        while trying.any():
            t = np.flatnonzero(trying)
            C_try = C[active[t]] - step[t, None] * GC[t]
            ok = J_values(sys, nl, on_sphere(C_try)[2]) < val[t] - 1e-12
            C[active[t[ok]]] = C_try[ok]
            improved[t[ok]] = True
            step[t[~ok]] *= 0.5
            trying[t] = ~ok & (step[t] > 1e-14)
        active = active[improved]
    results = np.sort(J_values(sys, nl, on_sphere(C)[2]))
    second = results[1] if results.size > 1 else results[0]
    spread = (second - results[0]) / (1.0 + abs(results[0]))
    return float(results[0]), float(spread)


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


def verify_geometry(sys: OperatorSystem, nl, k: int, seed: int = 0) -> LinkingGeometryReport:
    """Probe the minimax geometry around the spectral splitting at level k.

    Superlinear kinds: estimates the infimum of J on spheres inside the
    complement of the first k eigenfields over a radius grid, and the
    supremum of J on the boundary of the half-cylinder spanned by the first
    k eigenfields and the (k+1)-st direction, growing the cylinder radius
    until the supremum is nonpositive.  Affine kind: the exact infimum over
    the complement (a convex quadratic) against the supremum on the sphere
    in the spanned subspace.  A geometry that fails is reported, not
    raised, and inconclusive multistart scatter is flagged.  ``seed`` drives
    the random starts and directions.  Raises ``ValueError`` for k outside
    0..ndof-1, and for the affine kind at k = 0, whose sphere would lie in
    an empty span.
    """
    if isinstance(nl, AffineLinear) and k == 0:
        raise ValueError("the saddle geometry of the affine kind needs k >= 1")
    rng = np.random.default_rng(seed)
    lambdas, U, V = _splitting(sys, k)
    v_dir = V[:, 0] / _x_norm(sys, V[:, 0])

    if isinstance(nl, AffineLinear):
        lam = nl.lam
        # V diagonalizes the quadratic part: V^T (A - lam M) V = diag(lambda_j - lam)
        c = (V.T @ load_vector(sys.mesh, nl.a)) / (lambdas[k:] - lam)
        w_min = V @ c
        alpha_tilde = float(J_eval(sys, nl, FeField(w_min, sys.mesh)))
        rho_small = _x_norm(sys, w_min)
        # supremum on the X-sphere of radius T in span(U): grow T until the
        # quadratic drop dominates the linear term
        boundary_sup = math.inf
        T = max(1.0, 2.0 * rho_small)
        while T <= RHO_BIG_MAX:
            W = _apply_rows(U, np.vstack([np.eye(k), rng.standard_normal((PROBE_RESTARTS, k))]))
            W = (T / _x_norms(sys, W))[:, None] * W
            boundary_sup = float(np.max(J_values(sys, nl, np.vstack([W, -W]))))
            if boundary_sup < alpha_tilde:
                break
            T *= 2.0
        certified = boundary_sup < alpha_tilde
        return LinkingGeometryReport(
            k=k,
            rho_small=rho_small,
            alpha_tilde=alpha_tilde,
            rho_big=T,
            boundary_sup=boundary_sup,
            certified=certified,
            mode="saddle",
        )

    # superlinear: sphere infimum over a radius grid
    best_val = -math.inf
    best_rho = RHO_GRID[0]
    spread_at_best = 0.0
    for rho in RHO_GRID:
        val, spread = _sphere_min(sys, nl, V, rho, rng)
        if val > best_val:
            best_val, best_rho, spread_at_best = val, rho, spread
    alpha_tilde = best_val
    rho_small = best_rho

    rho_big = max(1.0, 4.0 * rho_small)
    boundary_sup = math.inf
    while rho_big <= RHO_BIG_MAX:
        boundary_sup = _delta_boundary_max(sys, nl, U, v_dir, rho_big, rng)
        if boundary_sup <= 0.0:
            break
        rho_big *= 2.0
    certified = alpha_tilde > 0.0 >= boundary_sup
    return LinkingGeometryReport(
        k=k,
        rho_small=rho_small,
        alpha_tilde=alpha_tilde,
        rho_big=rho_big,
        boundary_sup=boundary_sup,
        certified=certified,
        mode="linking",
        inconclusive=spread_at_best > 0.5,
        spread=spread_at_best,
    )


def coercivity_gap(sys: OperatorSystem, theta_bar, k: int) -> float:
    """Smallest value of (B(u,u) - int theta u^2) / |u|_X^2 over the
    complement of the first k eigenfields: an eigenvalue of the projected
    pencil against the local stiffness.  ``theta_bar`` is a constant or a
    function of x."""
    M_theta = weighted_mass(sys.mesh, theta_bar)
    _, _, V = _splitting(sys, k)
    Ar = V.T @ (sys.A - M_theta) @ V
    Kr = V.T @ sys.K @ V
    wmin = linalg.eigh(Ar, Kr, eigvals_only=True, subset_by_index=[0, 0])
    return float(wmin[0])


# ---------------------------------------------------------------------------
# linking search (peak selection minimax)
# ---------------------------------------------------------------------------


def _peak(
    sys: OperatorSystem, nl, W: np.ndarray, c0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximize J over the span of the columns of W (warm start c0)."""
    from scipy import optimize  # only the linking search needs it: keep the CLI import light

    def neg_val(c):
        return -J_eval(sys, nl, FeField(W @ c, sys.mesh))

    def neg_grad(c):
        return -(W.T @ J_gradient(sys, nl, FeField(W @ c, sys.mesh)).coeffs)

    res = optimize.minimize(neg_val, c0, jac=neg_grad, method="BFGS",
                            options={"gtol": 1e-12, "maxiter": 400})
    c = res.x
    if c[-1] < 0.0:
        c = -c  # keep the ray component nonnegative (J is even for the models)
    return c, float(-res.fun)


def linking_search(
    sys: OperatorSystem, nl, k: int, cfg: SolverConfig | None = None
) -> CriticalPointReport:
    """Minimax search over deformations of the spectral half-cylinder.

    The deformed surface is represented through peak selection: for a ray
    direction v in the complement, the inner stage maximizes J over
    span(u_1..u_k, v); the outer stage descends the ray direction along the
    Riesz gradient of J at the peak.  The converged peak is Newton-refined
    and certified like the ground-level search.  Requires the geometry probe
    to certify the linking (or saddle) structure first; every report carries
    that probe as ``geometry``; the probe draws from ``cfg.seed``.
    """
    cfg = cfg or SolverConfig()
    geometry = verify_geometry(sys, nl, k, cfg.seed)
    if not geometry.certified:
        return _geometry_failure(
            sys,
            f"linking geometry not certified at k={k}: "
            f"alpha_tilde={geometry.alpha_tilde:.6g}, boundary_sup={geometry.boundary_sup:.6g}",
            geometry=geometry,
        )

    lambdas, U, V = _splitting(sys, k)
    M = sys.M
    v = V[:, 0].copy()
    v /= math.sqrt(float(v @ M @ v))

    theta = _slope_at_zero(sys, nl)
    resonance_note = ""
    if k >= 1 and not theta.diverged and not theta.inconclusive:
        lam_k = float(lambdas[k - 1])
        if abs(theta.lower - lam_k) <= 1e-8 * (1.0 + abs(lam_k)):
            resonance_note = (
                f"slope at zero touches eigenvalue k={k} (boundary resonance); "
                "search proceeds but the level may be degenerate"
            )

    def project_out_U(w):
        if k == 0:
            return w
        return w - U @ (U.T @ (M @ w))

    c = np.zeros(k + 1)
    c[-1] = 1.0
    W = np.column_stack([U, v]) if k else v[:, None]
    c, peak_val = _peak(sys, nl, W, c)
    hist: list[tuple[int, float, float]] = []
    status = "max_iterations"
    message = resonance_note
    sigma0 = 1.0
    p_coeffs = W @ c
    for it in range(cfg.max_iter):
        g = J_gradient(sys, nl, FeField(p_coeffs, sys.mesh)).coeffs
        gd = _riesz(sys, g)
        gn = math.sqrt(max(0.0, float(g @ gd)))
        hist.append((it, peak_val, gn))
        if gn <= 10.0 * cfg.tol:
            status = "not_certified"
            break
        if _x_norm(sys, p_coeffs) > BLOWUP_BOUND:
            status = "blowup"
            message = "peak iterate exceeded the boundedness guard"
            break
        sigma = sigma0
        accepted = False
        while sigma >= 2.0**-30:
            v_try = project_out_U(v - sigma * gd)
            nv = math.sqrt(max(float(v_try @ M @ v_try), 0.0))
            if nv <= 0.0:
                sigma *= 0.5
                continue
            v_try /= nv
            W_try = np.column_stack([U, v_try]) if k else v_try[:, None]
            c_warm = c.copy()
            c_try, val_try = _peak(sys, nl, W_try, c_warm)
            if val_try < peak_val - 1e-14:
                v, W, c, peak_val = v_try, W_try, c_try, val_try
                p_coeffs = W @ c
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            status = "stagnation"
            message = (message + "; " if message else "") + (
                f"outer descent stalled with gradient norm {gn:.3e}"
            )
            break
        sigma0 = min(1.0, sigma * 4.0)

    if status == "blowup":
        return _geometry_failure(sys, message, status, hist, geometry)
    return _certify(sys, nl, p_coeffs, cfg, geometry.rho_small, hist, status, message, geometry)
