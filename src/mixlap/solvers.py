"""Certified critical-point searches for the semilinear problem.

Solvers produce a ``CriticalPointReport`` carrying the dual norm, in the
K^{-1} inner product, of the discrete energy gradient
phi -> B(u, phi) - int f(x, u) phi.  A report claims convergence only when
that norm is below tolerance, the iterate is nontrivial, and the energy
level matches the geometry that produced it.  The linking search, its
geometry probe and the coercivity gap work in the spectral splitting at
level k, span(u_1..u_k) and its M-orthogonal complement, which
``_splitting`` computes for all three; a linking search computes it once and
hands it to its probe.

Search strategies:

* asymptotically linear model: eigenpair resolvent solve with a resonance guard;
* superlinear model, every level k: one peak-selection minimax engine
  (Li & Zhou, SIAM J. Sci. Comput. 23, 2001).  For a ray direction v in the
  complement of span(u_1..u_k), the peak maximizes J over span(u_1..u_k, v);
  the engine descends v along the Riesz gradient of J at the peak, with one
  early-Newton gate: Newton refinement and the certificate are tried once
  the gradient norm has dropped to a fixed fraction of its first value, and
  the gate is quartered whenever they fail.  The mountain pass is the k = 0
  case, started from u_1 once the ground-level geometry is checked; the
  linking search starts from u_{k+1} once its probe certifies the geometry.
  Each peak is found by Newton on the k + 1 coefficients of the span, with
  the reduced gradient W^T J'(W c) and Hessian W^T J''(W c) W, falling back
  to the reduced gradient where that Hessian is not negative definite; one
  ``J_values`` block ranks the backtracking steps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .assembly import OperatorSystem, _dst
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


# peak-selection minimax
T_MAX = 1e3  # largest multiple of u_1 tried as the negative-energy endpoint
BLOWUP_BOUND = 1e6  # X-norm guard on the peak iterates
NEWTON_MAX_ITER = 40
NEWTON_TOL = 1e-12
NEWTON_GATE_FACTOR = 0.25  # early-Newton trigger relative to the first gradient
PEAK_MAX_ITER = 400  # Newton steps of one peak selection
PEAK_GTOL = 1e-12  # max-norm tolerance on the reduced gradient at a peak
PEAK_FLAT = 1e-14  # relative J gain below which a Newton step is taken unranked
PEAK_LADDER = 0.5 ** np.arange(40)  # trial steps of the peak's line search
PEAK_FIRST_RUNGS = 4  # steps ranked before the rest of the ladder (the kept one, nearly always)

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
    """K^{-1} g, solved in the sine basis (K = Q diag(sine.k) Q): the Riesz representative."""
    return _dst(_dst(g.copy()) / sys.sine.k)


def _dual_norm(sys: OperatorSystem, g: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(g @ _riesz(sys, g))))


def _x_norm(sys: OperatorSystem, c: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(sys.apply_K(c) @ c)))


def _x_norms(sys: OperatorSystem, W: np.ndarray) -> np.ndarray:
    """X norms of the rows of W, each bit-identical to ``_x_norm``."""
    return np.sqrt(np.maximum(0.0, _dot_rows(np.ascontiguousarray(sys.apply_K(W.T).T), W)))


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
    """Eigenpair solve of (K + alpha S - lam M) u = M a with a resonance guard.

    The right-hand side is the piecewise-linear field a; the certificate is
    evaluated against the affine nonlinearity built from its interpolant, so
    the gradient norm of the solve is at round-off level.
    """
    cfg = cfg or SolverConfig()
    if a.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    eigs, V = sys.eigenpairs  # M-orthonormal, so (A - lam M)^-1 = V diag(1 / (eigs - lam)) V^T
    gaps = np.abs(eigs - lam)
    k_near = int(np.argmin(gaps))
    if gaps[k_near] < 1e-8 * (1.0 + abs(lam)):
        raise ResonanceError(
            f"lambda={lam!r} is within tolerance of eigenvalue k={k_near + 1} "
            f"(lambda_k={eigs[k_near]!r}); the linear problem is resonant"
        )
    rhs = sys.apply_M(a.coeffs)
    x = np.zeros(sys.ndof)
    for _ in range(4):  # the solve, then iterative refinement to push the residual to round-off
        r = rhs - (sys.A @ x - lam * sys.apply_M(x))
        if np.max(np.abs(r)) == 0.0:
            break
        x = x + V @ ((V.T @ r) / (eigs - lam))
    u = FeField(x, sys.mesh)
    nl = AffineLinear(lam, a.evaluate)
    gn = _dual_norm(sys, J_gradient(sys, nl, u).coeffs)
    ok = gn <= max(cfg.tol, 1e-10) * max(1.0, _x_norm(sys, x))  # relative to the size of u
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
# search reports
# ---------------------------------------------------------------------------


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
    C = np.vstack([np.vstack([unit, rng.standard_normal((PROBE_RESTARTS, nsub))]) for _ in RHO_GRID])
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


def _refusal(k: int, mode: str, alpha_tilde: float) -> LinkingGeometryReport:
    nan = math.nan
    return LinkingGeometryReport(
        k=k, rho_small=nan, alpha_tilde=alpha_tilde, rho_big=nan, boundary_sup=nan,
        certified=False, mode=mode,
    )


def verify_geometry(sys: OperatorSystem, nl, k: int, seed: int = 0) -> LinkingGeometryReport:
    """Probe the minimax geometry around the spectral splitting at level k.

    Superlinear kinds: estimates the infimum of J on spheres inside the
    complement of the first k eigenfields over a radius grid, and the
    supremum of J on the boundary of the half-cylinder spanned by the first
    k eigenfields and the (k+1)-st direction, growing the cylinder radius
    until the supremum is nonpositive.  Affine kind: the exact infimum over
    the complement (a convex quadratic) against the supremum on the sphere
    in the spanned subspace.  A geometry that fails is reported, not
    raised, and inconclusive multistart scatter is flagged.  Refused
    without probing, with NaN for what was not computed: the affine kind
    when its slope is not below lambda_{k+1}, where J is unbounded below on
    the complement (alpha_tilde is -inf), and a superlinear kind at k >= 1
    unless its sampled slope at zero lies above lambda_k.  ``seed`` drives
    the random starts and directions.  Raises ``ValueError`` for k outside
    0..ndof-1, and for the affine kind at k = 0, whose sphere would lie in
    an empty span.
    """
    return _probe(sys, nl, _splitting(sys, k), _slope_at_zero(sys, nl), seed)[0]


def _probe(
    sys: OperatorSystem, nl, split: tuple, theta, seed: int
) -> tuple[LinkingGeometryReport, str]:
    """``verify_geometry`` on a splitting and a slope estimate at zero that
    the caller computed, with the reason for a refusal ("" otherwise)."""
    lambdas, U, V = split
    k = U.shape[1]
    if isinstance(nl, AffineLinear) and k == 0:
        raise ValueError("the saddle geometry of the affine kind needs k >= 1")
    rng = np.random.default_rng(seed)

    if isinstance(nl, AffineLinear):
        lam = nl.lam
        if not lam < lambdas[k]:
            return _refusal(k, "saddle", -math.inf), (
                f"slope {lam:.6g} is not below lambda_{k + 1} = {lambdas[k]:.6g}: "
                "J is unbounded below on the complement"
            )
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
        ), ""

    if k >= 1 and (theta.diverged or theta.inconclusive or not lambdas[k - 1] < theta.lower):
        return _refusal(k, "linking", math.nan), (
            f"slope at zero [{theta.lower:.6g}, {theta.upper:.6g}] is not above "
            f"lambda_{k} = {lambdas[k - 1]:.6g}"
        )

    # superlinear: sphere infimum over a radius grid
    best_val = -math.inf
    best_rho = RHO_GRID[0]
    spread_at_best = 0.0
    for rho, (val, spread) in zip(RHO_GRID, _sphere_min(sys, nl, V, rng)):
        if val > best_val:
            best_val, best_rho, spread_at_best = val, rho, spread
    alpha_tilde = best_val
    rho_small = best_rho

    v_dir = V[:, 0] / _x_norm(sys, V[:, 0])
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
    ), ""


def coercivity_gap(sys: OperatorSystem, theta_bar, k: int) -> float:
    """Smallest value of (B(u,u) - int theta u^2) / |u|_X^2 over the
    complement of the first k eigenfields: an eigenvalue of the projected
    pencil against the local stiffness.  ``theta_bar`` is a constant or a
    function of x."""
    from scipy import linalg  # only the audit needs a one-index generalized eigensolve
    M_theta = weighted_mass(sys.mesh, theta_bar)
    _, _, V = _splitting(sys, k)
    Ar = V.T @ (sys.A - M_theta) @ V
    Kr = V.T @ sys.apply_K(V)
    wmin = linalg.eigh(Ar, Kr, eigvals_only=True, subset_by_index=[0, 0])
    return float(wmin[0])


# ---------------------------------------------------------------------------
# peak-selection minimax: mountain pass (k = 0) and linking search (k >= 1)
# ---------------------------------------------------------------------------


def _peak(
    sys: OperatorSystem, nl, W: np.ndarray, c0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximize J over the span of the columns of W (warm start c0) by
    Newton on the coefficients c of the field W c.

    The Newton step uses the reduced gradient W^T J'(W c) and Hessian
    W^T J''(W c) W, and is taken only where that Hessian is negative
    definite; elsewhere the step is the reduced gradient, so the iteration
    climbs past the saddle at 0 instead of settling on it.  ``J_values``
    ranks the steps sigma = 2^-j, the first ``PEAK_FIRST_RUNGS`` in one block
    and the rest only when none of those raises J; the first step that
    raises J is kept.  Stops at a reduced gradient below ``PEAK_GTOL`` (max
    norm), when no step raises J, or after a Newton step too small for J to
    rank, taken whole.
    Returns the coefficients, ray component nonnegative, and J there.
    """
    c = np.asarray(c0, dtype=float).copy()
    val = J_eval(sys, nl, FeField(W @ c, sys.mesh))
    for _ in range(PEAK_MAX_ITER):
        u = FeField(W @ c, sys.mesh)
        g = W.T @ J_gradient(sys, nl, u).coeffs
        if np.max(np.abs(g)) <= PEAK_GTOL:
            break
        H = W.T @ J_hessian(sys, nl, u) @ W
        try:
            np.linalg.cholesky(-H)  # raises unless -H is positive definite
        except np.linalg.LinAlgError:
            d = g
        else:
            d = np.linalg.solve(-H, g)
            if 0.5 * float(g @ d) <= PEAK_FLAT * max(1.0, abs(val)):
                # a gain J cannot resolve: take the whole Newton step and stop
                c = c + d
                val = J_eval(sys, nl, FeField(W @ c, sys.mesh))
                break
        for rungs in np.split(PEAK_LADDER, [PEAK_FIRST_RUNGS]):
            trials = c + rungs[:, None] * d
            vals = J_values(sys, nl, _apply_rows(W, trials))
            up = np.flatnonzero(vals > val)
            if up.size:
                break
        if up.size == 0:
            break
        c, val = trials[up[0]], float(vals[up[0]])
    if c[-1] < 0.0:
        c = -c  # keep the ray component nonnegative (J is even for the models)
    return c, val


def _minimax(
    sys: OperatorSystem, nl, U: np.ndarray, v: np.ndarray, cfg: SolverConfig, radius: float,
    message: str = "", geometry=None,
) -> CriticalPointReport:
    """Peak-selection minimax over span(U, v): the columns of U are the
    first k eigenfields and v, M-orthogonal to them, starts the ray.

    Each iteration takes the peak of J over span(U, v) (``_peak``, warm
    started from the last one) and descends v along the Riesz gradient of J
    at the peak, projected off span(U) and M-normalized; a step is kept only
    when the new peak is lower, so the recorded levels decrease.  Once the
    gradient norm at the peak is at most ``NEWTON_GATE_FACTOR`` times its
    first value, or at most 10 tol, the peak is Newton-refined and certified
    (``_certify``); a failed certificate quarters the gate.  A peak whose X
    norm exceeds ``BLOWUP_BOUND`` stops the search.  History rows are
    (iteration, peak level, gradient norm).
    """
    M = sys.apply_M
    v = v / math.sqrt(float(v @ M(v)))
    W = np.column_stack([U, v])
    c = np.zeros(W.shape[1])
    c[-1] = 1.0
    c, peak_val = _peak(sys, nl, W, c)
    hist: list[tuple[int, float, float]] = []
    status = "max_iterations"
    sigma0 = 1.0
    gate = math.inf
    for it in range(cfg.max_iter):
        p = W @ c
        g = J_gradient(sys, nl, FeField(p, sys.mesh)).coeffs
        gd = _riesz(sys, g)
        gn = math.sqrt(max(0.0, float(g @ gd)))
        hist.append((it, peak_val, gn))
        if _x_norm(sys, p) > BLOWUP_BOUND:
            return _geometry_failure(
                sys, "peak iterate exceeded the boundedness guard", "blowup", hist, geometry
            )
        if it == 0:
            gate = NEWTON_GATE_FACTOR * gn
        if gn <= 10.0 * cfg.tol or gn <= gate:
            # the peak looks localized: try to certify it right away
            rep = _certify(sys, nl, p, cfg, radius, hist, "not_certified", message, geometry)
            if rep.converged or gn <= 10.0 * cfg.tol:
                return rep
            gate *= 0.25
        sigma = sigma0
        accepted = False
        while sigma >= 2.0**-30:
            v_try = v - sigma * gd
            v_try -= U @ (U.T @ M(v_try))
            nv = math.sqrt(max(float(v_try @ M(v_try)), 0.0))
            if nv <= 0.0:
                sigma *= 0.5
                continue
            v_try /= nv
            W_try = np.column_stack([U, v_try])
            c_try, val_try = _peak(sys, nl, W_try, c)
            if val_try < peak_val - 1e-14:
                v, W, c, peak_val = v_try, W_try, c_try, val_try
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            status = "stagnation"
            message = (message + "; " if message else "") + (
                f"descent stalled with gradient norm {gn:.3e}"
            )
            break
        sigma0 = min(1.0, sigma * 4.0)
    return _certify(sys, nl, W @ c, cfg, radius, hist, status, message, geometry)


def mountain_pass(sys: OperatorSystem, nl, cfg: SolverConfig | None = None) -> CriticalPointReport:
    """Ground-level critical point: the peak-selection minimax at k = 0.

    Requires the slope of f at zero to sit strictly below the first pencil
    eigenvalue (checked via a sampled slope estimate), and J to turn
    negative along the first eigenfield u_1 within ``T_MAX`` times its X
    norm; otherwise a geometry violation report is returned without
    searching.  ``_minimax`` then runs with no fixed eigenfields from the
    ray of u_1: each peak is the maximum of J along one ray, the top of the
    mountain-pass path from 0 through it.
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
    x1 = u1 / _x_norm(sys, u1)
    t = 1.0
    while J_eval(sys, nl, FeField(t * x1, sys.mesh)) >= 0.0:
        t *= 2.0
        if t > T_MAX:
            return _geometry_failure(
                sys, f"no negative-energy endpoint along the first eigenfield up to t={T_MAX:g}"
            )
    return _minimax(sys, nl, np.empty((sys.ndof, 0)), u1, cfg, t)


def linking_search(
    sys: OperatorSystem, nl, k: int, cfg: SolverConfig | None = None
) -> CriticalPointReport:
    """Minimax search over deformations of the spectral half-cylinder.

    Requires the geometry probe to certify the linking (or saddle) structure
    first; every report carries that probe as ``geometry``, and the probe
    draws from ``cfg.seed``.  ``_minimax`` then runs with the first k
    eigenfields fixed from the ray of u_{k+1}; at k = 0 that is the search
    of ``mountain_pass``.  Raises ``ValueError`` for the affine kind once its
    geometry is certified: J is unbounded above along the ray, so there is
    no peak to select, and its saddle point is the resolvent solve.
    """
    cfg = cfg or SolverConfig()
    lambdas, U, V = _splitting(sys, k)
    theta = _slope_at_zero(sys, nl)
    geometry, refusal = _probe(sys, nl, (lambdas, U, V), theta, cfg.seed)
    if not geometry.certified:
        return _geometry_failure(
            sys,
            f"linking geometry not certified at k={k}: " + (refusal or (
                f"alpha_tilde={geometry.alpha_tilde:.6g}, "
                f"boundary_sup={geometry.boundary_sup:.6g}"
            )),
            geometry=geometry,
        )
    if isinstance(nl, AffineLinear):
        raise ValueError(
            "the affine kind has no peak to select (J is unbounded above along the ray); "
            "its critical point is the resolvent solve of solve-linear"
        )

    message = ""
    if k >= 1 and not theta.diverged and not theta.inconclusive:
        lam_k = float(lambdas[k - 1])
        if abs(theta.lower - lam_k) <= 1e-8 * (1.0 + abs(lam_k)):
            message = (
                f"slope at zero touches eigenvalue k={k} (boundary resonance); "
                "search proceeds but the level may be degenerate"
            )
    return _minimax(sys, nl, U, V[:, 0], cfg, geometry.rho_small, message, geometry)
