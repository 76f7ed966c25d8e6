"""Certified critical-point searches for the semilinear problem.

Solvers produce a ``CriticalPointReport`` carrying the dual norm, in the
K^{-1} inner product, of the discrete energy gradient
phi -> B(u, phi) - int f(x, u) phi.  A report claims convergence only when
that norm is below tolerance, the iterate is nontrivial, and the energy
level matches the geometry that produced it.  The linking search, its
geometry probe and the coercivity gap work in the spectral splitting at
level k, span(u_1..u_k) and its M-orthogonal complement, which
``_splitting`` computes for all three; a linking search computes it once and
hands it to its probe.  At k = 0 the complement is the whole space: the probe
and the gap read it from the sine basis, and only u_1 and u_2 are lifted.
The probe certifies the superlinear geometry by closed-form inequalities
(Rabinowitz, CBMS 65, 1986, proof of Thm 5.3) in
the nonlinearity's declared growth constants, and the affine kind's saddle
geometry (Thm 4.6 there) by its exact infimum and a closed-form sphere
bound; neither draws a random number, and ``mixlap.oracles`` keeps the
sampled descent as the independent check of the first.

Search strategies:

* asymptotically linear model: eigenpair resolvent solve with a resonance guard;
* superlinear model, every level k: one peak-selection minimax engine
  (Li & Zhou, SIAM J. Sci. Comput. 23, 2001).  For a ray direction v in the
  complement of span(u_1..u_k), the peak maximizes J over span(u_1..u_k, v);
  the engine descends v along the Riesz gradient of J at the peak, with one
  early-Newton gate: Newton refinement and the certificate are tried once
  the gradient norm has dropped to a fixed fraction of its first value, and
  the gate is quartered whenever they fail.  The mountain pass is the k = 0
  case; every level starts from u_{k+1} once the probe certifies its geometry.
  Each peak is found by Newton on the k + 1 coefficients of the span, with
  the reduced gradient W^T J'(W c) and Hessian W^T J''(W c) W, falling back
  to the reduced gradient where that Hessian is not negative definite; one
  ``J_values`` block ranks the backtracking steps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .assembly import OperatorSystem, _dst
from .functional import (
    NEEDS,
    AffineLinear,
    J_eval,
    J_gradient,
    J_hessian,
    J_values,
    _apply_rows,
    asymptotic_slopes,
    declared,
    load_vector,
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
    "verify_geometry",
    "coercivity_gap",
    "linking_search",
]


class ResonanceError(RuntimeError):
    """The requested linear level sits on (or too close to) an eigenvalue."""


# peak-selection minimax
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
# the growth constants the linking bound reads: the envelope past the slope A
# and the power lower bound F >= c |t|^mu_tilde - d of condition (iii)
LINKING_CONSTANTS = NEEDS["envelope"] + ("c", "d", "mu_tilde")


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 600


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
    geometry: Optional[LinkingGeometryReport] = None  # the probe that gated a minimax search

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
    """A refused probe leaves NaN in what it did not compute."""

    k: int
    mode: str  # linking | saddle
    certified: bool = False
    rho_small: float = math.nan
    alpha_tilde: float = math.nan
    rho_big: float = math.nan
    boundary_sup: float = math.nan

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
    pairs = sys.eigenpairs
    eigs = pairs.values
    gaps = np.abs(eigs - lam)
    k_near = int(np.argmin(gaps))
    if gaps[k_near] < 1e-8 * (1.0 + abs(lam)):
        raise ResonanceError(
            f"lambda={lam!r} is within tolerance of eigenvalue k={k_near + 1} "
            f"(lambda_k={eigs[k_near]!r}); the linear problem is resonant"
        )
    V = pairs.vectors(sys.ndof)  # M-orthonormal, so (A - lam M)^-1 = V diag(1 / (eigs - lam)) V^T
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
    sys: OperatorSystem, message: str, geometry: LinkingGeometryReport,
    status: str = "geometry_violation", hist=(),
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
    sys: OperatorSystem, nl, c: np.ndarray, cfg: SolverConfig, hist: list, status: str,
    message: str, geometry: LinkingGeometryReport,
) -> CriticalPointReport:
    """Newton-refine the descent iterate c and certify the result: gradient
    norm <= tol, X norm >= 1e-4 * ``geometry.rho_small`` and J > 0;
    otherwise the report keeps the descent's status."""
    refined = newton_refine(sys, nl, FeField(c, sys.mesh), cfg)
    classification = _classify(sys, refined.u.coeffs, 1e-4 * geometry.rho_small)
    converged = refined.grad_norm <= cfg.tol and classification == "nontrivial" and refined.J_value > 0.0
    return replace(
        refined, classification=classification, iterations=len(hist) + refined.iterations,
        converged=converged, status="converged" if converged else status, message=message,
        path_history=hist, geometry=geometry,
    )


# ---------------------------------------------------------------------------
# spectral splitting, linking geometry probe and coercivity gap
# ---------------------------------------------------------------------------


def _splitting(sys: OperatorSystem, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spectral splitting at level k: the pencil eigenvalues, the first k
    eigenfields U and the remaining ones V, as columns.  At k = 0, where its
    consumers read the complement from the sine basis, only the first
    min(ndof, 2) pairs are lifted: V holds u_1 and u_2."""
    if not 0 <= k < sys.ndof:
        raise ValueError(f"splitting level k={k} is outside 0..{sys.ndof - 1}")
    full = solve_pencil(sys, m=sys.ndof if k else min(sys.ndof, 2))
    if np.any(np.abs(full.lambdas[:k]) < ZERO_TOL):
        raise DegenerateSpectrumError(
            "a zero eigenvalue among the first k makes the splitting degenerate"
        )
    return full.lambdas, full.vectors[:, :k], full.vectors[:, k:]


def verify_geometry(sys: OperatorSystem, nl, k: int) -> LinkingGeometryReport:
    """Certify the minimax geometry around the spectral splitting at level k.

    Superlinear kinds: closed-form inequalities (``_linking_bound``) give a
    lower bound on J over the X-sphere of each radius in the complement V of
    the first k eigenfields, maximized over the radius (``alpha_tilde`` at
    ``rho_small``), and a half-cylinder radius ``rho_big`` past which J <= 0
    on the boundary of the half-cylinder spanned by the first k eigenfields
    and the (k+1)-st direction.  They read the nonlinearity's declared
    ``LINKING_CONSTANTS``; a kind that lacks any of them raises
    ``ValueError`` naming the missing ones.  Affine kind: the exact infimum
    over the complement (a convex quadratic) against a closed-form bound on
    J over the X-sphere of radius ``rho_big`` in the span of the first k
    eigenfields.  Neither kind draws a random number.
    A geometry that fails is reported, not raised.  Refused without a
    bound, with NaN for what was not computed: the affine kind when its
    slope is not below lambda_{k+1}, where J is unbounded below on the
    complement (alpha_tilde is -inf), or not above lambda_k, where the
    quadratic part does not fall on the span; and a superlinear kind whose
    sampled slope at zero is unreliable or outside (lambda_k, lambda_{k+1}),
    lambda_0 = -inf, or whose declared slope A is not below lambda_{k+1}.
    Raises ``ValueError`` for k outside 0..ndof-1, and for the affine kind
    at k = 0, whose sphere would lie in an empty span.
    """
    return _probe(sys, nl, _splitting(sys, k), _slope_at_zero(sys, nl))[0]


def _linking_constants(nl) -> list[float]:
    """The nonlinearity's declared ``LINKING_CONSTANTS``, in that order."""
    A, b, r, c, d, mu = declared(nl.growth, LINKING_CONSTANTS, "the linking geometry bound")
    if not (r > 2.0 and mu > 2.0 and b > 0.0 and c > 0.0 and d >= 0.0):
        raise ValueError(
            "the linking geometry bound needs r > 2, mu_tilde > 2, b_upper > 0, c > 0 and d >= 0"
        )
    return [A, b, r, c, d, mu]


def _linking_bound(sys: OperatorSystem, nl, split: tuple) -> tuple[float, float, float, float]:
    """(g, c_r, r, rho_big) of the certified linking bound at the splitting's level k.

    The sphere side: for u in the complement V with X norm rho,
    J(u) >= g rho^2 / 2 - c_r rho^r.  On V, B - A M is at least g K
    (``coercivity_gap`` at the declared slope A); F - A t^2/2 <= (b/r) |t|^r
    at the Gauss points, whose rule integrates u_h^2 exactly, so the
    integral is at most (b/r) ||u||_inf^(r-2) ||u||_M^2; ||u||_inf <=
    (sqrt(L)/2) rho for H^1_0 on an interval of length L; and
    ||u||_M^2 <= rho^2 / nu with nu the lowest eigenvalue of V^T K V, which
    at k = 0 is that of the pencil (K, M), min(D_K / D_M) in the sine basis.

    The boundary side: on span(u_1..u_{k+1}), J(u) <= lambda_{k+1} m^2/2 -
    c L^(1 - mu/2) m^mu + d L in m = ||u||_M, by F >= c |t|^mu - d and
    Hoelder's inequality on the Gauss rule, whose weights sum to L.  That is
    <= 0 once half the power term beats each of the other two, at m >= m0.
    Every field on the side and top faces of the half-cylinder of X radius
    R has m >= R / sqrt(kappa), kappa the largest eigenvalue of
    W^T K W on W = [u_1..u_{k+1}], so ``rho_big`` = m0 sqrt(kappa).  The
    bottom face is a ball in span(u_1..u_k), where J(u) <= (lambda_k - A)
    ||u||_M^2 / 2 <= 0 because F - A t^2/2 >= 0.
    """
    lambdas, U, V = split
    k = U.shape[1]
    A, b, r, c, d, mu = _linking_constants(nl)
    length = sys.mesh.b - sys.mesh.a
    g = coercivity_gap(sys, A, k, split)
    if k == 0:  # K and M are diagonal in the sine basis
        nu = float(np.min(sys.sine.k / sys.sine.m))
    else:
        nu = float(np.linalg.eigvalsh(V.T @ sys.apply_K(V))[0])
    c_r = b * (math.sqrt(length) / 2.0) ** (r - 2.0) / (r * nu)
    W = np.column_stack([U, V[:, 0]])
    kappa = float(np.linalg.eigvalsh(W.T @ sys.apply_K(W))[-1])
    q = c * length ** (1.0 - mu / 2.0)
    m0 = max((max(float(lambdas[k]), 0.0) / q) ** (1.0 / (mu - 2.0)), (2.0 * d * length / q) ** (1.0 / mu))
    return g, c_r, r, m0 * math.sqrt(kappa)


def _probe(
    sys: OperatorSystem, nl, split: tuple, theta
) -> tuple[LinkingGeometryReport, str, tuple | None]:
    """``verify_geometry`` on a splitting and a slope estimate at zero that
    the caller computed, with the reason for a refusal ("" otherwise) and
    the superlinear kind's ``_linking_bound`` (None where it was not computed)."""
    lambdas, U, V = split
    k = U.shape[1]
    if isinstance(nl, AffineLinear) and k == 0:
        raise ValueError("the saddle geometry of the affine kind needs k >= 1")

    if isinstance(nl, AffineLinear):
        lam = nl.lam
        if not lam < lambdas[k]:
            return LinkingGeometryReport(k, "saddle", alpha_tilde=-math.inf), (
                f"slope {lam:.6g} is not below lambda_{k + 1} = {lambdas[k]:.6g}: "
                "J is unbounded below on the complement"
            ), None
        if not lam > lambdas[k - 1]:
            return LinkingGeometryReport(k, "saddle"), (
                f"slope {lam:.6g} is not above lambda_{k} = {lambdas[k - 1]:.6g}: "
                "J does not fall on the span of the first eigenfields"
            ), None
        # V diagonalizes the quadratic part: V^T (A - lam M) V = diag(lambda_j - lam)
        ell = load_vector(sys.mesh, nl.a)
        w_min = V @ ((V.T @ ell) / (lambdas[k:] - lam))
        alpha_tilde = float(J_eval(sys, nl, FeField(w_min, sys.mesh)))
        rho_small = _x_norm(sys, w_min)
        # The Gauss rule integrates u_h^2 exactly, so on span(U) J(U c) =
        # sum (lambda_j - lam) c_j^2 / 2 - (U^T ell) . c <= phi(m) = -g m^2/2 + b m
        # in m = |c| = ||u||_M, with g = lam - lambda_k and b = |U^T ell|.  On the
        # X-sphere of radius T, m >= T / sqrt(kappa), kappa the top eigenvalue of
        # U^T K U.  At T = rho_big, m >= 2 r for the larger root r of phi =
        # alpha_tilde, which is past b / g where phi falls (alpha_tilde <= J(0) = 0).
        g, b = float(lam - lambdas[k - 1]), float(np.linalg.norm(U.T @ ell))
        root_kappa = math.sqrt(float(np.linalg.eigvalsh(U.T @ sys.apply_K(U))[-1]))
        r = (b + math.sqrt(b * b - 2.0 * g * alpha_tilde)) / g
        rho_big = max(1.0, 2.0 * rho_small, 2.0 * root_kappa * r)
        m = rho_big / root_kappa
        boundary_sup = -0.5 * g * m * m + b * m
        return LinkingGeometryReport(
            k, "saddle", certified=boundary_sup < alpha_tilde, rho_small=rho_small,
            alpha_tilde=alpha_tilde, rho_big=rho_big, boundary_sup=boundary_sup,
        ), "", None

    A = _linking_constants(nl)[0]
    refusal = ""
    if theta.diverged or theta.inconclusive:
        refusal = "slope estimate at zero is unreliable: " + ("diverged" if theta.diverged else "inconclusive")
    elif k >= 1 and not lambdas[k - 1] < theta.lower:
        refusal = (
            f"slope at zero [{theta.lower:.6g}, {theta.upper:.6g}] is not above "
            f"lambda_{k} = {lambdas[k - 1]:.6g}"
        )
    elif not theta.upper < lambdas[k]:
        refusal = f"slope at zero {theta.upper:.6g} is not below lambda_{k + 1} = {lambdas[k]:.6g}"
    if refusal:
        return LinkingGeometryReport(k, "linking"), refusal, None
    bound = g, c_r, r, rho_big = _linking_bound(sys, nl, split)
    if not g > 0.0:
        return LinkingGeometryReport(k, "linking"), (
            f"declared slope A = {A:.6g} is not below lambda_{k + 1} = {lambdas[k]:.6g}: "
            f"the coercivity gap on the complement is {g:.6g}"
        ), bound
    # g rho^2/2 - c_r rho^r peaks at g = r c_r rho^(r-2), where it is g rho^2 (1/2 - 1/r)
    rho_small = (g / (r * c_r)) ** (1.0 / (r - 2.0))
    alpha_tilde = g * rho_small**2 * (0.5 - 1.0 / r)
    # J(0) = 0, the bottom face is <= 0 when lambda_k <= A, the side and top faces past rho_big
    boundary_sup = 0.0 if k == 0 or lambdas[k - 1] <= A else math.inf
    return LinkingGeometryReport(
        k, "linking", certified=alpha_tilde > 0.0 >= boundary_sup, rho_small=rho_small,
        alpha_tilde=alpha_tilde, boundary_sup=boundary_sup,
        rho_big=max(rho_big, 2.0 * rho_small),  # the sphere and the boundary link when rho_small < rho_big
    ), "", bound


def coercivity_gap(sys: OperatorSystem, theta_bar: float, k: int, split: tuple | None = None) -> float:
    """Smallest value of (B(u,u) - theta_bar |u|_L2^2) / |u|_X^2 over the
    complement V of the first k eigenfields.  At k = 0, V is the whole space:
    the lowest eigenvalue of the pencil (K + alpha S - theta_bar M, K), one
    ``SineBasis.lowest``.  At k >= 1, the lowest eigenvalue of the projected
    pencil (diag(lambda_j - theta_bar), V^T K V) in the M-orthonormal
    eigenbasis, by one Cholesky of V^T K V and one symmetric eigensolve.
    ``split`` is the splitting at level k when the caller has computed it."""
    if k == 0:
        return float(sys.sine.lowest(1, 1.0, sys.alpha, -float(theta_bar), 1.0, 0.0, vectors=False).values[0])
    lambdas, _, V = split if split is not None else _splitting(sys, k)
    Ar = np.diag(lambdas[k:] - float(theta_bar))
    L_inv = np.linalg.inv(np.linalg.cholesky(V.T @ sys.apply_K(V)))
    return float(np.linalg.eigvalsh(L_inv @ Ar @ L_inv.T)[0])


# ---------------------------------------------------------------------------
# peak-selection minimax at every level k, the mountain pass at k = 0
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
    sys: OperatorSystem, nl, U: np.ndarray, v: np.ndarray, cfg: SolverConfig,
    geometry: LinkingGeometryReport, message: str = "",
) -> CriticalPointReport:
    """Peak-selection minimax over span(U, v): the columns of U are the
    first k eigenfields and v, M-orthogonal to them, starts the ray, and
    ``geometry`` is the certified probe that every report carries.

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
                sys, "peak iterate exceeded the boundedness guard", geometry, "blowup", hist
            )
        if it == 0:
            gate = NEWTON_GATE_FACTOR * gn
        if gn <= 10.0 * cfg.tol or gn <= gate:
            # the peak looks localized: try to certify it right away
            rep = _certify(sys, nl, p, cfg, hist, "not_certified", message, geometry)
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
    return _certify(sys, nl, W @ c, cfg, hist, status, message, geometry)


def linking_search(
    sys: OperatorSystem, nl, k: int, cfg: SolverConfig | None = None
) -> CriticalPointReport:
    """Minimax search over deformations of the spectral half-cylinder; at
    k = 0, the mountain pass (Rabinowitz, CBMS 65, 1986, Thm 5.3 at k = 0).

    Requires the geometry probe to certify the linking (or saddle) structure
    first; every report carries that probe as ``geometry``, a closed-form
    bound that draws nothing.  ``_minimax`` then runs with the first k
    eigenfields fixed from the ray of u_{k+1}: at k = 0 each peak is the
    maximum of J along one ray, the top of the path from 0 through it.
    Raises ``ValueError`` for the affine kind, whose saddle geometry needs
    k >= 1 and, once certified, leaves no peak to select: J is unbounded
    above along the ray, and its saddle point is the resolvent solve.  Every
    peak over span(U) + R+ w meets the sphere of radius ``rho_small`` in V,
    where the certified bound gives J >= ``alpha_tilde``; a level below
    ``alpha_tilde`` contradicts the declared growth constants, and the
    search is then reported as not converged (status ``below_linking_bound``).
    """
    cfg = cfg or SolverConfig()
    lambdas, U, V = split = _splitting(sys, k)
    theta = _slope_at_zero(sys, nl)
    geometry, refusal, _ = _probe(sys, nl, split, theta)
    if not geometry.certified:
        return _geometry_failure(
            sys,
            f"linking geometry not certified at k={k}: " + (refusal or (
                f"alpha_tilde={geometry.alpha_tilde:.6g}, "
                f"boundary_sup={geometry.boundary_sup:.6g}"
            )),
            geometry,
        )
    if isinstance(nl, AffineLinear):
        raise ValueError(
            "the affine kind has no peak to select (J is unbounded above along the ray); "
            "its critical point is the resolvent solve of solve-linear"
        )

    message = ""
    if k >= 1 and abs(theta.lower - lambdas[k - 1]) <= 1e-8 * (1.0 + abs(lambdas[k - 1])):
        message = (
            f"slope at zero touches eigenvalue k={k} (boundary resonance); "
            "search proceeds but the level may be degenerate"
        )
    rep = _minimax(sys, nl, U, V[:, 0], cfg, geometry, message)
    if rep.converged and rep.J_value < geometry.alpha_tilde:
        return replace(rep, converged=False, status="below_linking_bound", message=(
            f"critical level J={rep.J_value:.6g} lies below the certified linking bound "
            f"alpha_tilde={geometry.alpha_tilde:.6g}: the declared growth constants do not hold"
        ))
    return rep
