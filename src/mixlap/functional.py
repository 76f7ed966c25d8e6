"""Nonlinear right-hand sides f(x, t), their primitives, the energy J and
its gradient, and sampled audits of the growth hypotheses.

The energy of a discrete field u is

    J(u) = 0.5 * u^T (K + alpha S) u - int_Omega F(x, u_h(x)) dx,

with the integral evaluated by a fixed 4-point Gauss rule per element on the
piecewise-linear reconstruction u_h.  The gradient uses the same rule, so it
is the exact derivative of the discrete energy, not merely a consistent
approximation of the continuum one, and ``J_hessian`` is its exact second
derivative under the same rule.  ``J_values`` and ``J_gradients`` evaluate
a block of fields, the rows of a (batch, ndof) array, in one pass;
``J_eval`` and ``J_gradient`` are the same code with a batch of one.  The
Gauss-point layout stays inside this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .assembly import OperatorSystem
from .mesh import FeField, MeshInterval

__all__ = [
    "AffineLinear",
    "PowerPerturbed",
    "Custom",
    "GrowthConstants",
    "HypothesisReport",
    "SlopeEstimate",
    "J_eval",
    "J_gradient",
    "J_values",
    "J_gradients",
    "J_hessian",
    "load_vector",
    "weighted_mass",
    "check_hypotheses",
    "asymptotic_slopes",
    "declared",
]

_GQ_X, _GQ_W = leggauss(4)
_GQ_X = 0.5 * (_GQ_X + 1.0)  # reference element [0, 1]
_GQ_W = 0.5 * _GQ_W

CONDITIONS = ("f_lg", "i", "ii", "iii", "envelope", "slopes_infinity", "slopes_zero", "eq_1.8")
SLOPE_TOL = 1e-2  # relative precision of a sampled asymptotic slope
HYPOTHESIS_TOL = 1e-9  # largest relative violation a sampled growth inequality passes with
NEEDS = {  # the declared constants each growth inequality reads, in the order it reads them
    "f_lg": ("a_bound", "b"),
    "ii": ("a_bound", "b", "r"),
    "iii": ("mu", "mu_tilde", "R", "c", "d", "A"),
    "envelope": ("A", "b_upper", "r"),
    "eq_1.8": ("lambda_k",),
}
_MAGS = np.logspace(-6.0, 6.0, 200)
_T_GRID = np.concatenate([-_MAGS[::-1], _MAGS])  # sample values of t, 1e-6 <= |t| <= 1e6


@dataclass(frozen=True)
class GrowthConstants:
    """Declared constants for the growth hypotheses (all optional).

    a_bound, b, r: linear / power growth envelope |f| <= a + b |t|^(r-1)
    mu, mu_tilde, R, c, d, A: superquadratic constants (A is the linear slope
        subtracted before the superquadratic comparison)
    b_upper: envelope 0 <= F - A t^2/2 <= (b_upper / r) |t|^r of the primitive
        past the slope A
    lambda_k: spectral level for the quadratic lower bound on F
    """

    a_bound: Optional[float] = None
    b: Optional[float] = None
    r: Optional[float] = None
    mu: Optional[float] = None
    mu_tilde: Optional[float] = None
    R: Optional[float] = None
    c: Optional[float] = None
    d: Optional[float] = None
    A: Optional[float] = None
    b_upper: Optional[float] = None
    lambda_k: Optional[float] = None


@dataclass(frozen=True)
class AffineLinear:
    """f(x, t) = lam * t + a(x); the asymptotically linear model."""

    lam: float
    a: Callable[[np.ndarray], np.ndarray]
    growth: GrowthConstants = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.growth is None:
            object.__setattr__(
                self, "growth", GrowthConstants(b=abs(self.lam), A=self.lam)
            )

    def f(self, x, t):
        return self.lam * np.asarray(t, dtype=float) + self.a(np.asarray(x, dtype=float))

    def F(self, x, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.lam * t**2 + self.a(np.asarray(x, dtype=float)) * t

    def fprime(self, x, t):
        return np.broadcast_to(self.lam, np.broadcast(np.asarray(x), np.asarray(t)).shape).copy()


def _power_growth_defaults(lam: float, p: float) -> GrowthConstants:
    # F = lam t^2/2 + |t|^p / p >= c |t|^p - d with the largest clean c:
    # for lam >= 0 take c = 1/p, d = 0; otherwise c = 1/(2p) and d the
    # maximum of |lam| t^2/2 - |t|^p/(2p), attained at t = (p|lam|)^(1/(p-2)).
    # F - lam t^2/2 = |t|^p / p is its own envelope: b_upper = 1.
    if lam >= 0:
        c, d = 1.0 / p, 0.0
    else:
        c = 1.0 / (2.0 * p)
        t_star = (2.0 * abs(lam)) ** (1.0 / (p - 2.0))
        d = max(0.0, abs(lam) * t_star**2 / 2.0 - t_star**p / (2.0 * p))
    return GrowthConstants(
        a_bound=abs(lam), b=abs(lam) + 1.0, r=p, mu=p, mu_tilde=p, R=1.0, c=c, d=d, A=lam,
        b_upper=1.0,
    )


@dataclass(frozen=True)
class PowerPerturbed:
    """f(x, t) = lam * t + |t|^(p-2) t; the superlinear model, p > 2."""

    lam: float
    p: float
    growth: GrowthConstants = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.p > 2.0:
            raise ValueError(f"power exponent must satisfy p > 2, got p={self.p}")
        if self.growth is None:
            object.__setattr__(self, "growth", _power_growth_defaults(self.lam, self.p))

    def f(self, x, t):
        t = np.asarray(t, dtype=float)
        return self.lam * t + np.abs(t) ** (self.p - 2.0) * t

    def F(self, x, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * self.lam * t**2 + np.abs(t) ** self.p / self.p

    def fprime(self, x, t):
        t = np.asarray(t, dtype=float)
        return self.lam + (self.p - 1.0) * np.abs(t) ** (self.p - 2.0)


@dataclass(frozen=True)
class Custom:
    """User-supplied pair (f, F); F' = f is spot-checked at construction.

    The energy calls them with Gauss points x of shape (n_elem, 4) and values
    t of shape (batch, n_elem, 4), so they must broadcast like numpy ufuncs.
    """

    f_fn: Callable
    F_fn: Callable
    fprime_fn: Optional[Callable] = None
    growth: GrowthConstants = field(default_factory=GrowthConstants)

    def __post_init__(self):
        ts = np.array([-2.7, -1.0, -0.3, 0.4, 1.1, 3.2])
        xs = np.full_like(ts, 0.37)
        eps = 1e-6
        fd = (self.F_fn(xs, ts + eps) - self.F_fn(xs, ts - eps)) / (2 * eps)
        fv = self.f_fn(xs, ts)
        scale = np.maximum(1.0, np.abs(fv))
        if np.max(np.abs(fd - fv) / scale) > 1e-4:
            raise ValueError("custom primitive check failed: F' does not match f on a sample grid")

    def f(self, x, t):
        return np.asarray(self.f_fn(x, t), dtype=float)

    def F(self, x, t):
        return np.asarray(self.F_fn(x, t), dtype=float)

    def fprime(self, x, t):
        if self.fprime_fn is not None:
            return np.asarray(self.fprime_fn(x, t), dtype=float)
        eps = 1e-6
        return (self.f(x, np.asarray(t) + eps) - self.f(x, np.asarray(t) - eps)) / (2 * eps)


@lru_cache(maxsize=32)
def _quad_points(mesh: MeshInterval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss points per element, their weights, and the two shape values."""
    lefts = mesh.a + mesh.h * np.arange(mesh.n_elem)
    xq = lefts[:, None] + mesh.h * _GQ_X[None, :]  # (n_elem, 4)
    wq = mesh.h * _GQ_W  # (4,)
    shapes = np.stack([1.0 - _GQ_X, _GQ_X])  # (2, 4)
    xq.flags.writeable = False
    wq.flags.writeable = False
    shapes.flags.writeable = False
    return xq, wq, shapes


def _field_at_quad(mesh: MeshInterval, U: np.ndarray) -> np.ndarray:
    """Values of the fields in the rows of U, shape (..., ndof), at the
    Gauss points: shape (..., n_elem, 4)."""
    _, _, shapes = _quad_points(mesh)
    nodal = np.zeros(U.shape[:-1] + (mesh.n_elem + 1,))
    nodal[..., 1:-1] = U
    return nodal[..., :-1, None] * shapes[0] + nodal[..., 1:, None] * shapes[1]


def _scatter_quad(mesh: MeshInterval, vals: np.ndarray) -> np.ndarray:
    """Assemble sum_q w_q vals(x_q) phi_i(x_q) into interior-node entries:
    shape (..., n_elem, 4) to (..., ndof)."""
    _, wq, shapes = _quad_points(mesh)
    per_left = np.sum(vals * (wq * shapes[0]), axis=-1)
    per_right = np.sum(vals * (wq * shapes[1]), axis=-1)
    return per_left[..., 1:] + per_right[..., :-1]


def _apply_rows(mat: np.ndarray, X: np.ndarray) -> np.ndarray:
    """mat @ x for every row x of X in one stacked product.  Each row goes
    through the same BLAS matrix-vector call as a single product, so it is
    bit-identical to ``mat @ x``; a matrix-matrix product would not be."""
    return np.matmul(mat, X[..., None])[..., 0]


def _dot_rows(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x @ y for every pair of rows, bit-identical to the single dot product."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def _block(sys: OperatorSystem, U) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[1] != sys.ndof:
        raise ValueError(
            f"field block has shape {U.shape}, the system needs (batch, {sys.ndof})"
        )
    return U


def J_values(sys: OperatorSystem, nl, U) -> np.ndarray:
    """Energies 0.5 B(u, u) - int F(x, u_h) of the fields in the rows of U,
    shape (batch, ndof); returns shape (batch,)."""
    U = _block(sys, U)
    xq, wq, _ = _quad_points(sys.mesh)
    Fq = nl.F(xq, _field_at_quad(sys.mesh, U))
    if not np.all(np.isfinite(Fq)):
        raise FloatingPointError("non-finite primitive value at a quadrature point")
    quadratic = 0.5 * _dot_rows(U, _apply_rows(sys.A, U))
    return quadratic - np.sum(Fq * wq, axis=(1, 2))


def J_gradients(sys: OperatorSystem, nl, U) -> np.ndarray:
    """Exact gradients (K + alpha S) u - quad(f phi) of the discrete energy at
    the fields in the rows of U, shape (batch, ndof)."""
    U = _block(sys, U)
    xq, _, _ = _quad_points(sys.mesh)
    fq = nl.f(xq, _field_at_quad(sys.mesh, U))
    if not np.all(np.isfinite(fq)):
        raise FloatingPointError("non-finite nonlinearity value at a quadrature point")
    return _apply_rows(sys.A, U) - _scatter_quad(sys.mesh, fq)


def J_eval(sys: OperatorSystem, nl, u: FeField) -> float:
    """Energy 0.5 B(u, u) - int F(x, u_h)."""
    if u.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    return float(J_values(sys, nl, u.coeffs[None, :])[0])


def J_gradient(sys: OperatorSystem, nl, u: FeField) -> FeField:
    """Exact gradient of the discrete energy: (K + alpha S) u - quad(f phi)."""
    if u.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    return FeField(J_gradients(sys, nl, u.coeffs[None, :])[0], sys.mesh)


def J_hessian(sys: OperatorSystem, nl, u: FeField) -> np.ndarray:
    """Exact Hessian of the discrete energy: (K + alpha S) - quad(f'(x, u) phi_i phi_j)."""
    if u.mesh != sys.mesh:
        raise ValueError("field mesh does not match the assembled system")
    diag, off = weighted_mass(sys.mesh, lambda x: nl.fprime(x, _field_at_quad(sys.mesh, u.coeffs)))
    H, n = sys.A.copy(), sys.ndof
    H.flat[:: n + 1] -= diag
    H.flat[1 :: n + 1] -= off
    H.flat[n :: n + 1] -= off
    return H


def load_vector(mesh: MeshInterval, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Quadrature-consistent load: entries int fn(x) phi_i(x) dx."""
    xq, _, _ = _quad_points(mesh)
    return _scatter_quad(mesh, np.asarray(fn(xq), dtype=float) * np.ones_like(xq))


def weighted_mass(mesh: MeshInterval, weight) -> tuple[np.ndarray, np.ndarray]:
    """Band (diagonal, off-diagonal) of the tridiagonal matrix int w(x) phi_i phi_j dx
    under the shared 4-point rule.

    `weight` is a constant or a function of x that broadcasts like a numpy
    ufunc; it is evaluated at the Gauss points.
    """
    xq, wq, shapes = _quad_points(mesh)
    w = weight(xq) if callable(weight) else weight
    w = np.broadcast_to(np.asarray(w, dtype=float), xq.shape) * wq[None, :]
    d_ll = np.sum(w * shapes[0] * shapes[0], axis=1)
    d_lr = np.sum(w * shapes[0] * shapes[1], axis=1)
    d_rr = np.sum(w * shapes[1] * shapes[1], axis=1)
    return d_ll[1:] + d_rr[:-1], d_lr[1:-1]


# ---------------------------------------------------------------------------
# hypothesis audits
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    condition: str
    passed: bool
    worst_violation: float
    witness: tuple[float, float]  # (x, t) of the worst violation
    note: str = ""


@dataclass
class SlopeEstimate:
    lower: float
    upper: float
    diverged: bool = False
    inconclusive: bool = False


def declared(growth: GrowthConstants, names, purpose: str) -> list[float]:
    """The constants ``names`` of ``growth``, in that order; ``ValueError``
    naming every one that was not declared."""
    missing = [name for name in names if getattr(growth, name) is None]
    if missing:
        raise ValueError(f"{purpose} needs declared constants " + ", ".join(map(repr, missing)))
    return [float(getattr(growth, name)) for name in names]


def _worst(violations: np.ndarray, xs: np.ndarray, ts: np.ndarray):
    flat = int(np.argmax(violations))
    i, j = np.unravel_index(flat, violations.shape)
    return float(violations[i, j]), (float(xs[i]), float(ts[j]))


def asymptotic_slopes(nl, mode: str, x_samples: np.ndarray) -> SlopeEstimate:
    """Sampled liminf/limsup of f(x, t) / t for |t| -> infinity or t -> 0,
    over the points `x_samples` of the caller's domain.

    Estimates come from the outermost decade of the sample grid; the
    neighbouring decade is used for a stabilization check to within
    ``SLOPE_TOL``.  Divergence is reported with infinite sentinels and the
    `diverged` flag rather than a large float.
    """
    if mode not in ("at_infinity", "at_zero"):
        raise ValueError(f"mode must be 'at_infinity' or 'at_zero', got {mode!r}")
    lo_m, hi_m = float(_MAGS[0]), float(_MAGS[-1])
    if mode == "at_infinity":
        outer = (hi_m / 10.0, hi_m)
        inner = (hi_m / 100.0, hi_m / 10.0)
    else:
        outer = (lo_m, lo_m * 10.0)
        inner = (lo_m * 10.0, lo_m * 100.0)

    def decade_bounds(band):
        sel = _T_GRID[(np.abs(_T_GRID) >= band[0]) & (np.abs(_T_GRID) <= band[1])]
        ratios = np.array([nl.f(x, sel) / sel for x in x_samples])
        return float(np.min(ratios)), float(np.max(ratios))

    lo_out, hi_out = decade_bounds(outer)
    lo_in, hi_in = decade_bounds(inner)
    mag_out = max(abs(lo_out), abs(hi_out))
    mag_in = max(abs(lo_in), abs(hi_in), 1e-300)
    if mag_out > 2.0 * mag_in and mag_out > 1e3:
        inf = math.inf if hi_out > 0 else -math.inf
        return SlopeEstimate(lower=inf, upper=inf, diverged=True)
    spread = max(abs(lo_out - lo_in), abs(hi_out - hi_in)) / max(1.0, mag_out)
    if spread > SLOPE_TOL:
        return SlopeEstimate(lower=lo_out, upper=hi_out, inconclusive=True)
    return SlopeEstimate(lower=lo_out, upper=hi_out)


def check_hypotheses(
    nl, x_samples: np.ndarray, conditions: Optional[list[str]] = None
) -> list[HypothesisReport]:
    """Sampled audit of the declared growth inequalities at the points
    `x_samples` of the caller's domain.

    Each report gives the worst violation over the (x, t) grid, measured
    relative to the magnitude of the compared terms (the model cases hit the
    inequalities with equality, where absolute residuals are pure round-off);
    a condition passes with a worst violation of at most ``HYPOTHESIS_TOL``.
    The slope conditions require a stable sampled slope; with a declared
    ``A``, ``slopes_zero`` also requires the slope at zero to be A within
    ``SLOPE_TOL``.  These are falsification checks, not proofs.  Requesting a
    condition whose constants were not declared raises ``ValueError``.
    """
    g = nl.growth
    if conditions is None:
        # audit the conditions matching the declared constants: the linear
        # envelope belongs to the asymptotically linear setting (no r), the
        # power envelope and superquadratic conditions to the superlinear one
        if isinstance(nl, AffineLinear) or (g.r is None and g.b is not None):
            conditions = ["f_lg", "slopes_infinity"]
        else:
            conditions = ["i", "slopes_zero"] + [
                cond for cond in ("ii", "iii", "envelope", "eq_1.8")
                if all(getattr(g, name) is not None for name in NEEDS[cond])
            ]
    unknown = set(conditions) - set(CONDITIONS)
    if unknown:
        raise ValueError(f"unknown condition ids: {sorted(unknown)}")
    xs = np.asarray(x_samples, dtype=float)
    X = xs[:, None]
    T = _T_GRID[None, :]
    fv = nl.f(X, T)
    Fv = nl.F(X, T)
    reports = []

    for cond in conditions:
        if cond in ("slopes_infinity", "slopes_zero"):
            est = asymptotic_slopes(nl, "at_infinity" if cond == "slopes_infinity" else "at_zero", xs)
            ok = not (est.diverged or est.inconclusive)
            note = "diverged" if est.diverged else ("inconclusive" if est.inconclusive else "")
            worst = math.inf if est.diverged else (abs(est.upper - est.lower))
            if cond == "slopes_zero" and ok and g.A is not None:
                # f = A t + o(t) at zero: the sampled slope must be the declared A
                off = max(abs(est.lower - g.A), abs(est.upper - g.A)) / max(1.0, abs(g.A))
                worst = max(worst, off)
                if off > SLOPE_TOL:
                    ok, note = False, f"slope at zero is not the declared A={g.A:g}"
            witness = (float(xs[0]), math.inf if est.diverged else 0.0)
            reports.append(HypothesisReport(cond, ok, worst, witness, note))
            continue
        ts, purpose = _T_GRID, f"condition {cond!r}"
        if cond == "f_lg":
            if isinstance(nl, AffineLinear) and g.a_bound is None:
                # the envelope uses the declared a(x) itself, pointwise
                a_b, (b,) = np.abs(nl.a(X)), declared(g, ("b",), purpose)
            else:
                a_b, b = declared(g, NEEDS[cond], purpose)
            env = a_b + b * np.abs(T)
            viol = (np.abs(fv) - env) / np.maximum(1.0, np.abs(env))
        elif cond == "i":
            viol, ts = np.abs(nl.f(X, np.zeros_like(X))), np.zeros(1)
        elif cond == "ii":
            a_b, b, r = declared(g, NEEDS[cond], purpose)
            env = a_b + b * np.abs(T) ** (r - 1.0)
            viol = (np.abs(fv) - env) / np.maximum(1.0, np.abs(env))
        elif cond == "iii":
            mu, mu_t, R, c, d, A = declared(g, NEEDS[cond], purpose)
            core = mu * (Fv - A * T**2 / 2.0)  # must stay strictly positive
            lever = fv * T - A * T**2  # and dominate core
            denom = np.maximum(1.0, np.maximum(np.abs(core), np.abs(lever)))
            viol_ar = np.where(np.abs(T) >= R, np.maximum(-core, core - lever) / denom, -np.inf)
            growth_env = c * np.abs(T) ** mu_t - d
            denom = np.maximum(1.0, np.maximum(np.abs(Fv), np.abs(growth_env)))
            viol = np.maximum(viol_ar, (growth_env - Fv) / denom)
        elif cond == "envelope":
            A, b_up, r = declared(g, NEEDS[cond], purpose)
            excess = Fv - A * T**2 / 2.0  # must lie in [0, (b_upper / r) |t|^r]
            env = b_up / r * np.abs(T) ** r
            viol = np.maximum(-excess, excess - env) / np.maximum(1.0, np.maximum(np.abs(excess), env))
        else:  # eq_1.8
            (lam_k,) = declared(g, NEEDS[cond], purpose)
            floor = lam_k * T**2 / 2.0
            viol = (floor - Fv) / np.maximum(1.0, np.maximum(np.abs(Fv), np.abs(floor)))
        worst, wit = _worst(viol, xs, ts)
        reports.append(HypothesisReport(cond, worst <= HYPOTHESIS_TOL, worst, wit))
    return reports

