"""Generalized eigenproblem (K + alpha S) u = lambda M u and its certificates.

On a uniform mesh K and M are tridiagonal Toeplitz and S is symmetric
Toeplitz, so the orthonormal sine (DST-I) basis makes K and M diagonal in
closed form and splits S into two half-size blocks; ``mixlap.assembly`` owns
that basis (``OperatorSystem.sine``) and its one solver ``SineBasis.eigh``,
for all eigenpairs or the top one; the lowest eigenvalue alone is the least
of the blocks' lowest.  Each block is scaled by the inverse square root of
the diagonal right-hand side, never factorized through the possibly
indefinite energy form.  The eigenvalue oracles in ``mixlap.oracles`` solve
the unsplit nodal pencil, so they stay an independent check.  On top of the
solver sit the certified quantities: the recursive variational
characterization of each eigenvalue, the index of the first positive
eigenvalue, the coercivity shift making the form dominate half the local
energy, and the coupling threshold where the bottom eigenvalue crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import OperatorSystem

__all__ = [
    "Spectrum",
    "ThresholdResult",
    "BoundCheckReport",
    "SpectrumError",
    "DegenerateSpectrumError",
    "solve_pencil",
    "verify_characterization",
    "first_positive_index",
    "bound_checks",
    "garding_constant",
    "alpha_threshold",
]

ZERO_TOL = 1e-10  # |lambda| below this counts as a zero eigenvalue
CLUSTER_TOL = 1e-9
RESIDUAL_TOL = 1e-8  # largest eigenpair residual accepted, relative to the matrix scale
BOUND_TRIALS = 1000  # random fields per side in ``bound_checks``


class SpectrumError(RuntimeError):
    pass


class DegenerateSpectrumError(SpectrumError):
    """A zero eigenvalue makes orthogonality against its eigenvector vacuous."""


@dataclass
class Spectrum:
    """Ordered eigenpairs of the pencil; columns of `vectors` are the
    eigenfields, M-orthonormal and mutually B-orthogonal."""

    lambdas: np.ndarray
    vectors: np.ndarray
    n0: Optional[int]

    @property
    def count(self) -> int:
        return self.lambdas.size


@dataclass
class ThresholdResult:
    alpha_star: float
    bracket: tuple[float, float]
    lambda1_at_star: float
    iterations: int


@dataclass
class BoundCheckReport:
    k: int
    trials: int
    max_violation_upper: float  # span(u_1..u_k) side
    max_violation_lower: float  # orthogonal-complement side

    @property
    def max_violation(self) -> float:
        return max(self.max_violation_upper, self.max_violation_lower)


def _representatives(sys: OperatorSystem, w: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Deterministic representatives of the first m eigenvectors, as a copy.

    Inside each eigenvalue cluster the vectors are re-orthonormalized
    symmetrically in the M inner product, reordered by the index of their
    dominant coefficient, and sign-fixed so the dominant coefficient is
    positive.  A cluster that straddles column m is processed whole, so the
    columns do not depend on m.
    """
    scale = max(1.0, float(np.max(np.abs(w))))
    bounds = np.r_[0, np.flatnonzero(np.diff(w) >= CLUSTER_TOL * scale) + 1, w.size]
    v = v[:, : bounds[np.searchsorted(bounds, m)]].copy()
    for start, end in zip(bounds[:-1], bounds[1:]):
        if start < m and end - start > 1:
            block = v[:, start:end]
            gram = block.T @ sys.apply_M(block)
            evals, evecs = np.linalg.eigh(gram)
            inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
            block = block @ inv_sqrt
            order = np.argsort([int(np.argmax(np.abs(block[:, c]))) for c in range(block.shape[1])])
            v[:, start:end] = block[:, order]
    v = np.ascontiguousarray(v[:, :m])
    for c in range(m):
        lead = int(np.argmax(np.abs(v[:, c])))
        if v[lead, c] < 0:
            v[:, c] = -v[:, c]
    return v


def solve_pencil(sys: OperatorSystem, m: int) -> Spectrum:
    """m algebraically smallest eigenpairs of (K + alpha S, M).

    Raises ``SpectrumError`` when an eigenpair residual exceeds
    ``RESIDUAL_TOL`` relative to the matrix scale.
    """
    n = sys.ndof
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= ndof={n}, got m={m}")
    try:
        w, v = sys.eigenpairs
    except np.linalg.LinAlgError as exc:
        raise SpectrumError("eigensolver failed") from exc
    v = _representatives(sys, w, v, m)
    w = w[:m].copy()

    # A and M are Toeplitz: their largest entries are those of their columns
    scale = float(np.max(np.abs(sys.a_col)) + np.max(np.abs(w)) * np.max(np.abs(sys.m_col)))
    res = sys.A @ v - sys.apply_M(v) * w[None, :]
    worst = float(np.max(np.linalg.norm(res, axis=0)))
    if worst > RESIDUAL_TOL * scale:
        raise SpectrumError(
            f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * scale={scale:.3e}"
        )

    n0: Optional[int] = None
    pos = np.flatnonzero(w > 0.0)
    if pos.size:
        n0 = int(pos[0]) + 1
    return Spectrum(lambdas=w, vectors=v, n0=n0)


def first_positive_index(spec: Spectrum) -> int:
    """Smallest 1-based k with lambda_k > 0 (``spec.n0``)."""
    if spec.n0 is None:
        raise SpectrumError(
            "all computed eigenvalues are nonpositive; increase m to locate the "
            "first positive eigenvalue"
        )
    return spec.n0


def _feasible_basis(sys: OperatorSystem, vectors: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the B-orthogonal complement of the first k-1
    eigenfields; rank-deficient constraints signal a zero eigenvalue."""
    n = sys.ndof
    if k == 1:
        return np.eye(n)
    C = sys.A @ vectors[:, : k - 1]  # constraint rows: (A u_j)^T u = 0
    sv = np.linalg.svd(C, compute_uv=False)
    scale = max(1.0, float(np.max(np.abs(sys.a_col))))
    if np.min(sv) < 1e-12 * scale:
        raise DegenerateSpectrumError(
            "constraint projection is rank deficient: some eigenvalue is zero, so "
            "B-orthogonality against its eigenfield is vacuous"
        )
    q, _ = np.linalg.qr(C, mode="complete")
    return q[:, k - 1 :]


def verify_characterization(
    spec: Spectrum,
    sys: OperatorSystem,
    k: int,
    trials: int = 8,
    seed: int = 0,
) -> float:
    """|min constrained Rayleigh quotient - lambda_k|.

    The minimum of u^T A u / u^T M u over the B-orthogonal complement of the
    first k-1 eigenfields is computed twice: by a projected eigensolve and by
    ``oracles.rayleigh_min_oracle``, `trials` runs of constrained descent from
    random starts.  The smaller of the two is compared against the pencil
    eigenvalue.

    Raises ``DegenerateSpectrumError`` if one of the first k-1 eigenvalues
    vanishes (the recursion is not meaningful past a zero eigenvalue).
    """
    from scipy import linalg  # only the audit needs these: keep the CLI import light
    from .oracles import rayleigh_min_oracle

    if not 1 <= k <= spec.count:
        raise ValueError(f"k={k} outside the computed range 1..{spec.count}")
    if k > 1 and np.any(np.abs(spec.lambdas[: k - 1]) < ZERO_TOL):
        raise DegenerateSpectrumError(
            f"zero eigenvalue among the first {k - 1}; skipping the recursive "
            "characterization past it"
        )
    Z = _feasible_basis(sys, spec.vectors, k)
    Ar = Z.T @ sys.A @ Z
    Mr = Z.T @ sys.apply_M(Z)
    w = linalg.eigh(Ar, Mr, eigvals_only=True, subset_by_index=[0, 0])
    best = min(float(w[0]), rayleigh_min_oracle(Ar, Mr, trials, seed))
    return abs(best - float(spec.lambdas[k - 1]))


def bound_checks(spec: Spectrum, sys: OperatorSystem, k: int, seed: int = 0) -> BoundCheckReport:
    """Randomized audit of the two-sided Rayleigh bounds on ``BOUND_TRIALS``
    random fields per side.

    For u in the span of the first k eigenfields, B(u,u) <= lambda_k |u|_M^2;
    for u spanned by the remaining computed eigenfields (a subset of the
    B-orthogonal complement), B(u,u) >= lambda_{k+1} |u|_M^2.  Needs
    1 <= k < spec.count: at k = 0 there is no upper side and no lambda_k
    (``_violation`` checks the lower side alone).
    """
    if not 1 <= k < spec.count:
        raise ValueError(f"need 1 <= k < computed count {spec.count}, got k={k}")
    rng = np.random.default_rng(seed)
    up = _violation(sys, spec.vectors[:, :k], spec.lambdas[k - 1], rng)
    low = _violation(sys, spec.vectors[:, k:], spec.lambdas[k], rng, sign=-1.0)
    return BoundCheckReport(
        k=k, trials=BOUND_TRIALS, max_violation_upper=up, max_violation_lower=low
    )


def _violation(
    sys: OperatorSystem, V: np.ndarray, lam: float, rng: np.random.Generator, sign: float = 1.0
) -> float:
    """Largest sign * (B(u,u) - lam |u|_M^2), floored at 0, over ``BOUND_TRIALS``
    random fields u spanned by the columns of V, drawn from ``rng``."""
    U = V @ rng.standard_normal((BOUND_TRIALS, V.shape[1])).T
    excess = np.einsum("ij,ij->j", U, sys.A @ U - lam * sys.apply_M(U))
    return max(0.0, float(np.max(sign * excess)))


def garding_constant(sys: OperatorSystem) -> float:
    """Smallest gamma >= 0 with B(u,u) + gamma |u|_M^2 >= 0.5 |u|_K^2 for all
    discrete u.  K + alpha S - K/2 is half of K + 2 alpha S, so
    gamma = max(0, -lambda_1(2 alpha) / 2)."""
    try:
        lam = _lambda1(sys, 2.0 * sys.alpha)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError("eigensolver failed while computing the coercivity shift") from exc
    return max(0.0, -0.5 * lam)


def _lambda1(sys: OperatorSystem, alpha: float) -> float:
    """Lowest eigenvalue of (K + alpha S, M) over both sine blocks, whatever ``sys.alpha`` is."""
    blocks = (sys.sine.reduced(b, 1.0, alpha, 0.0, 1.0)[0] for b in range(min(sys.ndof, 2)))
    return float(min(np.linalg.eigvalsh(C)[0] for C in blocks))


def alpha_threshold(
    sys: OperatorSystem, bracket: tuple[float, float], tol: float = 1e-6
) -> ThresholdResult:
    """Coupling value where the bottom eigenvalue crosses zero.

    K + alpha S is singular exactly when -1/alpha is an eigenvalue of the
    pencil (S, K); lambda_1(alpha) is nondecreasing in alpha, so it first
    reaches zero at alpha* = -1/mu with mu the top eigenvalue of (S, K).  One
    further eigensolve of (K + alpha* S, M) certifies |lambda_1(alpha*)| <= tol.
    The bracket must satisfy lo < alpha* < hi, that is lambda_1(lo) < 0 <
    lambda_1(hi).  Only the system's K, S and M are used, not its coupling.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if lo >= hi:
        raise ValueError(f"invalid bracket: need lo < hi, got {bracket}")
    from .analysis import embedding_constant  # analysis builds on this module
    mu = embedding_constant(sys).value  # the top eigenvalue of (S, K)
    alpha_star = -1.0 / mu
    if not lo < alpha_star < hi:
        raise ValueError(
            f"bracket ({lo}, {hi}) misses the crossing lambda1(alpha*) = 0 at "
            f"alpha* = {alpha_star:.9g}"
        )
    lambda1_at_star = _lambda1(sys, alpha_star)
    if abs(lambda1_at_star) > tol:
        raise SpectrumError(f"|lambda1(alpha*)| = {abs(lambda1_at_star):.3e} exceeds {tol}")
    return ThresholdResult(
        alpha_star=alpha_star, bracket=(lo, hi), lambda1_at_star=lambda1_at_star, iterations=0
    )
