"""Discrete embedding and interpolation constants, and the constructive
coercivity audit built from them.

The embedding constant is the sharp discrete bound [u]_s^2 <= C |u|_X^2,
an extreme eigenvalue of the pencil (S, K).  The interpolation constant is
the sharp discrete bound

    [u]_s^2 <= C |u|_L2^(2(1-s)) |u|_H1^(2s),    |u|_H1^2 = u^T (K + M) u,

a nonconvex scale-free maximization handled by seeded multistart projected
ascent; the result is an estimate, never a proof.  The audit module derives
the split constants that turn the interpolation bound into a coercivity
shift and compares the constructive shift against the eigenvalue-sharp one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy import linalg

from .assembly import OperatorSystem
from .mesh import FeField
from .spectrum import garding_constant

__all__ = [
    "ConstantEstimate",
    "YoungSplitReport",
    "embedding_constant",
    "interpolation_constant",
    "young_split_audit",
]

SPLIT_SLACK = 1e-10  # round-off allowance in the audited split inequalities


@dataclass
class ConstantEstimate:
    value: float
    maximizer: FeField
    method: str  # eigen | multistart-ascent
    residual: float
    inconclusive: bool = False


@dataclass
class YoungSplitReport:
    epsilons: list
    c1: float
    c2_at_choice: float
    gamma_split: float
    gamma_exact: float
    violations: int
    trials: int
    consistent_within_factor: Optional[float]

    @property
    def certified(self) -> bool:
        return self.violations == 0 and self.gamma_split >= self.gamma_exact * (1.0 - 1e-10)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["epsilons"]
        out["certified"] = self.certified
        return out


def embedding_constant(sys: OperatorSystem) -> ConstantEstimate:
    """Sharp discrete constant of [u]_s^2 <= C |u|_X^2: the top eigenvalue of
    (S, K).  Nondecreasing under refinement (nested subspaces)."""
    n = sys.ndof
    w, v = linalg.eigh(sys.S, sys.K, subset_by_index=[n - 1, n - 1])
    value = float(w[0])
    vec = v[:, 0]
    lead = int(np.argmax(np.abs(vec)))
    if vec[lead] < 0:
        vec = -vec
    achieved = float(vec @ sys.S @ vec) / float(vec @ sys.K @ vec)
    return ConstantEstimate(
        value=value,
        maximizer=FeField(vec, sys.mesh),
        method="eigen",
        residual=abs(value - achieved),
    )


def _interp_ratio(sys: OperatorSystem, c: np.ndarray) -> float:
    qs = float(c @ sys.S @ c)
    qm = float(c @ sys.M @ c)
    qh = float(c @ (sys.K + sys.M) @ c)
    return qs / (qm ** (1.0 - sys.s) * qh**sys.s)


def interpolation_constant(sys: OperatorSystem, seed: int = 0) -> ConstantEstimate:
    """Estimate the sharp discrete interpolation constant by multistart
    projected gradient ascent of the scale-free quotient.

    Iterates are renormalized in the mass inner product; ascent follows the
    gradient of log R with backtracking, at most 400 steps per start.  Starts
    include 64 random fields and the extreme eigenfields of the (S, K) and
    (S, M) pencils.  If no start improves on its value by more than 1e-12
    relative, the result is flagged inconclusive.
    """
    rng = np.random.default_rng(seed)
    n = sys.ndof
    s = sys.s
    H = sys.K + sys.M

    starts = [rng.standard_normal(n) for _ in range(64)]
    for pencil in ((sys.S, sys.K), (sys.S, sys.M)):
        w, v = linalg.eigh(*pencil)
        starts.append(v[:, -1])
    # every stationary point of the quotient solves S u = a M u + b H u for
    # self-consistent (a, b): sweep the pencil family and iterate to a fixed
    # point, which reliably reaches the global ridge the random starts miss
    for theta in np.logspace(-6.0, 6.0, 13):
        c = linalg.eigh(sys.S, sys.M + theta * H)[1][:, -1]
        for _ in range(60):
            qs = float(c @ sys.S @ c)
            qm = float(c @ sys.M @ c)
            qh = float(c @ H @ c)
            a = (1.0 - s) * qs / qm
            b = s * qs / qh
            c_new = linalg.eigh(sys.S, a * sys.M + b * H)[1][:, -1]
            if abs(_interp_ratio(sys, c_new) - _interp_ratio(sys, c)) < 1e-14 * max(
                1.0, _interp_ratio(sys, c)
            ):
                c = c_new
                break
            c = c_new
        starts.append(c)

    best_val = -math.inf
    best_c = starts[0]
    any_improved = False
    for c in starts:
        c = c / math.sqrt(float(c @ sys.M @ c))
        val = _interp_ratio(sys, c)
        val0 = val
        for _ in range(400):
            qs = float(c @ sys.S @ c)
            qm = float(c @ sys.M @ c)
            qh = float(c @ H @ c)
            # gradient of log R
            g = 2.0 * (sys.S @ c) / qs - 2.0 * (1.0 - s) * (sys.M @ c) / qm - 2.0 * s * (H @ c) / qh
            gn = np.linalg.norm(g)
            if gn < 1e-13:
                break
            step = 1.0 / max(1.0, gn)
            improved = False
            while step > 1e-15:
                c_try = c + step * g
                c_try /= math.sqrt(float(c_try @ sys.M @ c_try))
                val_try = _interp_ratio(sys, c_try)
                if val_try > val * (1.0 + 1e-15) or val_try > val + 1e-15:
                    c, val = c_try, val_try
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val > val0 + 1e-12 * max(1.0, abs(val0)):
            any_improved = True
        if val > best_val:
            best_val, best_c = val, c

    # stationarity residual of the scale-free quotient at the winner
    qs = float(best_c @ sys.S @ best_c)
    qm = float(best_c @ sys.M @ best_c)
    qh = float(best_c @ H @ best_c)
    g = 2.0 * (sys.S @ best_c) / qs - 2.0 * (1.0 - s) * (sys.M @ best_c) / qm - 2.0 * s * (H @ best_c) / qh
    lead = int(np.argmax(np.abs(best_c)))
    if best_c[lead] < 0:
        best_c = -best_c
    return ConstantEstimate(
        value=best_val,
        maximizer=FeField(best_c, sys.mesh),
        method="multistart-ascent",
        residual=float(np.linalg.norm(g)),
        inconclusive=not any_improved,
    )


def young_split_audit(
    sys: OperatorSystem,
    n_random: int = 1000,
    seed: int = 0,
    interp: Optional[ConstantEstimate] = None,
) -> YoungSplitReport:
    """Derive split constants from the interpolation bound and audit them.

    For each epsilon, Young's inequality with exponents 1/s and 1/(1-s) gives

        A^(1-s) B^s <= (1-s) eps^(-s/(1-s)) A + s eps B,

    applied to A = |u|_L2^2 and B = |u|_H1^2; expanding B and scaling by
    |alpha| C yields c1 = C s and c2(eps) = C ((1-s) eps^(-s/(1-s)) + s eps).
    The choice eps = 1 / (2 c1 |alpha|) turns the split into the coercivity
    bound with the constructive shift gamma_split = |alpha| c2(eps), which is
    checked on random fields and compared against the eigenvalue-sharp shift.
    The split itself is checked at that choice of eps and at 1/8 and 8 times it.
    """
    alpha = sys.alpha
    gamma_exact = garding_constant(sys)
    if alpha >= 0.0:
        return YoungSplitReport(
            epsilons=[],
            c1=0.0,
            c2_at_choice=0.0,
            gamma_split=0.0,
            gamma_exact=gamma_exact,
            violations=0,
            trials=0,
            consistent_within_factor=None,
        )
    interp = interp or interpolation_constant(sys, seed=seed)
    C = interp.value
    s = sys.s
    c1 = C * s
    eps_star = 1.0 / (2.0 * c1 * abs(alpha))
    epsilons = [eps_star / 8.0, eps_star, 8.0 * eps_star]

    rng = np.random.default_rng(seed)
    n = sys.ndof
    H = sys.K + sys.M
    violations = 0
    trials = 0
    for eps in epsilons:
        c2 = C * ((1.0 - s) * eps ** (-s / (1.0 - s)) + s * eps)
        for _ in range(n_random):
            u = rng.standard_normal(n)
            qs = float(u @ sys.S @ u)
            qk = float(u @ sys.K @ u)
            qm = float(u @ sys.M @ u)
            lhs = abs(alpha) * qs
            rhs = abs(alpha) * c1 * eps * qk + abs(alpha) * c2 * qm
            trials += 1
            if lhs > rhs * (1.0 + SPLIT_SLACK) + SPLIT_SLACK:
                violations += 1

    c2_star = C * ((1.0 - s) * eps_star ** (-s / (1.0 - s)) + s * eps_star)
    gamma_split = abs(alpha) * c2_star
    # the constructive split must certify the same coercivity bound
    for _ in range(n_random):
        u = rng.standard_normal(n)
        qk = float(u @ sys.K @ u)
        qm = float(u @ sys.M @ u)
        qb = float(u @ sys.A @ u)
        trials += 1
        if qb + gamma_split * qm < 0.5 * qk - SPLIT_SLACK * max(1.0, qk):
            violations += 1
    factor = gamma_split / gamma_exact if gamma_exact > 0 else None
    return YoungSplitReport(
        epsilons=epsilons,
        c1=c1,
        c2_at_choice=c2_star,
        gamma_split=gamma_split,
        gamma_exact=gamma_exact,
        violations=violations,
        trials=trials,
        consistent_within_factor=factor,
    )
