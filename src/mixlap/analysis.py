"""Discrete embedding and interpolation constants, and the constructive
coercivity audit built from them.

The embedding constant is the sharp discrete bound [u]_s^2 <= C |u|_X^2,
an extreme eigenvalue of the pencil (S, K).  The interpolation constant is
the sharp discrete bound

    [u]_s^2 <= C |u|_L2^(2(1-s)) |u|_H1^(2s),    |u|_H1^2 = u^T (K + M) u,

a nonconvex scale-free maximization handled by seeded multistart projected
ascent, all starts advancing in lockstep as one block; the result is an
estimate, never a proof.  The audit derives the split constants that turn
the interpolation bound into a coercivity shift, checks them on blocks of
random fields and compares the constructive shift with the sharp one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

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
    (S, K), nondecreasing under refinement (nested subspaces).  The value is
    the nodal Rayleigh quotient at the sine-basis eigenvector, which is more
    accurate than that eigenvalue; the residual is their difference."""
    eigenvalue, vec = sys.sine.eigh(0.0, 1.0, 1.0, 0.0, which="top")
    lead = int(np.argmax(np.abs(vec)))
    if vec[lead] < 0:
        vec = -vec
    value = float(vec @ sys.S @ vec) / float(vec @ sys.apply_K(vec))
    return ConstantEstimate(
        value=value,
        maximizer=FeField(vec, sys.mesh),
        method="eigen",
        residual=abs(eigenvalue - value),
    )


def _interp_ratio(sys: OperatorSystem, c: np.ndarray) -> float:
    qs, qk, qm = float(c @ sys.S @ c), float(c @ sys.apply_K(c)), float(c @ sys.apply_M(c))
    return qs / (qm ** (1.0 - sys.s) * (qk + qm) ** sys.s)


def _ascent_state(sys: OperatorSystem, C: np.ndarray):
    """The columns of C normalized in M, their quotients R and the gradients of log R."""
    C = C / np.sqrt(np.einsum("ij,ij->j", C, sys.apply_M(C)))
    SC, MC = sys.S @ C, sys.apply_M(C)
    HC = sys.apply_K(C) + MC
    qs, qm, qh = (np.einsum("ij,ij->j", C, X) for X in (SC, MC, HC))
    s = sys.s
    G = 2.0 * SC / qs - 2.0 * (1.0 - s) * MC / qm - 2.0 * s * HC / qh
    return C, qs / (qm ** (1.0 - s) * qh**s), G


def interpolation_constant(sys: OperatorSystem, seed: int = 0) -> ConstantEstimate:
    """Estimate the sharp discrete interpolation constant by multistart
    projected gradient ascent of the scale-free quotient R.

    The starts (64 random fields, the top eigenfields of (S, K) and (S, M),
    13 fixed points of a pencil sweep) ascend in lockstep as the columns of
    one block, renormalized in M.  Each follows the gradient g of log R with
    its own backtracking from 1 / max(1, |g|) down to 1e-15, at most 400
    steps, and leaves the block when |g| < 1e-13 or its line search fails.
    The winner is the first maximum in start order; if no start improves by
    more than 1e-12 relative, the result is flagged inconclusive.
    """
    rng = np.random.default_rng(seed)
    s = sys.s

    starts = [rng.standard_normal(sys.ndof) for _ in range(64)]
    for p, q in ((1.0, 0.0), (0.0, 1.0)):  # the pencils (S, K) and (S, M)
        starts.append(sys.sine.eigh(0.0, 1.0, p, q, which="top")[1])
    # every stationary point of the quotient solves S u = a M u + b H u for
    # self-consistent (a, b): sweep the pencil family and iterate to a fixed
    # point, which reliably reaches the global ridge the random starts miss;
    # with H = K + M each pencil (S, a M + b H) is (S, b K + (a + b) M)
    for theta in np.logspace(-6.0, 6.0, 13):
        c = sys.sine.eigh(0.0, 1.0, theta, 1.0 + theta, which="top")[1]
        old = math.inf
        for _ in range(60):
            qs, qk, qm = float(c @ sys.S @ c), float(c @ sys.apply_K(c)), float(c @ sys.apply_M(c))
            val = qs / (qm ** (1.0 - s) * (qk + qm) ** s)
            if abs(val - old) < 1e-14 * max(1.0, old):
                break
            old, a, b = val, (1.0 - s) * qs / qm, s * qs / (qk + qm)
            c = sys.sine.eigh(0.0, 1.0, b, a + b, which="top")[1]
        starts.append(c)

    C, val0 = _ascent_state(sys, np.array(starts).T)[:2]
    val = val0.copy()
    active = np.arange(C.shape[1])  # the starts still ascending
    for _ in range(400):
        if active.size == 0:
            break
        Ca = C[:, active]
        G = _ascent_state(sys, Ca)[2]
        gn = np.linalg.norm(G, axis=0)
        step = 1.0 / np.maximum(1.0, gn)
        improved = np.zeros(active.size, dtype=bool)
        trying = (gn >= 1e-13) & (step > 1e-15)
        while trying.any():
            t = np.flatnonzero(trying)
            C_try, val_try = _ascent_state(sys, Ca[:, t] + step[t] * G[:, t])[:2]
            v = val[active[t]]
            ok = (val_try > v * (1.0 + 1e-15)) | (val_try > v + 1e-15)
            C[:, active[t[ok]]] = C_try[:, ok]
            val[active[t[ok]]] = val_try[ok]
            improved[t[ok]] = True
            step[t[~ok]] *= 0.5
            trying[t] = ~ok & (step[t] > 1e-15)
        active = active[improved]

    i = int(np.argmax(val))
    best_c = C[:, i]
    # stationarity residual of the scale-free quotient at the winner
    g = _ascent_state(sys, C[:, [i]])[2]
    lead = int(np.argmax(np.abs(best_c)))
    if best_c[lead] < 0:
        best_c = -best_c
    return ConstantEstimate(
        value=float(val[i]),
        maximizer=FeField(best_c, sys.mesh),
        method="multistart-ascent",
        residual=float(np.linalg.norm(g)),
        inconclusive=not np.any(val > val0 + 1e-12 * np.maximum(1.0, np.abs(val0))),
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
    a = abs(alpha)

    def forms(*products):  # the quadratic forms of n_random fresh fields, one per column
        U = rng.standard_normal((n_random, sys.ndof)).T
        return (np.einsum("ij,ij->j", X(U), U) for X in products)

    violations = 0
    for eps in epsilons:
        c2 = C * ((1.0 - s) * eps ** (-s / (1.0 - s)) + s * eps)
        qs, qk, qm = forms(sys.S.__matmul__, sys.apply_K, sys.apply_M)
        rhs = a * c1 * eps * qk + a * c2 * qm
        violations += int(np.count_nonzero(a * qs > rhs * (1.0 + SPLIT_SLACK) + SPLIT_SLACK))

    c2_star = C * ((1.0 - s) * eps_star ** (-s / (1.0 - s)) + s * eps_star)
    gamma_split = a * c2_star
    # the constructive split must certify the same coercivity bound
    qk, qm, qb = forms(sys.apply_K, sys.apply_M, sys.A.__matmul__)
    violations += int(np.count_nonzero(qb + gamma_split * qm < 0.5 * qk - SPLIT_SLACK * np.maximum(1.0, qk)))
    trials = (len(epsilons) + 1) * n_random
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
