"""Discrete embedding and interpolation constants, and the constructive
coercivity audit built from them.

The embedding constant is the sharp discrete bound [u]_s^2 <= C |u|_X^2,
an extreme eigenvalue of the pencil (S, K).  The interpolation constant is
the sharp discrete bound

    [u]_s^2 <= C |u|_L2^(2(1-s)) |u|_H1^(2s),    |u|_H1^2 = u^T (K + M) u,

a nonconvex scale-free maximization handled by seeded multistart projected
ascent, all starts in lockstep as one block: a reported estimate that the
split does not read.  The audit splits with the continuum constant 2/C(1,s),
which bounds that quotient at every mesh, decides the split for every field
by one pencil eigenvalue per epsilon and compares the constructive shift
with the sharp one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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

SPLIT_SLACK = 1e-10  # round-off allowance on the top eigenvalue that decides the split


@dataclass
class ConstantEstimate:
    value: float
    maximizer: FeField
    method: str  # eigen | multistart-ascent
    residual: float
    inconclusive: bool = False


@dataclass
class YoungSplitReport:
    """The defaults are the report at alpha >= 0, where no split is needed."""

    gamma_exact: float
    pencils: list = field(default_factory=list)  # (c1 eps, c2(eps), top eigenvalue of (S, c1 eps K + c2 M))
    c1: float = 0.0
    c2_at_choice: float = 0.0
    gamma_split: float = 0.0
    violations: int = 0
    trials: int = 0
    consistent_within_factor: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.violations == 0 and self.gamma_split >= self.gamma_exact * (1.0 - 1e-10)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["pencils"]
        out["certified"] = self.certified
        return out


def embedding_constant(sys: OperatorSystem) -> ConstantEstimate:
    """Sharp discrete constant of [u]_s^2 <= C |u|_X^2: the top eigenvalue of
    (S, K), nondecreasing under refinement (nested subspaces).  The value is
    the nodal Rayleigh quotient at the sine-basis eigenvector, which is more
    accurate than that eigenvalue; the residual is their difference."""
    eigenvalue, vec = sys.sine.top(0.0, 1.0, 1.0, 0.0)
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
    more than 1e-12 relative, the result is flagged inconclusive, except at
    one degree of freedom, where the quotient is constant and exact.
    """
    rng = np.random.default_rng(seed)
    s = sys.s

    starts = [rng.standard_normal(sys.ndof) for _ in range(64)]
    for p, q in ((1.0, 0.0), (0.0, 1.0)):  # the pencils (S, K) and (S, M)
        starts.append(sys.sine.top(0.0, 1.0, p, q)[1])
    # every stationary point of the quotient solves S u = a M u + b H u for
    # self-consistent (a, b): sweep the pencil family and iterate to a fixed
    # point, which reliably reaches the global ridge the random starts miss;
    # with H = K + M each pencil (S, a M + b H) is (S, b K + (a + b) M)
    for theta in np.logspace(-6.0, 6.0, 13):
        c = sys.sine.top(0.0, 1.0, theta, 1.0 + theta)[1]
        old = math.inf
        for _ in range(60):
            qs, qk, qm = float(c @ sys.S @ c), float(c @ sys.apply_K(c)), float(c @ sys.apply_M(c))
            val = qs / (qm ** (1.0 - s) * (qk + qm) ** s)
            if abs(val - old) < 1e-14 * max(1.0, old):
                break
            old, a, b = val, (1.0 - s) * qs / qm, s * qs / (qk + qm)
            c = sys.sine.top(0.0, 1.0, b, a + b)[1]
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
        inconclusive=sys.ndof > 1 and not np.any(val > val0 + 1e-12 * np.maximum(1.0, np.abs(val0))),
    )


def _interp_limit(s: float) -> float:
    """2/C(1,s) = sup [u]_s^2 / (|u|_L2^(2(1-s)) |u'|_L2^(2s)) over H^1_0, by
    [u]_s^2 = (2/C(1,s)) int |xi|^(2s) |u^(xi)|^2 (Di Nezza, Palatucci &
    Valdinoci, Bull. Sci. Math. 136, 2012, Prop. 3.4) and Hoelder; P1 fields
    lie in H^1_0 and |u'|_L2 <= |u|_H1, so it bounds every discrete quotient."""
    return 2.0 * math.sqrt(math.pi) * math.gamma(1.0 - s) / (s * 4.0**s * math.gamma(0.5 + s))


def young_split_audit(sys: OperatorSystem) -> YoungSplitReport:
    """Derive split constants from the interpolation bound with C = 2/C(1,s), audit them.

    For each epsilon, Young's inequality with exponents 1/s and 1/(1-s) gives

        A^(1-s) B^s <= (1-s) eps^(-s/(1-s)) A + s eps B,

    applied to A = |u|_L2^2 and B = |u|_H1^2; expanding B and scaling by
    |alpha| C yields c1 = C s and c2(eps) = C ((1-s) eps^(-s/(1-s)) + s eps).
    The choice eps = 1 / (2 c1 |alpha|) turns the split into the coercivity
    bound with the constructive shift gamma_split = |alpha| c2(eps), which is
    compared against the eigenvalue-sharp shift; B + gamma M >= K/2 holds
    for every gamma >= gamma_exact, so that comparison certifies the bound.
    The split [u]_s^2 <= c1 eps |u|_X^2 + c2 |u|_L2^2 holds for every field
    exactly when the top eigenvalue of the pencil (S, c1 eps K + c2 M) is at
    most 1; it is decided at that choice of eps and at 1/8 and 8 times it,
    where it is a theorem: only an error in S or rounding can make it fail.
    """
    alpha = sys.alpha
    gamma_exact = garding_constant(sys)
    if alpha >= 0.0:
        return YoungSplitReport(gamma_exact)
    s, C = sys.s, _interp_limit(sys.s)
    c1 = C * s
    eps_star = 1.0 / (2.0 * c1 * abs(alpha))
    pencils = []
    for eps in (eps_star / 8.0, eps_star, 8.0 * eps_star):
        c2 = C * ((1.0 - s) * eps ** (-s / (1.0 - s)) + s * eps)
        # the top eigenvalue of (S, c1 eps K + c2 M) is minus the lowest of (-S, ...)
        pencils.append((c1 * eps, c2, -sys.sine.lowest(0.0, -1.0, c1 * eps, c2)))
    c2_star = pencils[1][1]
    gamma_split = abs(alpha) * c2_star
    return YoungSplitReport(
        gamma_exact, pencils, c1=c1, c2_at_choice=c2_star, gamma_split=gamma_split,
        violations=sum(top > 1.0 + SPLIT_SLACK for _, _, top in pencils), trials=len(pencils),
        consistent_within_factor=gamma_split / gamma_exact if gamma_exact > 0 else None,
    )
