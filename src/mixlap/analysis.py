"""Discrete embedding and interpolation constants, and the constructive
coercivity audit built from them.

The embedding constant is the sharp discrete bound [u]_s^2 <= C |u|_X^2,
an extreme eigenvalue of the pencil (S, K).  The interpolation constant is
the sharp discrete bound

    [u]_s^2 <= C |u|_L2^(2(1-s)) |u|_H1^(2s),    |u|_H1^2 = u^T (K + M) u,

a nonconvex scale-free maximization estimated from below by a deterministic
sweep of self-consistent pencils: a reported estimate that the split does
not read.  The audit splits with the continuum constant 2/C(1,s),
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
    residual: float


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
    accurate than that eigenvalue, with [u]_s^2 summed in long double
    (``_s_product``) and |u|_X^2 as squared differences (the K stencil
    cancels); the residual is their difference."""
    pairs = sys.sine.lowest(1, 0.0, -1.0, 0.0, 1.0, 0.0)  # the top pair of (S, K), negated
    eigenvalue, vec = -float(pairs.values[0]), pairs.vectors(1)[:, 0]
    lead = int(np.argmax(np.abs(vec)))
    if vec[lead] < 0:
        vec = -vec
    w = vec.astype(np.longdouble)
    value = float(w @ _s_product(sys, w)) / (float(np.sum(np.diff(np.r_[0.0, vec, 0.0]) ** 2)) / sys.mesh.h)
    return ConstantEstimate(
        value=value,
        maximizer=FeField(vec, sys.mesh),
        residual=abs(eigenvalue - value),
    )


def _s_product(sys: OperatorSystem, v: np.ndarray) -> np.ndarray:
    """S v in v's precision (double, or long double for the embedding
    constant's v^T S v), from 64-row chunks of S's rows read as Toeplitz
    windows of ``s_col`` (``OperatorSystem.s_rows``): no dense S.  At n_elem
    1024, s 0.9 the circulant ``apply_S`` loses about 4e-12 relative and
    v^T S v in double about 1e-13."""
    S = sys.s_rows
    return np.concatenate([np.ascontiguousarray(S[i : i + 64], v.dtype) @ v for i in range(0, v.size, 64)])


def _interp_ratio(sys: OperatorSystem, c: np.ndarray) -> float:
    qs, qk, qm = float(c @ _s_product(sys, c)), float(c @ sys.apply_K(c)), float(c @ sys.apply_M(c))
    return qs / (qm ** (1.0 - sys.s) * (qk + qm) ** sys.s)


def interpolation_constant(sys: OperatorSystem) -> ConstantEstimate:
    """Estimate the sharp discrete interpolation constant from below by a
    sweep of self-consistent pencils: every stationary point of the quotient
    R solves S u = a M u + b H u, that is (S, b K + (a + b) M) with H = K + M.
    Each of 13 values theta in 1e-6..1e6 starts from the top eigenvector of
    (S, theta K + (1 + theta) M) and iterates u -> the top eigenvector of
    (S, b K + (a + b) M), with (a, b) read off u, for at most 60 steps.  The
    value is R at the best final iterate, the field returned, so it is
    attained; the residual is |grad log R| there, the field normalized in M."""
    s = sys.s
    finals = []
    for theta in np.logspace(-6.0, 6.0, 13):
        p, q, old = theta, 1.0 + theta, math.inf
        for _ in range(61):  # the top eigenvector of (S, p K + q M) is the lowest of (-S, p K + q M)
            c = sys.sine.lowest(1, 0.0, -1.0, 0.0, p, q).vectors(1)[:, 0]
            qs, qk, qm = float(c @ _s_product(sys, c)), float(c @ sys.apply_K(c)), float(c @ sys.apply_M(c))
            val = qs / (qm ** (1.0 - s) * (qk + qm) ** s)
            if abs(val - old) < 1e-14 * max(1.0, old):
                break
            old, a, p = val, (1.0 - s) * qs / qm, s * qs / (qk + qm)
            q = a + p
        finals.append(c)

    best_c = max(finals, key=lambda c: _interp_ratio(sys, c))
    lead = int(np.argmax(np.abs(best_c)))
    if best_c[lead] < 0:
        best_c = -best_c
    c = best_c / math.sqrt(float(best_c @ sys.apply_M(best_c)))
    Sc, Mc = _s_product(sys, c), sys.apply_M(c)
    Hc = sys.apply_K(c) + Mc
    g = 2.0 * Sc / float(c @ Sc) - 2.0 * (1.0 - s) * Mc / float(c @ Mc) - 2.0 * s * Hc / float(c @ Hc)
    return ConstantEstimate(
        value=_interp_ratio(sys, best_c),
        maximizer=FeField(best_c, sys.mesh),
        residual=float(np.linalg.norm(g)),
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
    exponent = -s / (1.0 - s)
    for eps in (eps_star / 8.0, eps_star, 8.0 * eps_star):
        if exponent * math.log(eps) > math.log(np.finfo(float).max):
            raise OverflowError(
                f"Young split: c2(eps) = C ((1-s) eps^(-s/(1-s)) + s eps) overflows a float at "
                f"s={s:g}, exponent -s/(1-s)={exponent:.6g}, eps={eps:.6g}"
            )
        c2 = C * ((1.0 - s) * eps**exponent + s * eps)
        # the top eigenvalue of (S, c1 eps K + c2 M) is minus the lowest of (-S, ...)
        low = sys.sine.lowest(1, 0.0, -1.0, 0.0, c1 * eps, c2, vectors=False).values[0]
        pencils.append((c1 * eps, c2, -float(low)))
    c2_star = pencils[1][1]
    gamma_split = abs(alpha) * c2_star
    return YoungSplitReport(
        gamma_exact, pencils, c1=c1, c2_at_choice=c2_star, gamma_split=gamma_split,
        violations=sum(top > 1.0 + SPLIT_SLACK for _, _, top in pencils), trials=len(pencils),
        consistent_within_factor=gamma_split / gamma_exact if gamma_exact > 0 else None,
    )
