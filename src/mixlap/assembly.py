"""P1 assembly of the local, nonlocal and mass bilinear forms on an interval.

The nonlocal form is the Gagliardo double integral over the whole line for
functions that vanish outside the domain.  On a uniform mesh the
zero-extended hats are translates of one another, so the Gagliardo matrix is
symmetric Toeplitz, S_ij = c_|i-j|, with the closed form

    c_k = h^(1-2s) / (s (2-2s) (3-2s)) * delta^4 g(k),
    g(x) = x^2 expm1((1-2s) log|x|) / (1-2s),   g(0) = 0,

where delta^4 is the fourth central difference (1, -4, 6, -4, 1) and g tends
to x^2 log|x| at s = 1/2 (cf. Acosta & Borthagaray, SIAM J. Numer. Anal. 55,
2017, for P1 elements under the integral fractional Laplacian).  One formula
covers every 0 < s < 1.  The naive fourth difference cancels
catastrophically far from the diagonal, so offsets k >= 8 use the
central-difference series delta^4 = D^4 (1 + D^2/6 + D^4/80 + ...) with the
closed-form derivatives of g.  Entries match an 80-digit evaluation of the
formula to about 1e-11 relative.  The independent adaptive-quadrature check
lives in ``mixlap.oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import linalg
from scipy.special import exprel

from .mesh import FeField, MeshInterval

__all__ = [
    "OperatorSystem",
    "parity_blocks",
    "parity_lift",
    "extreme_eigenvalue",
    "assemble_local_stiffness",
    "assemble_mass",
    "assemble_gagliardo",
    "build_system",
    "bilinear_B",
    "norms",
    "dump_matrix",
    "load_matrix",
]


def _check_s(s: float) -> float:
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order must satisfy 0 < s < 1, got s={s}")
    return s


def assemble_local_stiffness(mesh: MeshInterval) -> np.ndarray:
    """Exact P1 stiffness matrix (1/h) * tridiag(-1, 2, -1)."""
    n = mesh.ndof
    K = np.zeros((n, n))
    np.fill_diagonal(K, 2.0 / mesh.h)
    off = -1.0 / mesh.h
    K[np.arange(n - 1), np.arange(1, n)] = off
    K[np.arange(1, n), np.arange(n - 1)] = off
    return K


def assemble_mass(mesh: MeshInterval) -> np.ndarray:
    """Exact P1 mass matrix (h/6) * tridiag(1, 4, 1)."""
    n = mesh.ndof
    M = np.zeros((n, n))
    np.fill_diagonal(M, 4.0 * mesh.h / 6.0)
    off = mesh.h / 6.0
    M[np.arange(n - 1), np.arange(1, n)] = off
    M[np.arange(1, n), np.arange(n - 1)] = off
    return M


# delta^4 = (2 sinh(D/2))^4 = D^4 sum_j a_j D^(2j), where a_j are the Taylor
# coefficients of (sinh(y) / y)^4 at y = D/2; nine terms reach 1e-13 relative
# from offset _FAR_FIELD on.  Below it the fourth difference is taken directly.
_SINHC = np.array([0.25**j / math.factorial(2 * j + 1) for j in range(9)])
_DELTA4_SERIES = np.convolve(np.convolve(_SINHC, _SINHC), np.convolve(_SINHC, _SINHC))[:9]
_FAR_FIELD = 8
_STENCIL = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def _gagliardo_column(s: float, k: np.ndarray) -> np.ndarray:
    """c_k / h^(1-2s) at integer offsets k >= 0 (formula in the module docstring).

    Near field: with r = max(k, 1), g(x) - x^2 (r^(1-2s) - 1) / (1-2s) has
    the same fourth difference (the subtracted term is quadratic in x), and
    its values x^2 r^(1-2s) L exprel((1-2s) L), L = log(|x| / r), stay small
    where the stencil cancels.  Far field: the central-difference series
    with the closed-form derivatives
    D^m g(x) = p (p-1) prod_{i=3}^{m-1} (p-i) x^(p-m),  p = 3 - 2s,
    in which the factor 1 - 2s = p - 2 has already cancelled.
    """
    k = np.asarray(k)
    eps = 1.0 - 2.0 * s
    p = 3.0 - 2.0 * s
    out = np.empty(k.shape)

    near = k < _FAR_FIELD
    kn = k[near][:, None]
    x = np.abs(kn + np.arange(-2, 3))
    r = np.maximum(kn, 1)
    # x = 0 has weight x^2 = 0; mapping it onto r keeps L finite there
    L = np.log1p((np.where(x > 0, x, r) - r) / r)
    out[near] = (x**2 * L * exprel(eps * L)) @ _STENCIL * r[:, 0] ** eps

    kf = k[~near].astype(float)
    deriv = p * (p - 1.0) * np.cumprod(p - np.arange(3, 2 + 2 * _DELTA4_SERIES.size))[::2]
    out[~near] = kf ** (p - 4.0) * polyval(kf**-2.0, _DELTA4_SERIES * deriv)
    return out / (s * (2.0 - 2.0 * s) * (3.0 - 2.0 * s))


def assemble_gagliardo(mesh: MeshInterval, s: float) -> np.ndarray:
    """Gagliardo form matrix S_ij for hat functions extended by zero (Toeplitz)."""
    s = _check_s(s)
    return linalg.toeplitz(mesh.h ** (1.0 - 2.0 * s) * _gagliardo_column(s, np.arange(mesh.ndof)))


def parity_blocks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a centrosymmetric matrix (J X J = X, J the flip).

    With p = n // 2 the blocks are X11 + X12 J and X11 - X12 J, the top-left
    p x p corner and its neighbour reflected.  For odd n the middle node
    joins the even block, coupled by sqrt(2) X[:p, p].  The orthogonal change
    of basis in ``parity_lift`` takes X to diag(even, odd) (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976), so a pencil of two such matrices splits
    into two pencils of half size.  Raises ``ValueError`` unless J X J = X
    holds exactly.
    """
    if not np.array_equal(X, X[::-1, ::-1]):
        raise ValueError("matrix is not centrosymmetric: the parity split does not apply")
    n = X.shape[0]
    p = n // 2
    corner, reflected = X[:p, :p], X[:p, ::-1][:, :p]
    odd = corner - reflected
    if n % 2 == 0:
        return corner + reflected, odd
    even = np.empty((p + 1, p + 1))
    even[:p, :p] = corner + reflected
    even[:p, p] = even[p, :p] = math.sqrt(2.0) * X[:p, p]
    even[p, p] = X[p, p]
    return even, odd


def parity_lift(ve: np.ndarray, vo: np.ndarray, n: int) -> np.ndarray:
    """Full-length columns [even | odd] of the block vectors ``ve`` and ``vo``.

    An even column is (x, [m,] J x) / sqrt(2) with the middle entry m = ve[p]
    unscaled for odd n; an odd column is (x, [0,] -J x) / sqrt(2).  The map is
    orthogonal, so the lifted columns keep the blocks' M-orthonormality.
    """
    p = n // 2
    r = math.sqrt(0.5)
    ke = ve.shape[1]
    out = np.zeros((n, ke + vo.shape[1]))
    out[:p, :ke] = r * ve[:p]
    out[n - p :, :ke] = r * ve[:p][::-1]
    out[:p, ke:] = r * vo
    out[n - p :, ke:] = -r * vo[::-1]
    if n % 2:
        out[p, :ke] = ve[p]
    return out


def extreme_eigenvalue(X: np.ndarray, Y: np.ndarray, top: bool = False) -> float:
    """Lowest (or top) eigenvalue of the centrosymmetric pencil (X, Y): the
    min (or max) over the extreme eigenvalues of its even and odd blocks."""
    values = []
    for xb, yb in zip(parity_blocks(X), parity_blocks(Y)):
        if xb.size:
            i = xb.shape[0] - 1 if top else 0
            values.append(float(linalg.eigh(xb, yb, eigvals_only=True, subset_by_index=[i, i])[0]))
    return max(values) if top else min(values)


@dataclass(eq=False)
class OperatorSystem:
    """Assembled forms for the operator -Laplace + alpha * (-Laplace)^s.

    K is the Dirichlet stiffness, S the Gagliardo form, M the mass matrix;
    the energy pairing is B(u, v) = u^T (K + alpha S) v.  What is derived
    from the forms (``A``, ``eigenpairs``, ``k_factor``) is kept on first use.
    """

    K: np.ndarray
    S: np.ndarray
    M: np.ndarray
    alpha: float
    s: float
    mesh: MeshInterval

    @property
    def ndof(self) -> int:
        return self.mesh.ndof

    @cached_property
    def A(self) -> np.ndarray:
        """The form matrix K + alpha * S."""
        return self.K + self.alpha * self.S

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All eigenpairs (w, v) of the pencil (A, M), ascending and unprocessed.

        The even and odd blocks of the pencil (``parity_blocks``) are solved
        apart and merged by a stable sort of their eigenvalues; the odd block
        of a single node is empty and is not passed to LAPACK.
        """
        (we, ve), (wo, vo) = (
            linalg.eigh(a, m) if a.size else (np.empty(0), np.empty((0, 0)))
            for a, m in zip(parity_blocks(self.A), parity_blocks(self.M))
        )
        w = np.concatenate([we, wo])
        order = np.argsort(w, kind="stable")
        v = parity_lift(ve, vo, self.ndof)
        del ve, vo  # the column permutation below copies v; keep the peak low
        return w[order], v[:, order]

    @cached_property
    def k_factor(self) -> np.ndarray:
        """Upper banded Cholesky factor of the tridiagonal K."""
        ab = np.zeros((2, self.ndof))
        ab[1] = np.diag(self.K)
        ab[0, 1:] = np.diag(self.K, 1)
        return linalg.cholesky_banded(ab)

    def with_alpha(self, alpha: float) -> "OperatorSystem":
        """Same discretization, different coupling constant (S is reused)."""
        return OperatorSystem(
            K=self.K, S=self.S, M=self.M, alpha=float(alpha), s=self.s, mesh=self.mesh
        )


def build_system(mesh: MeshInterval, s: float, alpha: float) -> OperatorSystem:
    s = _check_s(s)
    return OperatorSystem(
        K=assemble_local_stiffness(mesh),
        S=assemble_gagliardo(mesh, s),
        M=assemble_mass(mesh),
        alpha=float(alpha),
        s=s,
        mesh=mesh,
    )


def _require_same_mesh(sys: OperatorSystem, *fields: FeField) -> None:
    for f in fields:
        if f.mesh != sys.mesh:
            raise ValueError("field mesh does not match the assembled system")


def bilinear_B(sys: OperatorSystem, u: FeField, v: FeField) -> float:
    """Energy pairing u^T (K + alpha S) v; symmetric in its arguments."""
    _require_same_mesh(sys, u, v)
    return float(u.coeffs @ (sys.A @ v.coeffs))


def norms(u: FeField, sys: OperatorSystem) -> tuple[float, float, float]:
    """Return (||u||_X, ||u||_L2, [u]_s) = sqrt of the K, M, S quadratic forms."""
    _require_same_mesh(sys, u)
    c = u.coeffs
    qk = float(c @ (sys.K @ c))
    qm = float(c @ (sys.M @ c))
    qs = float(c @ (sys.S @ c))
    # round-off guard: the forms are PSD, clamp tiny negatives
    return (math.sqrt(max(qk, 0.0)), math.sqrt(max(qm, 0.0)), math.sqrt(max(qs, 0.0)))


def dump_matrix(path: str | Path, mat: np.ndarray, kind: str) -> None:
    """Plain-text export: header 'rows cols kind', then row-major entries in
    full decimal precision (one row per line)."""
    if kind not in ("dense", "banded"):
        raise ValueError(f"kind must be 'dense' or 'banded', got {kind!r}")
    mat = np.asarray(mat, dtype=float)
    lines = [f"{mat.shape[0]} {mat.shape[1]} {kind}"]
    for row in mat:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path: str | Path) -> tuple[np.ndarray, str]:
    text = Path(path).read_text().strip().splitlines()
    rows_s, cols_s, kind = text[0].split()
    rows, cols = int(rows_s), int(cols_s)
    if kind not in ("dense", "banded"):
        raise ValueError(f"unknown matrix kind {kind!r} in {path}")
    data = np.array([[float(x) for x in line.split()] for line in text[1 : 1 + rows]])
    if data.shape != (rows, cols):
        raise ValueError(f"matrix payload shape {data.shape} does not match header")
    return data, kind
