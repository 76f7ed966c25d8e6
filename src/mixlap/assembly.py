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
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from .mesh import FeField, MeshInterval

__all__ = [
    "OperatorSystem",
    "SineBasis",
    "assemble_local_stiffness",
    "assemble_mass",
    "assemble_gagliardo",
    "stiffness_column",
    "mass_column",
    "gagliardo_column",
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


def stiffness_column(mesh: MeshInterval) -> np.ndarray:
    """First column of the exact P1 stiffness matrix (1/h) * tridiag(-1, 2, -1)."""
    return np.r_[2.0, -1.0, np.zeros(mesh.ndof)][: mesh.ndof] / mesh.h


def mass_column(mesh: MeshInterval) -> np.ndarray:
    """First column of the exact P1 mass matrix (h/6) * tridiag(1, 4, 1)."""
    return np.r_[4.0, 1.0, np.zeros(mesh.ndof)][: mesh.ndof] * mesh.h / 6.0


def assemble_local_stiffness(mesh: MeshInterval) -> np.ndarray:
    return _toeplitz(stiffness_column(mesh))


def assemble_mass(mesh: MeshInterval) -> np.ndarray:
    return _toeplitz(mass_column(mesh))


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
    z = eps * L
    exprel = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
    out[near] = (x**2 * L * exprel) @ _STENCIL * r[:, 0] ** eps

    kf = k[~near].astype(float)
    deriv = p * (p - 1.0) * np.cumprod(p - np.arange(3, 2 + 2 * _DELTA4_SERIES.size))[::2]
    out[~near] = kf ** (p - 4.0) * polyval(kf**-2.0, _DELTA4_SERIES * deriv)
    return out / (s * (2.0 - 2.0 * s) * (3.0 - 2.0 * s))


def gagliardo_column(mesh: MeshInterval, s: float) -> np.ndarray:
    """First column c_0, ..., c_(n-1) of the Gagliardo form matrix (module docstring)."""
    s = _check_s(s)
    return mesh.h ** (1.0 - 2.0 * s) * _gagliardo_column(s, np.arange(mesh.ndof))


def assemble_gagliardo(mesh: MeshInterval, s: float) -> np.ndarray:
    """Gagliardo form matrix S_ij for hat functions extended by zero (Toeplitz)."""
    return _toeplitz(gagliardo_column(mesh, s))


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The dense symmetric Toeplitz matrix with first column c."""
    # row i, c[i], ..., c[1], c[0], c[1], ..., is the window of [c reversed, c[1:]] at n-1-i
    windows = np.lib.stride_tricks.sliding_window_view(np.r_[c[::-1], c[1:]], c.size)
    return windows[::-1].copy()


def _stencil(col: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T @ X for X of shape (n,) or (n, m), T = tridiag(b, a, b) with first column (a, b, 0, ...)."""
    a, b = col[0], (col[1] if col.size > 1 else 0.0)
    Y = a * X
    Y[1:] += b * X[:-1]
    Y[:-1] += b * X[1:]
    return Y


def _sine_diagonal(col: np.ndarray) -> np.ndarray:
    """Eigenvalues a + 2 b cos(j pi/(n+1)), j = 1..n, of tridiag(b, a, b) with first column col."""
    n, a, b = col.size, col[0], (col[1] if col.size > 1 else 0.0)
    return a + 2.0 * b * np.cos(np.arange(1, n + 1) * (math.pi / (n + 1)))


def _dst(X: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of each row of X (of X itself if 1-D), in place; returns X.

    A row x of length n is the imaginary part of the real FFT of its odd
    extension [0, x, 0, -x reversed], scaled by -1/sqrt(2n + 2) rounded from
    long double, as ``scipy.fft.dst(x, type=1, norm="ortho")`` computes it.
    """
    n = X.shape[-1]
    scale = -float(1.0 / np.sqrt(np.longdouble(2 * n + 2)))
    rows = np.atleast_2d(X)  # a view of X
    for i in range(0, rows.shape[0], 8):  # a few rows per FFT call
        block = rows[i : i + 8]
        ext = np.zeros((block.shape[0], 2 * n + 2))
        ext[:, 1 : n + 1] = block
        ext[:, n + 2 :] = -block[:, ::-1]
        block[...] = np.fft.rfft(ext).imag[:, 1 : n + 1] * scale
    return X


class SineBasis:
    """K, S and M, from their columns, in the DST-I basis Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)).

    Q is symmetric and diagonalizes every symmetric tridiagonal Toeplitz
    matrix, so Q K Q and Q M Q are the closed-form diagonals ``k`` and ``m``.
    For a symmetric Toeplitz S, Q S Q couples no odd mode index j with an
    even one (the tau-algebra view, Bini & Di Benedetto, SPAA 1990), so only
    its two half-size blocks are kept: ``blocks[0]`` on the modes j = 1, 3,
    ... (even under the flip of the nodes) and ``blocks[1]`` on j = 2, 4, ...
    """

    def __init__(self, k_col: np.ndarray, s_col: np.ndarray, m_col: np.ndarray):
        self.k, self.m = _sine_diagonal(k_col), _sine_diagonal(m_col)
        T = _toeplitz(s_col)
        _dst(_dst(T).T)  # rows, then the columns as rows of the transpose: T = Q S Q
        self.blocks = (T[0::2, 0::2].copy(), T[1::2, 1::2].copy())

    def reduced(self, b: int, x: float, y: float, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
        """Block b of the pencil (x K + y S, p K + q M) as the standard
        symmetric matrix r (x D_K + y T_b) r, r = (p D_K + q D_M)^(-1/2), and r."""
        d = p * self.k[b::2] + q * self.m[b::2]
        if not np.all(d > 0.0):
            raise np.linalg.LinAlgError("p K + q M is not positive definite")
        r = d**-0.5
        C = self.blocks[b] * y
        C *= r
        C *= r[:, None]
        C[np.diag_indices_from(C)] += x * self.k[b::2] * r**2
        return C, r

    def eigh(self, x: float, y: float, p: float, q: float, which: str = "all"):
        """Eigenpairs of the pencil (x K + y S, p K + q M), p K + q M positive definite.

        Each block is solved by ``np.linalg.eigh`` as the standard problem of
        ``reduced``; eigenvectors return to the nodes by one DST-I (its own
        inverse), orthonormal in p K + q M.  ``which="all"`` returns every
        eigenvalue, ascending (a stable merge of the blocks), and the
        eigenvectors as columns; ``"top"`` returns the top eigenvalue as a
        float and its eigenvector, from the one-index ``scipy.linalg.eigh``.
        """
        if which != "all":
            from scipy.linalg import eigh  # only "top" pays for importing scipy
        n = self.k.size
        parts = []  # per block: eigenvalues, eigenvectors in the block's sine coordinates
        for b in range(min(n, 2)):  # a single node has no odd block
            C, r = self.reduced(b, x, y, p, q)
            w, z = np.linalg.eigh(C) if which == "all" else eigh(C, subset_by_index=[len(r) - 1] * 2)
            parts.append((w, r[:, None] * z))
        if which != "all":
            b = int(np.argmax([w[0] for w, _ in parts]))
            u = np.zeros(n)
            u[b::2] = parts[b][1][:, 0]
            return float(parts[b][0][0]), _dst(u)
        w = np.concatenate([w for w, _ in parts])
        order = np.argsort(w, kind="stable")
        # row i of U holds the i-th eigenvector's sine coordinates; the DST
        # runs along the contiguous rows, in place
        U = np.zeros((n, n))
        ranks = np.split(np.argsort(order), [parts[0][0].size])
        for b, ((_, z), rank) in enumerate(zip(parts, ranks)):
            U[rank[:, None], np.arange(b, n, 2)] = z.T
        del parts, z
        return w[order], _dst(U).T


@dataclass(eq=False)
class OperatorSystem:
    """Assembled forms for the operator -Laplace + alpha * (-Laplace)^s.

    K is the Dirichlet stiffness, S the Gagliardo form, M the mass matrix;
    the energy pairing is B(u, v) = u^T (K + alpha S) v.  All three are
    symmetric Toeplitz, held by their first columns; ``apply_K`` and
    ``apply_M`` are the three-term stencils of K and M.  The dense K, S, M and
    A = K + alpha S, ``sine`` and ``eigenpairs`` are built on first use and kept.
    """

    k_col: np.ndarray
    s_col: np.ndarray
    m_col: np.ndarray
    alpha: float
    s: float
    mesh: MeshInterval

    @property
    def ndof(self) -> int:
        return self.mesh.ndof

    @property
    def a_col(self) -> np.ndarray:
        """First column of A = K + alpha * S."""
        return self.k_col + self.alpha * self.s_col

    A = cached_property(lambda self: _toeplitz(self.a_col))
    K = cached_property(lambda self: _toeplitz(self.k_col))
    S = cached_property(lambda self: _toeplitz(self.s_col))
    M = cached_property(lambda self: _toeplitz(self.m_col))

    def apply_K(self, X: np.ndarray) -> np.ndarray:
        return _stencil(self.k_col, X)

    def apply_M(self, X: np.ndarray) -> np.ndarray:
        return _stencil(self.m_col, X)

    @cached_property
    def sine(self) -> SineBasis:
        """K, S and M in the sine basis; shared by every ``with_alpha`` system."""
        return SineBasis(self.k_col, self.s_col, self.m_col)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All eigenpairs (w, v) of the pencil (A, M), ascending and unprocessed,
        solved in the sine basis (``SineBasis.eigh``)."""
        return self.sine.eigh(1.0, self.alpha, 0.0, 1.0)

    def with_alpha(self, alpha: float) -> "OperatorSystem":
        """Same discretization, different coupling constant (the columns and ``sine`` are shared)."""
        other = replace(self, alpha=float(alpha))
        other.sine = self.sine
        return other


def build_system(mesh: MeshInterval, s: float, alpha: float) -> OperatorSystem:
    s = _check_s(s)
    columns = stiffness_column(mesh), gagliardo_column(mesh, s), mass_column(mesh)
    return OperatorSystem(*columns, alpha=float(alpha), s=s, mesh=mesh)


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
    qk = float(c @ sys.apply_K(c))
    qm = float(c @ sys.apply_M(c))
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
