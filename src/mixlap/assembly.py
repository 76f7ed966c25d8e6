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
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyval

from .mesh import MeshInterval

__all__ = [
    "OperatorSystem",
    "SineBasis",
    "SinePairs",
    "assemble_gagliardo",
    "stiffness_column",
    "mass_column",
    "gagliardo_column",
    "tridiagonal_product",
    "build_system",
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
    return _toeplitz_rows(c).copy()


def _toeplitz_rows(c: np.ndarray) -> np.ndarray:
    """The rows of the symmetric Toeplitz matrix with first column c, as a
    read-only view of 2n - 1 numbers: slices of it hold no n x n array."""
    # row i, c[i], ..., c[1], c[0], c[1], ..., is the window of [c reversed, c[1:]] at n-1-i
    return np.lib.stride_tricks.sliding_window_view(np.r_[c[::-1], c[1:]], c.size)[::-1]


def _band(col: np.ndarray) -> tuple:
    """(a, b) of T = tridiag(b, a, b) with first column col = (a, b, 0, ...)."""
    return col[0], (col[1] if col.size > 1 else 0.0)


def tridiagonal_product(diag, off, X: np.ndarray) -> np.ndarray:
    """T @ X for X of shape (n,) or (n, m), T the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``: two numbers for a
    Toeplitz T (``_band``), else arrays of n and n - 1 rows with as many
    axes as X (shapes (n,) and (n - 1,), or (n, 1) and (n - 1, 1))."""
    Y = diag * X
    Y[1:] += off * X[:-1]
    Y[:-1] += off * X[1:]
    return Y


def _sine_diagonal(col: np.ndarray) -> np.ndarray:
    """Eigenvalues a + 2 b cos(j pi/(n+1)), j = 1..n, of tridiag(b, a, b) with first column col."""
    (a, b), n = _band(col), col.size
    return a + 2.0 * b * np.cos(np.arange(1, n + 1) * (math.pi / (n + 1)))


def _sine_solve(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Q diag(1/d) Q x for a vector x, Q the orthonormal DST-I (its own inverse), by two DSTs."""
    return _dst(_dst(np.array(x, dtype=float)) / d)


def _dst(X: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of each row of X (of X itself if 1-D), in place; returns X.

    A row x of length n is the imaginary part of the real FFT of its odd
    extension [0, x, 0, -x reversed], scaled by -1/sqrt(2n + 2) rounded from
    long double, as ``scipy.fft.dst(x, type=1, norm="ortho")`` computes it.
    Many rows are split in two at a whole number of 8-row FFT blocks
    (``_halves``), so each row sees the same FFT calls either way.
    """
    rows = np.atleast_2d(X)  # a view of X
    cut = 8 * -(-rows.shape[0] // 16)
    _halves(lambda b: _dst_rows(rows[cut:] if b else rows[:cut]), rows.shape[0])
    return X


def _dst_rows(rows: np.ndarray) -> None:
    """The DST-I of ``_dst`` on each row of the 2-D view ``rows``, in place."""
    n = rows.shape[1]
    scale = -float(1.0 / np.sqrt(np.longdouble(2 * n + 2)))
    for i in range(0, rows.shape[0], 8):  # a few rows per FFT call
        block = rows[i : i + 8]
        ext = np.zeros((block.shape[0], 2 * n + 2))
        ext[:, 1 : n + 1] = block
        ext[:, n + 2 :] = -block[:, ::-1]
        block[...] = np.fft.rfft(ext).imag[:, 1 : n + 1] * scale


# The two halves of a pencil (or of a DST's rows) run on two threads when the
# first half has at least this many rows, that is from ndof = 1023 on; below
# it the thread and the second set of LAPACK workspaces cost more than they save.
CONCURRENT_HALF_ROWS = 512


def _threads_allowed() -> bool:
    """Whether two LAPACK or FFT calls may run at once without oversubscribing
    the cores: the process may use at least two cores, and the environment
    pins the BLAS to one thread per call, as OpenBLAS (``OPENBLAS_NUM_THREADS``,
    else ``GOTO_NUM_THREADS``, else ``OMP_NUM_THREADS``) and MKL
    (``MKL_NUM_THREADS``, else ``OMP_NUM_THREADS``) read it."""
    env = os.environ
    omp = env.get("OMP_NUM_THREADS")
    openblas = env.get("OPENBLAS_NUM_THREADS", env.get("GOTO_NUM_THREADS", omp))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cores or 1) >= 2 and openblas == "1" and env.get("MKL_NUM_THREADS", omp) == "1"


def _halves(fn, n: int) -> tuple:
    """(fn(0), fn(1)) for the two halves of n rows, (fn(0),) when n = 1.

    When the first half has ``CONCURRENT_HALF_ROWS`` rows or more and
    ``_threads_allowed``, fn(1) runs on a second thread while this one runs
    fn(0) (numpy's LAPACK and FFT calls release the GIL); otherwise one after
    the other.  An exception in either half re-raises here.  fn may call only
    numpy and private helpers no other module imports, since a tracer
    wrapping this package keeps one span stack for all threads.
    """
    if n < 2:
        return (fn(0),)
    if (n + 1) // 2 < CONCURRENT_HALF_ROWS or not _threads_allowed():
        return fn(0), fn(1)
    from concurrent.futures import ThreadPoolExecutor  # only large pencils pay for the import

    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(fn, 1)
        return fn(0), second.result()


class SineBasis:
    """K, S and M, from their columns, in the DST-I basis Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)).

    Q is symmetric and diagonalizes every symmetric tridiagonal Toeplitz
    matrix, so Q K Q and Q M Q are the closed-form diagonals ``k`` and ``m``.
    For a symmetric Toeplitz S, Q S Q couples no odd mode index j with an
    even one (the tau-algebra view, Bini & Di Benedetto, SPAA 1990), so only
    its two half-size blocks are kept: ``blocks[0]`` on the modes j = 1, 3,
    ... (even under the flip of the nodes) and ``blocks[1]`` on j = 2, 4, ...

    They are built with no n x n array.  S is centrosymmetric, so a column
    of S Q is even under the flip for an odd mode and odd for an even one
    (zero at the centre node): its first ceil(n/2) rows hold it.  The first
    pass takes the DST-I of those rows of S, read as Toeplitz windows of
    ``s_col``, 64 at a time, and writes output column 2 i + b, transposed,
    into row i of block b.  The second pass, in 64-row chunks in place,
    replaces each such row by the DST-I of the mirrored full column at the
    modes of parity b, which is row i of block b.  Each block then gets its
    upper triangle mirrored into the lower one, so it is exactly symmetric.
    Both passes and every solve run through ``_halves``, which decides
    whether they run on two threads; no caller loops over the blocks.
    """

    def __init__(self, k_col: np.ndarray, s_col: np.ndarray, m_col: np.ndarray):
        self.k, self.m = _sine_diagonal(k_col), _sine_diagonal(m_col)
        n = s_col.size
        half = (n + 1) // 2
        self.blocks = (np.empty((half, half)), np.empty((n // 2, n // 2)))
        S = _toeplitz_rows(s_col)
        cut = 64 * -(-half // 128)  # whole 64-row chunks for the first thread

        def first(part):  # rows [0, cut) or [cut, half) of S Q, each parity into its block
            stop = min(cut, half) if part == 0 else half
            for i in range(cut * part, stop, 64):
                X = S[i : min(i + 64, stop)].copy()
                _dst_rows(X)
                for b, B in enumerate(self.blocks):
                    B[:, i : i + X.shape[0]] = X[: B.shape[0] - i, b::2].T

        def second(b):  # each row of block b: the DST-I of its mirrored column of S Q
            B = self.blocks[b]
            rows = B.shape[0]
            for i in range(0, rows, 64):
                F = np.zeros((min(64, rows - i), n))
                F[:, :rows] = B[i : i + 64]
                # odd modes are even under the flip, even modes odd (the centre of odd n is 0)
                F[:, n - rows :] = B[i : i + 64, ::-1] if b == 0 else -B[i : i + 64, ::-1]
                _dst_rows(F)
                B[i : i + 64] = F[:, b::2]
            _mirror_upper(B)

        _halves(first, n)
        _halves(second, n)

    @cached_property
    def s_diagonal(self) -> np.ndarray:
        """diag(Q S Q): the two blocks' diagonals, interleaved (mode j = 1, 3, ... from ``blocks[0]``)."""
        d = np.empty(self.k.size)
        for b, B in enumerate(self.blocks):
            d[b::2] = B.diagonal()
        return d

    def scaled(self, b: int, x: float, y: float, z: float, p: float, q: float) -> "_Reduced":
        """Block b of the pencil (x K + y S + z M, p K + q M) as the standard
        symmetric operator r (x D_K + y B + z D_M) r, r = (p D_K + q D_M)^(-1/2),
        which reads the stored block B and copies nothing."""
        d = p * self.k[b::2] + q * self.m[b::2]
        if not np.all(d > 0.0):
            raise np.linalg.LinAlgError("p K + q M is not positive definite")
        r = d**-0.5
        return _Reduced(self.blocks[b], r, y, (x * self.k[b::2] + z * self.m[b::2]) * r**2)

    def lowest(
        self, count: int, x: float, y: float, z: float, p: float, q: float, *, vectors: bool = True
    ) -> "SinePairs":
        """The lowest ``count`` eigenpairs of the pencil (x K + y S + z M, p K + q M), ascending.

        Each block gives its own lowest min(count, rows) pairs of the standard
        problem of ``scaled``; ``SinePairs`` merges them.  The route is the
        same for both blocks (``_block_route``): a large block asked for a
        few pairs goes to ``_block_lowest``, which works on the stored block
        with no copy and whose certificate falls back to the dense solve
        when it fails; every other block is solved by LAPACK on the copy
        ``scaled(...).dense()``, ``np.linalg.eigvalsh`` when ``vectors`` is
        false and ``np.linalg.eigh`` otherwise, save that one pair with its
        vector takes ``eigvalsh`` there and, on either route, its vector
        from ``_lowest_vector`` on the block that holds it.  The top pair of
        (S, p K + q M) is minus the lowest of (-S, p K + q M).  Eigenvectors
        stay in sine coordinates until ``SinePairs.vectors`` lifts them.
        """
        block = _block_route(self.blocks[0].shape[0], count)
        one = vectors and count == 1

        def solve(b):  # eigenvalues, sine-basis vectors or inverse iteration's inputs, iterations, fell back
            k = min(count, self.blocks[b].shape[0])
            op = self.scaled(b, x, y, z, p, q)
            r = op.r
            if block:
                found = _block_lowest(op, k)
                if found is not None:
                    w, Z, _, iterations = found
                    if not one:
                        return w, Z * r[:, None], iterations, False
                    # LOBPCG's residual target is relative to |C|_F, inverse iteration's to |C|_2
                    C = op.dense()
                    return w, (C, w[0], float(np.linalg.norm(C)), Z[:, 0], r), iterations, False
            C = op.dense()
            if not vectors:
                return np.linalg.eigvalsh(C)[:k], None, 0, block
            if one:
                w = np.linalg.eigvalsh(C)
                return w[:1], (C, w[0], max(-w[0], w[-1]), r), 0, block
            w, Z = np.linalg.eigh(C)
            if k < w.size:
                w, Z = w[:k], Z[:, :k].copy()  # the copy lets the full Z go
            Z *= r[:, None]
            return w, Z, 0, block

        pairs = SinePairs(_halves(solve, self.k.size), count, "block" if block else "dense")
        if one:  # inverse iteration on the block that holds the pair alone
            held = int(pairs.order[0] >= pairs.first)
            pairs.halves = tuple(
                (r * _lowest_vector(*job))[:, None] if b == held else np.zeros((r.size, 0))
                for b, (*job, r) in enumerate(pairs.halves)
            )
        return pairs


def _mirror_upper(B: np.ndarray) -> None:
    """Copy the strict upper triangle of the square B into its strict lower
    one, in 64-row panels (no n x n temporary)."""
    n = B.shape[0]
    for i in range(0, n, 64):
        e = min(n, i + 64)
        np.copyto(B[i:e, i:e], B[i:e, i:e].T, where=np.tri(e - i, k=-1, dtype=bool))
        B[e:, i:e] = B[i:e, e:].T


@dataclass(frozen=True, eq=False)
class _Reduced:
    """C = y R B R + diag(d), R = diag(r), on a stored block B of
    ``SineBasis`` (exactly symmetric).  Entry (i, j) is evaluated as
    B_ij ((r_i r_j) y), plus d_i on the diagonal, so every part of C read
    here is exactly symmetric; only ``dense`` copies B."""

    B: np.ndarray
    r: np.ndarray
    y: float
    d: np.ndarray

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        r = self.r[:, None]
        return r * (self.y * (self.B @ (r * W))) + self.d[:, None] * W

    def rows(self, i: int, e: int, j: int = 0) -> np.ndarray:
        """C[i:e, j:], j <= i."""
        C = np.multiply.outer(self.r[i:e], self.r[j:])
        C *= self.y
        C *= self.B[i:e, j:]
        t = np.arange(C.shape[0])
        C[t, i - j + t] += self.d[i:e]
        return C

    def dense(self) -> np.ndarray:
        n = self.r.size
        C = np.empty((n, n))
        for i in range(0, n, 64):  # in row chunks: no second n x n array
            C[i : i + 64] = self.rows(i, i + 64)
        return C

    def diagonal(self) -> np.ndarray:
        return self.B.diagonal() * ((self.r * self.r) * self.y) + self.d

    def norm(self) -> float:
        """The Frobenius norm of C, in row chunks."""
        total = 0.0
        for i in range(0, self.r.size, 64):
            R = self.rows(i, i + 64)
            total += float(np.vdot(R, R))
        return math.sqrt(total)

    def columns(self, idx: np.ndarray) -> np.ndarray:
        """C[:, idx]."""
        C = self.B[:, idx] * (np.multiply.outer(self.r, self.r[idx]) * self.y)
        C[idx, np.arange(idx.size)] += self.d[idx]
        return C


def _lowest_vector(C: np.ndarray, shift: float, scale: float, z: np.ndarray | None = None) -> np.ndarray:
    """Unit eigenvector of the symmetric C for its lowest eigenvalue, which
    ``shift`` approximates, by at most two steps of inverse iteration from z
    (by default the coordinate vector of C's smallest diagonal entry): the
    first whose residual at its own Rayleigh quotient is within 64 eps
    ``scale``, a bound on |C|_2, gives it.  Otherwise, or when the shift hits
    an exact zero pivot (a 1 x 1 block), ``np.linalg.eigh`` of C gives it."""
    tol = 64.0 * np.finfo(float).eps * scale
    shifted = C.copy()
    shifted.flat[:: C.shape[0] + 1] -= shift
    if z is None:
        z = np.zeros(C.shape[0])
        z[np.argmin(np.diag(C))] = 1.0
    for _ in range(2):
        try:
            z = np.linalg.solve(shifted, z)
        except np.linalg.LinAlgError:
            break
        z /= np.linalg.norm(z)
        Cz = C @ z
        if np.linalg.norm(Cz - (z @ Cz) * z) <= tol:
            return z
    return np.linalg.eigh(C)[1][:, 0]


# The block route (``_block_lowest``) takes a pencil whose blocks have at least
# this many rows and are asked for at most an eighth of their pairs (guard
# vectors included); below either bound LAPACK's full solve is faster.  One
# block, one BLAS thread, the lowest pair: 2.3 ms against 0.7 ms (eigvalsh) and
# 1.3 ms (eigh) at 128 rows, 2.9 against 2.8 and 5.5 ms at 256, 11 against 16
# and 35 ms at 512.
BLOCK_ROUTE_ROWS = 256
_GUARD = 4  # Ritz pairs iterated beyond those asked for
_MAX_ITERATIONS = 50  # the agreement tests need at most 13
_RESIDUAL_FLOOR = 64  # residual target, in units of eps times the Frobenius norm of the block


def _block_route(rows: int, count: int) -> bool:
    """Whether a pencil whose larger block has ``rows`` rows takes the block route for ``count`` pairs."""
    return rows >= BLOCK_ROUTE_ROWS and 8 * (count + _GUARD) <= rows


def _block_lowest(C: _Reduced, count: int) -> tuple | None:
    """The lowest ``count`` eigenpairs of the symmetric C with a certified
    index, or None when the certificate fails.

    ``_lobpcg`` gives orthonormal Ritz vectors X with Ritz values theta and
    the residual R = C X - X diag(theta), rho = ||R||_2.  By Poincaré,
    lambda_i <= theta_i; by Kahan's residual theorem, ``count`` eigenvalues
    lie within rho of the theta_i (Parlett, The Symmetric Eigenvalue
    Problem, ch. 10-11).  One Cholesky of C + X diag(beta) X^T - sigma I,
    beta >= 0, at sigma > theta_count + 2 rho, shows that C has at most
    ``count`` eigenvalues below sigma (a positive definite matrix less a
    rank-``count`` one), so those are lambda_1..lambda_count and lambda_i
    lies in [theta_i - rho, theta_i].  That Cholesky is factored in the
    lower triangle of C's stored block, which is restored bit for bit
    (``_positive_definite``).  Returns (theta, X, rho, iterations).
    """
    found = _lobpcg(C, count)
    if found is None:
        return None
    theta, X, CX, iterations = found
    rho = float(np.linalg.norm(CX[:, :count] - X[:, :count] * theta[:count], 2))
    gap = theta[count] - theta[count - 1]  # theta[count] >= lambda_(count+1)
    sigma = theta[count - 1] + max(2.0 * rho, 0.5 * gap)
    beta = sigma - theta[:count] + 0.5 * gap  # lifts the Ritz vectors to about theta[count]
    Xc = np.ascontiguousarray(X[:, :count])
    if not _positive_definite(C, Xc, beta, sigma):
        return None
    return theta[:count], Xc, rho, iterations


def _lobpcg(C: _Reduced, count: int) -> tuple | None:
    """Lowest Ritz pairs of the symmetric C by preconditioned LOBPCG, or None
    at the iteration cap.

    After the robust form of Duersch, Shao, Yang & Gu (SIAM J. Sci. Comput.
    40, 2018): ``count + _GUARD`` Ritz vectors X, started from the
    coordinate vectors of C's smallest diagonal entries, and per step one
    Rayleigh-Ritz over the orthonormalized basis [X, W, P], W the residuals
    of the columns not yet converged scaled by 1 / |diag(C) - theta| and P
    their previous update.  C [W, P] is the step's one product with C; C P
    is not carried from step to step, where normalizing a small P would
    magnify its round-off.  A column has converged when its residual norm is
    at most ``_RESIDUAL_FLOOR`` eps ||C||_F, the Frobenius norm bounding
    ||C||_2, or stalls within eight times that.  Once the first count + 1
    have (the last of them, which only places the certificate's shift,
    within a quarter of its gap), X is orthonormalized again, C X recomputed
    and a final Rayleigh-Ritz on X confirms them.  C is applied as
    r * (y * (B @ (r * W))) + d * W on its stored block B; its diagonal,
    Frobenius norm and start columns are read from B in row chunks, so no
    n x n array is made.  Returns (theta, X, C X, iterations), X orthonormal.
    """
    n = C.r.size
    width = count + _GUARD
    d = C.diagonal()
    eps = np.finfo(float).eps
    norm = C.norm()
    tol = _RESIDUAL_FLOOR * eps * norm
    start = np.argsort(d, kind="stable")[:width]
    columns = C.columns(start)
    theta, Y = np.linalg.eigh(columns[start])
    X = np.zeros((n, width))
    X[start] = Y
    CX = columns @ Y
    P = None
    last, refreshed = np.full(width, np.inf), False
    for iterations in range(1, _MAX_ITERATIONS + 1):
        R = CX - X * theta
        res = np.linalg.norm(R, axis=0)
        # a stall within 8 times the floor is round-off in C X sitting above it
        done = (res <= tol) | ((res <= 8.0 * tol) & (res > 0.5 * last))
        done[count] |= res[count] <= 0.25 * (theta[count] - theta[count - 1])
        last = res
        if done[: count + 1].all():
            if refreshed:
                return theta, X, CX, iterations
            X = _orthonormal(X, [])
            CX = C @ X
            theta, Y = np.linalg.eigh(_sym(X.T @ CX))
            X, CX, refreshed = X @ Y, CX @ Y, True
            continue
        refreshed, active = False, ~done
        W = R[:, active] / np.maximum(np.abs(d[:, None] - theta[active]), eps * norm)
        W = _orthonormal(W, [X])
        if P is not None:  # the previous update, for the same columns
            W = np.hstack([W, _orthonormal(P[:, active], [X, W])])
        Q, CQ = np.hstack([X, W]), np.hstack([CX, C @ W])
        values, Y = np.linalg.eigh(_sym(Q.T @ CQ))
        theta, Y = values[:width], Y[:, :width]
        P = Q[:, width:] @ Y[width:]
        X, CX = Q @ Y, CQ @ Y
    return None


def _sym(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + H.T)


def _orthonormal(V: np.ndarray, bases: list) -> np.ndarray:
    """V made orthonormal and orthogonal to each orthonormal B of ``bases``:
    two passes of projection and SVQB (Stathopoulos & Wu, SIAM J. Sci.
    Comput. 23, 2002), which drops the directions of V below round-off."""
    for _ in range(2):
        for B in bases:
            V = V - B @ (B.T @ V)
        scale = np.linalg.norm(V, axis=0)
        scale[scale == 0.0] = 1.0
        e, U = np.linalg.eigh(_sym((V.T @ V) / np.outer(scale, scale)))
        keep = e > 1e-10 * e.max(initial=0.0)
        V = V @ ((U[:, keep] / np.sqrt(e[keep])) / scale[:, None])
    return V


def _positive_definite(C: _Reduced, X: np.ndarray, beta: np.ndarray, sigma: float) -> bool:
    """Whether G = C + X diag(beta) X^T - sigma I is positive definite: a
    left-looking Cholesky in panels of 128 columns whose factor goes into
    the lower triangle of C's stored block B, with no n x n temporary.  Each
    panel of G is read from B's rows, whose upper triangle still holds the
    block.  Afterwards B's lower triangle is mirrored back from the upper
    one and its diagonal restored from a copy, so B is bit for bit what it
    was, whether or not G is positive definite."""
    B, n = C.B, C.r.size
    diagonal = B.diagonal().copy()
    try:
        for j in range(0, n, 128):
            e = min(n, j + 128)
            G = C.rows(j, e, j)  # G[j:e, j:], the transpose of G's panel by symmetry
            G += (X[j:e] * beta) @ X[j:].T
            G[np.arange(e - j), np.arange(e - j)] -= sigma
            G -= B[j:e, :j] @ B[j:, :j].T  # the factor's columns so far
            try:
                L = np.linalg.cholesky(G[:, : e - j])
            except np.linalg.LinAlgError:
                return False
            np.copyto(B[j:e, j:e], L, where=np.tri(e - j, dtype=bool))
            B[e:, j:e] = np.linalg.solve(L, G[:, e - j :]).T
        return True
    finally:
        _mirror_upper(B)
        B.flat[:: n + 1] = diagonal


class SinePairs:
    """The lowest eigenpairs of one pencil as ``SineBasis.lowest`` solves it.

    ``values`` holds the lowest ``count`` eigenvalues, ascending (a stable
    merge of the two blocks); ``halves[b]`` holds block b's eigenvectors, as
    columns in its sine coordinates (None when none were asked for, no
    column when one pair was and the other block holds it).  Only
    ``vectors`` takes eigenvectors to the nodes, as many as its caller
    reads.  ``counters`` records the solve: the route, each block's LOBPCG
    iterations and how many blocks fell back to the dense solve.
    """

    def __init__(self, parts: tuple, count: int, route: str):
        w = np.concatenate([w for w, *_ in parts])
        self.order = np.argsort(w, kind="stable")[:count]
        self.values = w[self.order]
        self.first = parts[0][0].size
        self.halves = tuple(z for _, z, *_ in parts)
        self.counters = {
            "route": route,
            "iterations": [int(it) for _, _, it, _ in parts],
            "fallbacks": sum(int(back) for *_, back in parts),
        }

    def vectors(self, count: int) -> np.ndarray:
        """The eigenvectors of ``values[:count]`` at the nodes, as columns,
        orthonormal in p K + q M: one DST-I (its own inverse) of count rows."""
        n, first = sum(z.shape[0] for z in self.halves), self.first
        idx = self.order[:count]
        # row i of U holds the i-th eigenvector's sine coordinates; the DST
        # runs along the contiguous rows, in place
        U = np.zeros((count, n))
        for b, z in enumerate(self.halves):
            rows = np.flatnonzero((idx >= first) == b)
            U[rows[:, None], np.arange(b, n, 2)] = z[:, idx[rows] - b * first].T
        return _dst(U).T


@dataclass(eq=False)
class OperatorSystem:
    """Assembled forms for the operator -Laplace + alpha * (-Laplace)^s.

    K is the Dirichlet stiffness, S the Gagliardo form, M the mass matrix;
    the energy pairing is B(u, v) = u^T (K + alpha S) v.  All three are
    symmetric Toeplitz, held by their first columns; ``apply_K`` and
    ``apply_M`` multiply by K and M with ``tridiagonal_product``, ``apply_S``
    is the circulant embedding of S and ``apply_A`` their sum, ``s_rows`` S's
    rows as a window view of its column, and ``riesz`` (K^-1) and
    ``tau_solve`` (the inverse of A's absolute sine-basis diagonal) the two
    sine-diagonal solves.  The dense K, S, M and
    A = K + alpha S, ``sine`` and ``eigenpairs`` are built on first use and kept;
    ``eigenpairs`` holds the eigenvectors in sine coordinates and lifts them
    to the nodes on request.  ``solves`` maps each quantity solved on this
    system ("gamma", "pairs") to the counters of its last solve
    (``SinePairs.counters``), which the reports carry.
    """

    k_col: np.ndarray
    s_col: np.ndarray
    m_col: np.ndarray
    alpha: float
    s: float
    mesh: MeshInterval
    solves: dict = field(default_factory=dict, init=False, repr=False)

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

    _k_band = cached_property(lambda self: _band(self.k_col))
    _m_band = cached_property(lambda self: _band(self.m_col))

    def apply_K(self, X: np.ndarray) -> np.ndarray:
        a, b = self._k_band
        return tridiagonal_product(a, b, X)

    def apply_M(self, X: np.ndarray) -> np.ndarray:
        a, b = self._m_band
        return tridiagonal_product(a, b, X)

    def apply_S(self, X: np.ndarray) -> np.ndarray:
        """S @ X for X of shape (n,) or (n, m), without a dense S.

        S is the leading n x n block of the symmetric circulant of order 2n
        with first column (c_0, ..., c_(n-1), 0, c_(n-1), ..., c_1), which the
        real FFT diagonalizes: S X is the first n rows of that circulant
        applied to X padded with n zero rows, O(n log n) per column.  Columns
        go 64 at a time, so the FFT buffers stay O(n) however wide X is.
        """
        n, symbol = self.ndof, self._s_symbol
        X2 = X.reshape(n, -1)
        Y = np.empty(X2.shape)
        for j in range(0, X2.shape[1], 64):
            F = symbol * np.fft.rfft(X2[:, j : j + 64], 2 * n, axis=0)
            Y[:, j : j + 64] = np.fft.irfft(F, 2 * n, axis=0)[:n]
        return Y.reshape(X.shape)

    @cached_property
    def s_rows(self) -> np.ndarray:
        """The rows of S as a read-only view of 2n - 1 numbers (``_toeplitz_rows``): no dense S."""
        return _toeplitz_rows(self.s_col)

    @cached_property
    def _s_symbol(self) -> np.ndarray:
        """The eigenvalues of the circulant that embeds S, as a column (``apply_S``)."""
        return np.fft.rfft(np.r_[self.s_col, 0.0, self.s_col[:0:-1]]).real[:, None]

    def apply_A(self, X: np.ndarray) -> np.ndarray:
        """(K + alpha S) @ X by the stencil of K and the circulant product ``apply_S``."""
        return self.apply_K(X) + self.alpha * self.apply_S(X)

    @cached_property
    def _tau(self) -> np.ndarray:
        return np.abs(self.sine.k + self.alpha * self.sine.s_diagonal)

    def tau_solve(self, x: np.ndarray) -> np.ndarray:
        """Q diag(1/p) Q x for a vector x, p = |D_K + alpha diag(Q S Q)|: the
        inverse of the absolute sine-basis (tau) diagonal of A (Bini & Di
        Benedetto, SPAA 1990), symmetric positive definite, by two DSTs.
        Raises ``LinAlgError`` when some p_j is 0."""
        if not np.all(self._tau > 0.0):
            raise np.linalg.LinAlgError("the sine diagonal of A has a zero entry")
        return _sine_solve(x, self._tau)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """K^-1 g for a vector g, by two DSTs (K = Q diag(``sine.k``) Q): the
        Riesz representative in X = H^1_0 of the functional g, so that
        sqrt(g^T K^-1 g) is g's norm in the dual X*."""
        return _sine_solve(g, self.sine.k)

    @cached_property
    def sine(self) -> SineBasis:
        """K, S and M in the sine basis; shared by every ``with_alpha`` system."""
        return SineBasis(self.k_col, self.s_col, self.m_col)

    @cached_property
    def eigenpairs(self) -> SinePairs:
        """All eigenpairs of the pencil (A, M), ascending and unprocessed,
        solved in the sine basis (``SineBasis.lowest`` of every pair)."""
        return self.sine.lowest(self.ndof, 1.0, self.alpha, 0.0, 0.0, 1.0)

    def lowest(self, count: int) -> SinePairs:
        """At least the lowest ``count`` eigenpairs of (A, M): one
        ``SineBasis.lowest`` of ``count`` pairs where it takes the block
        route, else ``eigenpairs``, since the dense route solves the blocks
        whole anyway."""
        if _block_route(self.sine.blocks[0].shape[0], count):
            return self.sine.lowest(count, 1.0, self.alpha, 0.0, 0.0, 1.0)
        return self.eigenpairs

    def with_alpha(self, alpha: float) -> "OperatorSystem":
        """Same discretization, different coupling constant (the columns and ``sine`` are shared)."""
        other = replace(self, alpha=float(alpha))
        other.sine = self.sine
        return other


def build_system(mesh: MeshInterval, s: float, alpha: float) -> OperatorSystem:
    s = _check_s(s)
    columns = stiffness_column(mesh), gagliardo_column(mesh, s), mass_column(mesh)
    return OperatorSystem(*columns, alpha=float(alpha), s=s, mesh=mesh)


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
