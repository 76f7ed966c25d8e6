"""Uniform P1 mesh on an interval, with functions extended by zero outside it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["MeshInterval", "FeField", "build_mesh", "interpolate"]


@dataclass(frozen=True)
class MeshInterval:
    """Uniform partition of (a, b) into n_elem elements.

    Degrees of freedom sit at the n_elem - 1 interior nodes; the function
    value is pinned to zero at the endpoints and on the whole exterior of
    the interval.
    """

    a: float
    b: float
    n_elem: int
    h: float
    nodes: np.ndarray = field(repr=False, compare=False)  # a function of the other fields

    @property
    def ndof(self) -> int:
        return self.n_elem - 1


def build_mesh(a: float, b: float, n_elem: int) -> MeshInterval:
    """Build a uniform mesh of (a, b) with n_elem >= 2 equal elements."""
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"degenerate domain: need finite b > a, got a={a}, b={b}")
    if not isinstance(n_elem, (int, np.integer)) or isinstance(n_elem, bool) or n_elem < 2:
        raise ValueError(f"n_elem must be an integer >= 2, got {n_elem!r}")
    n_elem = int(n_elem)
    h = (b - a) / n_elem
    nodes = a + h * np.arange(1, n_elem)
    nodes.flags.writeable = False
    return MeshInterval(a=a, b=b, n_elem=n_elem, h=h, nodes=nodes)


@dataclass(frozen=True, eq=False)
class FeField:
    """Continuous piecewise-linear function: nodal values at interior nodes,
    zero at the endpoints and identically zero outside [a, b]."""

    coeffs: np.ndarray
    mesh: MeshInterval

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.mesh.ndof,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, "
                f"mesh has {self.mesh.ndof} degrees of freedom"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, mesh: MeshInterval) -> "FeField":
        return cls(np.zeros(mesh.ndof), mesh)

    def padded(self) -> np.ndarray:
        """Nodal values including the two (zero) boundary nodes."""
        out = np.zeros(self.mesh.n_elem + 1)
        out[1:-1] = self.coeffs
        return out

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values; zero outside [a, b]."""
        mesh = self.mesh
        xp = np.concatenate(([mesh.a], mesh.nodes, [mesh.b]))
        return np.interp(np.asarray(x, dtype=float), xp, self.padded())


def interpolate(g: Callable[[np.ndarray], np.ndarray], mesh: MeshInterval) -> FeField:
    """Nodal interpolant on the interior nodes of g, which maps the array of
    nodes to the array of values like a numpy ufunc."""
    vals = np.broadcast_to(np.asarray(g(mesh.nodes), dtype=float), mesh.nodes.shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"non-finite sample value {vals[i]!r} at node index {i} (x={mesh.nodes[i]})"
        )
    return FeField(vals, mesh)
