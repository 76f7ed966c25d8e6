"""Uniform P1 mesh on an interval, with functions extended by zero outside it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["MeshInterval", "FeField", "build_mesh", "interpolate"]


@dataclass(frozen=True, eq=False)
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
    nodes: np.ndarray = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.n_elem - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeshInterval):
            return NotImplemented
        return (self.a, self.b, self.n_elem) == (other.a, other.b, other.n_elem)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.n_elem))


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


def interpolate(g: Callable[[float], float], mesh: MeshInterval) -> FeField:
    """Nodal interpolant of g on the interior nodes."""
    try:
        vals = np.asarray(g(mesh.nodes), dtype=float)
        if vals.shape != mesh.nodes.shape:
            raise TypeError
    except Exception:
        vals = np.array([float(g(x)) for x in mesh.nodes])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"non-finite sample value {vals[i]!r} at node index {i} (x={mesh.nodes[i]})"
        )
    return FeField(vals, mesh)
