"""Finite elements, certified spectra and critical-point searches for the
mixed operator -Laplace + alpha * (-Laplace)^s with zero exterior values."""

__version__ = "0.1.0"

from .mesh import FeField, MeshInterval, build_mesh, interpolate
from .assembly import (
    OperatorSystem,
    assemble_gagliardo,
    build_system,
    dump_matrix,
    load_matrix,
)

__all__ = [
    "__version__",
    "FeField",
    "MeshInterval",
    "build_mesh",
    "interpolate",
    "OperatorSystem",
    "assemble_gagliardo",
    "build_system",
    "dump_matrix",
    "load_matrix",
]
