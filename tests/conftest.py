import numpy as np
import pytest

from mixlap import build_mesh, build_system
from mixlap.analysis import interpolation_constant
from mixlap.oracles import gagliardo_matrix_oracle
from mixlap.spectrum import alpha_threshold, solve_pencil


@pytest.fixture(scope="session")
def mesh8():
    return build_mesh(0.0, 1.0, 8)


@pytest.fixture(scope="session")
def mesh64():
    return build_mesh(0.0, 1.0, 64)


@pytest.fixture(scope="session")
def sys8_neg5(mesh8):
    return build_system(mesh8, 0.5, -5.0)


@pytest.fixture(scope="session")
def sys64_zero(mesh64):
    return build_system(mesh64, 0.5, 0.0)


@pytest.fixture(scope="session")
def sys64_neg5(mesh64):
    return build_system(mesh64, 0.5, -5.0)


@pytest.fixture(scope="session")
def spec64_neg5(sys64_neg5):
    return solve_pencil(sys64_neg5, 12)


@pytest.fixture(scope="session")
def interp64_neg5(sys64_neg5):
    """Interpolation constant of ``sys64_neg5``."""
    return interpolation_constant(sys64_neg5)


@pytest.fixture(scope="session")
def threshold256():
    """Crossing of the bottom eigenvalue for s = 0.5 on (0, 1), n_elem = 256."""
    sys = build_system(build_mesh(0.0, 1.0, 256), 0.5, 0.0)
    return alpha_threshold(sys, (-10.0, 0.0), tol=1e-8)


@pytest.fixture(scope="session")
def oracle_s_matrices():
    """Adaptive-quadrature Gagliardo matrices on n_elem = 4 for three orders."""
    mesh = build_mesh(0.0, 1.0, 4)
    return {s: gagliardo_matrix_oracle(mesh, s, eps=1e-10) for s in (0.25, 0.5, 0.75)}
