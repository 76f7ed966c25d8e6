import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlap import FeField, build_mesh, build_system, interpolate
from mixlap.functional import (
    AffineLinear,
    Custom,
    GrowthConstants,
    PowerPerturbed,
    J_eval,
    J_gradient,
    J_gradients,
    J_hessian,
    J_values,
    asymptotic_slopes,
    check_hypotheses,
)
from mixlap.spectrum import solve_pencil


# sample points of the unit interval for the hypothesis audits
X01 = np.linspace(0.05, 0.95, 9)


def zero_a(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_power_eval_values():
    nl = PowerPerturbed(1.0, 4.0)
    assert nl.f(0.3, 2.0) == 10.0
    assert nl.F(0.3, 2.0) == 6.0


def test_affine_at_zero_returns_a():
    nl = AffineLinear(3.0, lambda x: np.cos(x))
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(nl.f(xs, np.zeros_like(xs)), np.cos(xs))


def test_custom_primitive_quadrature():
    nl = Custom(
        f_fn=lambda x, t: np.cos(np.asarray(t, dtype=float)),
        F_fn=lambda x, t: np.sin(np.asarray(t, dtype=float)),
    )
    from scipy.integrate import quad

    for t in (-2.0, -0.5, 0.7, 3.0):
        # numeric primitive of f from 0 to t against the declared F
        approx, _ = quad(np.cos, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert abs(nl.F(0.0, t) - approx) < 1e-10


def test_custom_rejects_wrong_primitive():
    with pytest.raises(ValueError, match="primitive"):
        Custom(f_fn=lambda x, t: np.cos(t), F_fn=lambda x, t: np.asarray(t) * 2.0)


@pytest.mark.parametrize(
    "nl",
    [
        PowerPerturbed(1.0, 4.0),
        PowerPerturbed(-3.0, 2.5),
        AffineLinear(2.0, lambda x: np.sin(x)),
    ],
)
def test_primitive_vanishes_at_zero(nl):
    xs = np.linspace(-1, 1, 11)
    assert np.all(nl.F(xs, np.zeros_like(xs)) == 0.0)


def test_primitive_derivative_matches_f():
    rng = np.random.default_rng(0)
    nl = PowerPerturbed(-2.0, 3.5)
    xs = rng.uniform(0, 1, 1000)
    ts = rng.uniform(-5, 5, 1000)
    eps = 1e-6
    fd = (nl.F(xs, ts + eps) - nl.F(xs, ts - eps)) / (2 * eps)
    fv = nl.f(xs, ts)
    assert np.max(np.abs(fd - fv) / np.maximum(1.0, np.abs(fv))) < 1e-7


def test_energy_zero_field(sys64_neg5):
    assert J_eval(sys64_neg5, PowerPerturbed(1.0, 4.0), FeField.zero(sys64_neg5.mesh)) == 0.0


def test_energy_affine_matches_matrix_arithmetic(sys64_neg5):
    mesh = sys64_neg5.mesh
    lam = 2.5
    a_field = interpolate(lambda x: np.sin(2 * x), mesh)
    nl = AffineLinear(lam, a_field.evaluate)
    rng = np.random.default_rng(1)
    u = FeField(rng.standard_normal(mesh.ndof), mesh)
    got = J_eval(sys64_neg5, nl, u)
    quad = 0.5 * float(u.coeffs @ sys64_neg5.A @ u.coeffs)
    mass = 0.5 * lam * float(u.coeffs @ sys64_neg5.M @ u.coeffs)
    pair = float(a_field.coeffs @ sys64_neg5.M @ u.coeffs)
    assert abs(got - (quad - mass - pair)) < 1e-10 * max(1.0, abs(got))


def test_energy_ray_to_minus_infinity(sys64_zero):
    mesh = sys64_zero.mesh
    nl = PowerPerturbed(1.0, 4.0)
    u = interpolate(lambda x: np.sin(np.pi * x), mesh)
    vals = [J_eval(sys64_zero, nl, FeField(t * u.coeffs, mesh)) for t in (1e2, 1e3)]
    assert vals[0] < 0 and vals[1] < vals[0]


def test_gradient_quadratic_case(sys64_neg5):
    mesh = sys64_neg5.mesh
    nl = AffineLinear(0.0, zero_a)
    rng = np.random.default_rng(2)
    u = FeField(rng.standard_normal(mesh.ndof), mesh)
    g = J_gradient(sys64_neg5, nl, u)
    np.testing.assert_allclose(g.coeffs, sys64_neg5.A @ u.coeffs, rtol=1e-12, atol=1e-12)


def test_gradient_finite_difference(sys64_neg5):
    mesh = sys64_neg5.mesh
    rng = np.random.default_rng(3)
    for nl in (PowerPerturbed(2.0, 4.0), AffineLinear(1.5, lambda x: np.cos(3 * x))):
        u = FeField(rng.standard_normal(mesh.ndof), mesh)
        g = J_gradient(sys64_neg5, nl, u).coeffs
        eps = 1e-6
        fd = np.zeros_like(g)
        for i in range(mesh.ndof):
            up, dn = u.coeffs.copy(), u.coeffs.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (
                J_eval(sys64_neg5, nl, FeField(up, mesh))
                - J_eval(sys64_neg5, nl, FeField(dn, mesh))
            ) / (2 * eps)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6


def test_hessian_finite_difference(sys64_neg5):
    # the Hessian is the derivative of the gradient, along random directions
    mesh = sys64_neg5.mesh
    rng = np.random.default_rng(4)
    eps = 1e-6
    for nl in (PowerPerturbed(2.0, 4.0), AffineLinear(1.5, lambda x: np.cos(3 * x))):
        u = FeField(rng.standard_normal(mesh.ndof), mesh)
        H = J_hessian(sys64_neg5, nl, u)
        for _ in range(3):
            d = rng.standard_normal(mesh.ndof)
            fd = (
                J_gradient(sys64_neg5, nl, FeField(u.coeffs + eps * d, mesh)).coeffs
                - J_gradient(sys64_neg5, nl, FeField(u.coeffs - eps * d, mesh)).coeffs
            ) / (2 * eps)
            assert np.linalg.norm(H @ d - fd) / np.linalg.norm(H @ d) < 1e-6


def test_gradient_vanishes_at_eigenfield(sys64_neg5, spec64_neg5):
    k = 2
    nl = AffineLinear(float(spec64_neg5.lambdas[k - 1]), zero_a)
    u = FeField(spec64_neg5.vectors[:, k - 1], sys64_neg5.mesh)
    g = J_gradient(sys64_neg5, nl, u)
    scale = max(1.0, float(np.max(np.abs(sys64_neg5.A))))
    assert np.max(np.abs(g.coeffs)) < 1e-10 * scale


def test_affine_energy_exactly_quadratic(sys64_neg5):
    mesh = sys64_neg5.mesh
    lam = -1.7
    nl = AffineLinear(lam, lambda x: np.sin(5 * x))
    rng = np.random.default_rng(4)
    u = FeField(rng.standard_normal(mesh.ndof), mesh)
    v = FeField(rng.standard_normal(mesh.ndof), mesh)
    uv = FeField(u.coeffs + v.coeffs, mesh)
    lhs = (
        J_eval(sys64_neg5, nl, uv)
        - J_eval(sys64_neg5, nl, u)
        - float(J_gradient(sys64_neg5, nl, u).coeffs @ v.coeffs)
    )
    rhs = 0.5 * (
        float(v.coeffs @ sys64_neg5.A @ v.coeffs)
        - lam * float(v.coeffs @ sys64_neg5.M @ v.coeffs)
    )
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_nonfinite_primitive_rejected(sys64_zero):
    mesh = sys64_zero.mesh
    nl = Custom(
        f_fn=lambda x, t: np.asarray(t, dtype=float),
        F_fn=lambda x, t: np.asarray(t, dtype=float) ** 2 / 2,
    )
    big = FeField(np.full(mesh.ndof, 1e200), mesh)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            J_eval(sys64_zero, nl, big)


@pytest.mark.parametrize(
    "nl",
    [
        AffineLinear(2.5, lambda x: np.sin(2 * x)),
        PowerPerturbed(-3.0, 4.5),
        Custom(
            f_fn=lambda x, t: np.cos(x) * t + t**3,
            F_fn=lambda x, t: np.cos(x) * t**2 / 2 + t**4 / 4,
        ),
    ],
)
def test_block_energy_matches_single_fields(sys64_neg5, nl):
    mesh = sys64_neg5.mesh
    U = np.random.default_rng(3).standard_normal((7, mesh.ndof))
    vals = J_values(sys64_neg5, nl, U)
    grads = J_gradients(sys64_neg5, nl, U)
    assert vals.shape == (7,) and grads.shape == (7, mesh.ndof)
    for u, val, grad in zip(U, vals, grads):
        want = J_eval(sys64_neg5, nl, FeField(u, mesh))
        assert abs(val - want) <= 1e-13 * max(1.0, abs(want))
        want_g = J_gradient(sys64_neg5, nl, FeField(u, mesh)).coeffs
        assert np.max(np.abs(grad - want_g)) <= 1e-13 * max(1.0, np.max(np.abs(want_g)))


def test_block_energy_rejects_a_nonfinite_row(sys64_zero):
    nl = Custom(
        f_fn=lambda x, t: np.asarray(t, dtype=float),
        F_fn=lambda x, t: np.asarray(t, dtype=float) ** 2 / 2,
    )
    U = np.zeros((3, sys64_zero.ndof))
    U[1, 5] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError):
            J_values(sys64_zero, nl, U)
        with pytest.raises(FloatingPointError):
            J_gradients(sys64_zero, nl, U)
    with pytest.raises(ValueError, match="batch"):
        J_values(sys64_zero, nl, U[0])


def test_model_hypotheses_pass():
    nl = PowerPerturbed(1.0, 4.0)
    reports = {r.condition: r for r in check_hypotheses(nl, X01)}
    for cond in ("i", "ii", "iii", "slopes_zero"):
        assert reports[cond].passed, cond


def test_affine_growth_passes():
    nl = AffineLinear(3.0, lambda x: 1.0 + np.sin(x) ** 2)
    reports = {r.condition: r for r in check_hypotheses(nl, X01)}
    assert reports["f_lg"].passed
    assert reports["f_lg"].worst_violation <= 0.0
    assert reports["slopes_infinity"].passed


def test_wrong_mu_fails_with_witness():
    base = PowerPerturbed(1.0, 4.0)
    bad = PowerPerturbed(1.0, 4.0, growth=replace(base.growth, mu=8.0))
    rep = check_hypotheses(bad, X01, conditions=["iii"])[0]
    assert not rep.passed
    assert abs(rep.witness[1]) >= bad.growth.R


def test_envelope_audit_catches_a_declared_bound_too_small():
    # F - lam t^2/2 = t^4/4 exceeds (0.5/4) t^4 away from 0; a declared slope
    # above lam makes the excess negative near 0
    base = PowerPerturbed(-3.0, 4.0)
    assert {r.condition: r for r in check_hypotheses(base, X01)}["envelope"].passed
    small = check_hypotheses(PowerPerturbed(-3.0, 4.0, growth=replace(base.growth, b_upper=0.5)), X01, ["envelope"])[0]
    assert not small.passed and abs(small.witness[1]) > 1.0
    steep = check_hypotheses(PowerPerturbed(-3.0, 4.0, growth=replace(base.growth, A=-2.0)), X01, ["envelope"])[0]
    assert not steep.passed and abs(steep.witness[1]) < 1.0


def test_spectral_floor_audit_names_its_witness():
    # eq_1.8: F(x, t) >= lambda_k t^2 / 2; F = lam t^2/2 + t^4/4 clears any
    # floor below lam and falls short of one above it near t = 0
    base = PowerPerturbed(2.0, 4.0)
    low = PowerPerturbed(2.0, 4.0, growth=replace(base.growth, lambda_k=1.5))
    rep = {r.condition: r for r in check_hypotheses(low, X01)}["eq_1.8"]
    assert rep.passed and rep.worst_violation <= 0.0
    high = PowerPerturbed(2.0, 4.0, growth=replace(base.growth, lambda_k=2.5))
    rep = check_hypotheses(high, X01, conditions=["eq_1.8"])[0]
    assert not rep.passed and rep.worst_violation > 1e-3
    # the floor exceeds F exactly where t^4/4 < t^2/4, that is 0 < |t| < 1
    x, t = rep.witness
    assert x in X01 and 0.0 < abs(t) < 1.0
    floor, F = 2.5 * t**2 / 2.0, float(high.F(x, t))
    assert floor > F


def test_missing_metadata_raises():
    nl = PowerPerturbed(1.0, 4.0, growth=replace(PowerPerturbed(1.0, 4.0).growth, mu=None))
    with pytest.raises(ValueError, match="mu"):
        check_hypotheses(nl, X01, conditions=["iii"])


def test_slopes_affine_at_infinity():
    nl = AffineLinear(2.5, lambda x: np.cos(x))
    est = asymptotic_slopes(nl, "at_infinity", X01)
    assert not est.diverged and not est.inconclusive
    assert est.lower == pytest.approx(2.5, abs=1e-4)
    assert est.upper == pytest.approx(2.5, abs=1e-4)


def test_slopes_power_at_zero():
    nl = PowerPerturbed(-1.5, 4.0)
    est = asymptotic_slopes(nl, "at_zero", X01)
    assert est.lower == pytest.approx(-1.5, abs=1e-9)
    assert est.upper == pytest.approx(-1.5, abs=1e-9)


def test_slopes_power_diverges_at_infinity():
    est = asymptotic_slopes(PowerPerturbed(1.0, 4.0), "at_infinity", X01)
    assert est.diverged and est.upper == math.inf


def test_slopes_sample_the_callers_domain():
    # f = c(x) t + t^3 with c = 0 on [0, 1] and c = 50 beyond, declared as
    # f = 0 t + o(t): on (2, 3) the slope at zero is 50, which falsifies it
    def c(x):
        return np.where(np.asarray(x) > 1.0, 50.0, 0.0)

    nl = Custom(
        f_fn=lambda x, t: c(x) * t + t**3,
        F_fn=lambda x, t: c(x) * t**2 / 2 + t**4 / 4,
        growth=GrowthConstants(A=0.0),
    )
    xs = build_mesh(2.0, 3.0, 32).nodes
    est = asymptotic_slopes(nl, "at_zero", xs)
    assert est.upper == pytest.approx(50.0, rel=1e-9)
    rep = {r.condition: r for r in check_hypotheses(nl, xs)}["slopes_zero"]
    assert not rep.passed
    assert "declared A=0" in rep.note
    # the unit interval reads c = 0 and finds nothing wrong
    assert {r.condition: r for r in check_hypotheses(nl, X01)}["slopes_zero"].passed


@given(t=st.floats(-100, 100), lam=st.floats(-10, 10), p=st.floats(2.1, 6.0))
@settings(max_examples=80, deadline=None)
def test_power_primitive_identity(t, lam, p):
    nl = PowerPerturbed(lam, p)
    want = 0.5 * lam * t * t + abs(t) ** p / p
    assert nl.F(0.0, t) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_a_missing_constant_error_names_every_missing_constant():
    bare = Custom(f_fn=lambda x, t: t**3, F_fn=lambda x, t: t**4 / 4, growth=GrowthConstants(r=4.0))
    with pytest.raises(ValueError, match="^condition 'ii' needs declared constants 'a_bound', 'b'$"):
        check_hypotheses(bare, X01, conditions=["ii"])
    with pytest.raises(ValueError, match="^condition 'f_lg' needs declared constants 'a_bound', 'b'$"):
        check_hypotheses(bare, X01, conditions=["f_lg"])
    # the affine kind's own a(x) stands in for a_bound
    affine = AffineLinear(2.0, lambda x: np.cos(x), growth=GrowthConstants())
    with pytest.raises(ValueError, match="^condition 'f_lg' needs declared constants 'b'$"):
        check_hypotheses(affine, X01, conditions=["f_lg"])
