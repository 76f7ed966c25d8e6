import inspect
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg

from mixlap import FeField, assembly, build_mesh, build_system, interpolate, oracles, solvers
from mixlap.functional import (
    AffineLinear,
    Custom,
    J_eval,
    J_gradient,
    J_gradients,
    J_hessian_operator,
    J_values,
    PowerPerturbed,
    _apply_rows,
    _dot_rows,
    load_vector,
    weighted_mass,
)
from mixlap.solvers import (
    ResonanceError,
    SolverConfig,
    coercivity_gap,
    linking_search,
    newton_refine,
    solve_resolvent,
    verify_geometry,
)
from mixlap.spectrum import solve_pencil


def zero_a(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def ones_field(mesh):
    return interpolate(lambda x: np.ones_like(x), mesh)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def test_resolvent_homogeneous(sys64_neg5):
    rep = solve_resolvent(sys64_neg5, 3.21, FeField.zero(sys64_neg5.mesh))
    assert np.all(rep.u.coeffs == 0.0)
    assert rep.classification == "trivial"


def test_resolvent_poisson_baseline(sys64_zero):
    mesh = sys64_zero.mesh
    rep = solve_resolvent(sys64_zero, 0.0, ones_field(mesh))
    exact = mesh.nodes * (1 - mesh.nodes) / 2
    # right side is the interpolant of 1 (zero at the boundary), so nodal
    # agreement is second order rather than exact
    assert np.max(np.abs(rep.u.coeffs - exact)) < mesh.h**2
    assert rep.grad_norm <= 1e-10


def test_resolvent_matches_dense_oracle(mesh8):
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    lam = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    a = ones_field(mesh8)
    rep = solve_resolvent(sys, lam, a)
    dense = linalg.solve(sys.A - lam * sys.M, sys.M @ a.coeffs)
    assert np.max(np.abs(rep.u.coeffs - dense)) <= 1e-10
    assert rep.grad_norm <= 1e-10


def test_resolvent_near_resonance_is_certified(sys64_neg5):
    # a gap of 1e-6 relative to lambda_1 is outside the guard; the
    # eigenpair solve with refinement still certifies at round-off
    lam1 = float(sys64_neg5.eigenpairs.values[0])
    a = ones_field(sys64_neg5.mesh)
    for lam in (lam1 * (1.0 - 1e-6), lam1 * (1.0 + 1e-6)):
        rep = solve_resolvent(sys64_neg5, lam, a)
        assert rep.converged and rep.grad_norm <= 1e-10
        dense = linalg.solve(sys64_neg5.A - lam * sys64_neg5.M, sys64_neg5.M @ a.coeffs)
        assert np.max(np.abs(rep.u.coeffs - dense)) <= 1e-8 * np.max(np.abs(dense))


def test_resolvent_certificate_is_relative_to_the_size_of_u():
    # near resonance u is large, and so is the round-off in its gradient;
    # the same bound refuses a small perturbation along a far eigenfield
    cfg = SolverConfig(tol=1e-10)
    for n_elem, alpha, k in ((64, 0.0, 0), (256, -1.0, 2)):
        sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, alpha)
        w, V = sys.eigenpairs.values, sys.eigenpairs.vectors(sys.ndof)
        lam = float(w[k]) * (1.0 + 1e-6)
        rep = solve_resolvent(sys, lam, ones_field(sys.mesh), cfg)
        assert rep.converged, rep.grad_norm
        u = rep.u.coeffs + 1e-6 * np.max(np.abs(rep.u.coeffs)) * V[:, -1] / np.max(np.abs(V[:, -1]))
        nl = AffineLinear(lam, ones_field(sys.mesh).evaluate)
        gn = solvers._dual_norm(sys, J_gradient(sys, nl, FeField(u, sys.mesh)).coeffs)
        assert gn > cfg.tol * max(1.0, solvers._x_norm(sys, u))


def test_resolvent_resonance_rejected(sys64_neg5):
    lam1 = float(solve_pencil(sys64_neg5, 1).lambdas[0])
    with pytest.raises(ResonanceError, match="k=1"):
        solve_resolvent(sys64_neg5, lam1, ones_field(sys64_neg5.mesh))


def test_resolvent_guard_reads_the_cached_eigenvalues(monkeypatch, mesh8):
    # the resonance guard needs no processed eigenpairs: solve_pencil is never called
    def refuse(*args, **kwargs):
        raise AssertionError("solve_resolvent called solve_pencil")

    sys = build_system(mesh8, 0.5, -5.0)
    lam1 = float(sys.eigenpairs.values[0])
    monkeypatch.setattr(solvers, "solve_pencil", refuse)
    a = ones_field(mesh8)
    assert solve_resolvent(sys, lam1 + 1.0, a).converged
    with pytest.raises(ResonanceError, match="k=1") as err:
        solve_resolvent(sys, lam1, a)
    assert repr(lam1) in str(err.value)


def test_resolvent_unique_critical_point(sys64_neg5):
    # for the affine model away from the spectrum, Newton from random starts
    # lands on the resolvent solution (desk-scale uniqueness witness)
    mesh = sys64_neg5.mesh
    spec = solve_pencil(sys64_neg5, 3)
    lam = 0.5 * (spec.lambdas[1] + spec.lambdas[2])
    a = ones_field(mesh)
    target = solve_resolvent(sys64_neg5, lam, a).u.coeffs
    nl = AffineLinear(lam, a.evaluate)
    rng = np.random.default_rng(7)
    cfg = SolverConfig(tol=1e-9)
    for _ in range(20):
        u0 = FeField(rng.standard_normal(mesh.ndof), mesh)
        rep = newton_refine(sys64_neg5, nl, u0, cfg)
        assert rep.status == "converged"
        assert np.max(np.abs(rep.u.coeffs - target)) < 1e-7 * max(1.0, np.max(np.abs(target)))


# ---------------------------------------------------------------------------
# dual norm of the weak residual
# ---------------------------------------------------------------------------


def test_weak_residual_matrix_oracle(sys64_neg5):
    # the gradient norm that reports carry is the K^{-1} dual norm of the
    # weak residual phi -> B(u, phi) - int f(x, u) phi; for the affine model
    # that residual is (A - lam M) u - M a, whose dual norm is taken here
    # with a dense solve of K
    mesh = sys64_neg5.mesh
    lam = 4.2
    a = interpolate(lambda x: np.cos(2 * x), mesh)
    nl = AffineLinear(lam, a.evaluate)
    rng = np.random.default_rng(5)
    u = FeField(rng.standard_normal(mesh.ndof), mesh)
    got = solvers._dual_norm(sys64_neg5, J_gradient(sys64_neg5, nl, u).coeffs)
    g = (sys64_neg5.A - lam * sys64_neg5.M) @ u.coeffs - sys64_neg5.M @ a.coeffs
    want = float(np.sqrt(g @ linalg.solve(sys64_neg5.K, g)))
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------


def test_newton_at_eigenfield_is_immediate(sys64_neg5, spec64_neg5):
    k = 2
    nl = AffineLinear(float(spec64_neg5.lambdas[k - 1]), zero_a)
    u0 = FeField(spec64_neg5.vectors[:, k - 1], sys64_neg5.mesh)
    rep = newton_refine(sys64_neg5, nl, u0, SolverConfig())
    assert rep.iterations <= 1
    assert rep.grad_norm <= 1e-12


def test_newton_from_zero_finds_trivial(sys64_zero):
    rep = newton_refine(sys64_zero, PowerPerturbed(2.0, 4.0), FeField.zero(sys64_zero.mesh))
    assert rep.classification == "trivial"
    assert rep.grad_norm <= 1e-12


def test_newton_polishes_mountain_pass_output(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    mp = linking_search(sys64_zero, nl, 0, SolverConfig(tol=1e-8))
    assert mp.converged
    rep = newton_refine(sys64_zero, nl, mp.u, SolverConfig())
    assert rep.grad_norm <= 1e-10
    assert rep.iterations <= 10


# ---------------------------------------------------------------------------
# mountain pass: the minimax search at k = 0
# ---------------------------------------------------------------------------


def test_mountain_pass_baseline_certified(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    rep = linking_search(sys64_zero, nl, 0, SolverConfig(tol=1e-8))
    assert rep.converged and rep.status == "converged"
    assert rep.classification == "nontrivial"
    assert rep.J_value > 0
    assert rep.grad_norm <= 1e-8
    assert rep.geometry.certified and rep.geometry.k == 0
    assert rep.J_value >= rep.geometry.alpha_tilde


def test_mountain_pass_geometry_violation(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    rep = linking_search(sys64_zero, PowerPerturbed(1.1 * lam1, 4.0), 0, SolverConfig())
    assert rep.status == "geometry_violation"
    assert not rep.converged


def test_mountain_pass_samples_the_slope_on_its_own_domain():
    # f = c(x) t + t^3 with c = 0 on [0, 1] and c = 50 > lambda_1 beyond,
    # declared with the constants of the power model at slope A = 0: on
    # (2, 3) the slope at zero is 50, so the ground-level geometry fails, and
    # the sampled slope refuses what the declared constants would certify
    sys = build_system(build_mesh(2.0, 3.0, 32), 0.5, 0.0)
    lam1 = float(solve_pencil(sys, 1).lambdas[0])
    assert lam1 < 50.0

    def c(x):
        return np.where(np.asarray(x) > 1.0, 50.0, 0.0)

    growth = PowerPerturbed(0.0, 4.0).growth
    nl = Custom(f_fn=lambda x, t: c(x) * t + t**3, F_fn=lambda x, t: c(x) * t**2 / 2 + t**4 / 4, growth=growth)
    assert solvers._linking_bound(sys, nl, solvers._splitting(sys, 0))[0] > 0.0
    rep = linking_search(sys, nl, 0, SolverConfig())
    assert rep.status == "geometry_violation" and not rep.geometry.certified
    assert f"slope at zero 50 is not below lambda_1 = {lam1:.6g}" in rep.message


def test_mountain_pass_path_maximum_decreases(sys64_zero, monkeypatch):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    # suppress early Newton so the descent history is populated
    monkeypatch.setattr(solvers, "NEWTON_GATE_FACTOR", 0.0)
    cfg = SolverConfig(tol=1e-8, max_iter=120)
    rep = linking_search(sys64_zero, nl, 0, cfg)
    descent = [j for _, j, _ in rep.path_history]
    assert len(descent) >= 2
    for a, b in zip(descent, descent[1:]):
        assert b <= a + 1e-12


def test_mountain_pass_blowup_guard(sys64_zero, monkeypatch):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    monkeypatch.setattr(solvers, "BLOWUP_BOUND", 1e-9)
    rep = linking_search(sys64_zero, nl, 0, SolverConfig())
    assert rep.status == "blowup"
    assert not rep.converged


def test_blowup_reports_count_their_iterations(monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, 32), 0.5, 0.0)
    monkeypatch.setattr(solvers, "BLOWUP_BOUND", 1e-3)
    rep = linking_search(sys, PowerPerturbed(25.0, 4.0), 1, SolverConfig())
    assert rep.status == "blowup" and not rep.converged
    assert rep.iterations == len(rep.path_history) == 1
    lam1 = float(solve_pencil(sys, 1).lambdas[0])
    monkeypatch.setattr(solvers, "BLOWUP_BOUND", 1e-9)
    rep = linking_search(sys, PowerPerturbed(lam1 / 2, 4.0), 0, SolverConfig())
    assert rep.status == "blowup"
    assert rep.iterations == len(rep.path_history)


# ---------------------------------------------------------------------------
# geometry probe and coercivity gap
# ---------------------------------------------------------------------------


def test_geometry_ground_level_power(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    geo = verify_geometry(sys64_zero, PowerPerturbed(lam1 / 2, 4.0), 0)
    assert geo.mode == "linking"
    assert geo.alpha_tilde > 0
    assert geo.certified


def test_geometry_quadratic_eigenexpansion(sys64_zero):
    spec = solve_pencil(sys64_zero, 3)
    lam = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    geo = verify_geometry(sys64_zero, AffineLinear(lam, zero_a), 1)
    assert geo.mode == "saddle"
    assert geo.certified
    # with zero forcing the infimum over the complement is attained at zero
    assert geo.alpha_tilde == pytest.approx(0.0, abs=1e-12)
    # supremum of the pure quadratic on the X-sphere of radius T in the span
    # of the first eigenfield: T^2/2 * (1 - lam/lambda_1)
    lam1 = spec.lambdas[0]
    want = 0.5 * geo.rho_big**2 * (1.0 - lam / lam1)
    assert geo.boundary_sup == pytest.approx(want, rel=1e-6)
    assert geo.boundary_sup < 0


def test_affine_saddle_matches_the_dense_projected_solve():
    # with nonzero forcing the infimum over the complement sits at the solution
    # of V^T (A - lam M) V c = V^T ell, which the splitting has diagonalized
    mesh = build_mesh(0.0, 1.0, 64)
    sys = build_system(mesh, 0.5, -1.0)
    lambdas, _, V = solvers._splitting(sys, 1)
    nl = AffineLinear(0.5 * (lambdas[0] + lambdas[1]), lambda x: np.cos(2.0 * x) + 0.3)
    c = np.linalg.solve(V.T @ (sys.A - nl.lam * sys.M) @ V, V.T @ load_vector(mesh, nl.a))
    dense = J_eval(sys, nl, FeField(V @ c, mesh))
    geo = verify_geometry(sys, nl, 1)
    assert geo.mode == "saddle"
    assert abs(dense) > 1e-3
    assert geo.alpha_tilde == pytest.approx(dense, rel=1e-10)


def test_geometry_violated_slope_above_next_eigenvalue(sys64_zero):
    spec = solve_pencil(sys64_zero, 3)
    lam = 1.5 * spec.lambdas[1]  # above lambda_2: k=1 coercivity gap closes
    geo = verify_geometry(sys64_zero, PowerPerturbed(lam, 4.0), 1)
    assert not geo.certified
    beta = coercivity_gap(sys64_zero, lam, 1)
    assert beta <= 0


def test_coercivity_gap_positive_below(sys64_zero):
    spec = solve_pencil(sys64_zero, 3)
    for theta in np.linspace(spec.lambdas[0], spec.lambdas[1], 5)[:-1]:
        assert coercivity_gap(sys64_zero, float(theta), 1) > 0


def test_coercivity_gap_closes_at_next_eigenvalue(sys64_zero):
    spec = solve_pencil(sys64_zero, 2)
    beta = coercivity_gap(sys64_zero, float(spec.lambdas[1]), 1)
    assert abs(beta) <= 1e-8


def test_coercivity_gap_multistart_oracle(mesh8):
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    k = 1
    theta = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    beta = coercivity_gap(sys, float(theta), k)
    # direct multistart minimization of the quotient over the complement
    diag, off = weighted_mass(mesh8, float(theta))
    M_th = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    V = solve_pencil(sys, 7).vectors[:, k:]
    Ar = V.T @ (sys.A - M_th) @ V
    Kr = V.T @ sys.K @ V
    from mixlap.oracles import rayleigh_min_oracle

    direct = rayleigh_min_oracle(Ar, Kr, trials=8, seed=0)
    assert beta == pytest.approx(direct, abs=1e-6)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("n_elem", [8, 64, 512])
def test_ground_level_gap_and_nu_match_the_projected_splitting(n_elem, s):
    # at k = 0 the complement is the whole space, so the linking bound reads
    # g and nu from the sine basis; the reference is the projected route of
    # the levels k >= 1 through every lifted eigenfield.  theta above
    # lambda_1 closes the gap (g < 0)
    sys = build_system(build_mesh(0.0, 1.0, n_elem), s, -1.0)
    full = solve_pencil(sys, sys.ndof)
    KV = full.vectors.T @ sys.apply_K(full.vectors)
    L_inv = np.linalg.inv(np.linalg.cholesky(KV))
    nu_ref = float(np.linalg.eigvalsh(KV)[0])
    split = solvers._splitting(sys, 0)
    for theta in (float(full.lambdas[0]) - 1.0, float(full.lambdas[0]) + 1.0):
        g_ref = float(np.linalg.eigvalsh(L_inv @ np.diag(full.lambdas - theta) @ L_inv.T)[0])
        nl = PowerPerturbed(theta, 4.0)
        g, c_r, r, _ = solvers._linking_bound(sys, nl, split)
        nu = nl.growth.b_upper * (np.sqrt(sys.mesh.b - sys.mesh.a) / 2.0) ** (r - 2.0) / (r * c_r)
        assert g == pytest.approx(g_ref, rel=1e-10) and (g > 0.0) == (theta < full.lambdas[0])
        assert coercivity_gap(sys, theta, 0) == g
        assert nu == pytest.approx(nu_ref, rel=1e-10)


@pytest.mark.parametrize("n_elem", [2, 64])
def test_ground_level_search_lifts_at_most_two_eigenvectors(n_elem, monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, 0.0)
    nl = PowerPerturbed(float(solve_pencil(sys, 1).lambdas[0]) / 2, 4.0)
    real = assembly.SinePairs.vectors
    lifted = []

    def counting(pairs, count):
        lifted.append(count)
        return real(pairs, count)

    monkeypatch.setattr(assembly.SinePairs, "vectors", counting)
    assert linking_search(sys, nl, 0, SolverConfig(tol=1e-8)).converged
    assert lifted and max(lifted) <= min(sys.ndof, 2)


def test_solvers_leave_the_quadrature_to_functional():
    # the Gauss-point layout is private to functional: the solvers reach it
    # only through J, its gradient and Hessian, load_vector and weighted_mass
    source = inspect.getsource(solvers)
    assert "_quad_points" not in source
    assert "_field_at_quad" not in source


# ---------------------------------------------------------------------------
# linking search
# ---------------------------------------------------------------------------


def test_linking_level_one(sys64_zero):
    spec = solve_pencil(sys64_zero, 2)
    lam = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    rep = linking_search(sys64_zero, PowerPerturbed(lam, 4.0), 1, SolverConfig(tol=1e-6))
    assert rep.converged
    assert rep.classification == "nontrivial"
    assert rep.grad_norm <= 1e-6
    assert rep.J_value > 0
    # the report carries the geometry probe that gated the search
    assert rep.geometry.certified
    assert rep.geometry.boundary_sup <= 0.0
    assert rep.geometry.alpha_tilde > 0.0


def test_linking_reduces_to_mountain_pass(sys64_zero):
    # at k = 0 the level is the mountain-pass value inf_v max_t J(t v): the
    # point tops J on its own ray, and no higher than J tops the ray of u_1
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    lk = linking_search(sys64_zero, nl, 0, SolverConfig(tol=1e-8))
    assert lk.converged and lk.geometry.certified
    ts = np.linspace(0.0, 3.0, 301)
    on_ray = J_values(sys64_zero, nl, np.outer(ts, lk.u.coeffs))
    assert np.max(on_ray) <= lk.J_value * (1.0 + 1e-12)
    u1 = solve_pencil(sys64_zero, 1).vectors[:, 0]
    on_u1 = J_values(sys64_zero, nl, np.outer(np.linspace(0.0, 20.0, 2001), u1))
    assert np.argmax(on_u1) < on_u1.size - 1  # the grid holds the peak on the ray of u_1
    assert lk.J_value <= np.max(on_u1)


def test_linking_level_two(sys64_zero):
    lambdas = solve_pencil(sys64_zero, 3).lambdas
    nl = PowerPerturbed(0.5 * (lambdas[1] + lambdas[2]), 4.0)
    rep = linking_search(sys64_zero, nl, 2, SolverConfig(tol=1e-8))
    assert rep.converged and rep.iterations <= 20
    assert abs(rep.J_value - 101.21020264920901) <= 1e-10


def test_linking_geometry_not_certified_reported(sys64_zero):
    spec = solve_pencil(sys64_zero, 3)
    lam = 1.5 * spec.lambdas[1]
    rep = linking_search(sys64_zero, PowerPerturbed(lam, 4.0), 1, SolverConfig())
    assert rep.status == "geometry_violation"
    assert not rep.converged
    assert rep.geometry is not None and not rep.geometry.certified


def test_linking_search_carries_the_geometry_of_verify_geometry():
    # the search hands its own splitting to the probe: same geometry
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    nl = PowerPerturbed(25.0, 4.0)
    rep = linking_search(sys, nl, 1, SolverConfig())
    assert rep.geometry.certified
    assert rep.geometry == verify_geometry(sys, nl, 1)


def _sys_10b_64(threshold256):
    sys = build_system(build_mesh(0.0, 1.0, 64), 0.5, threshold256.alpha_star - 0.5)
    return sys, PowerPerturbed(float(solve_pencil(sys, 1).lambdas[0]) / 2, 4.0)


@pytest.mark.parametrize("case", ["linking-64", "10b-64"])
def test_sampled_geometry_never_undercuts_the_bound(case, sys64_zero, threshold256, monkeypatch):
    # the sampled sphere infimum lies on or above the certified lower bound at
    # every radius of the oracle's grid and at rho_small, where the bound is
    # alpha_tilde; J sampled on the certified half-cylinder's boundary is <= 0
    if case == "linking-64":
        sys, nl = sys64_zero, PowerPerturbed(25.0, 4.0)
    else:
        sys, nl = _sys_10b_64(threshold256)
    split = solvers._splitting(sys, 1)
    geo = verify_geometry(sys, nl, 1)
    assert geo.certified and geo.alpha_tilde > 0.0 and geo.rho_big > geo.rho_small
    g, c_r, r, _ = solvers._linking_bound(sys, nl, split)
    assert 0.5 * g * geo.rho_small**2 - c_r * geo.rho_small**r == pytest.approx(geo.alpha_tilde, rel=1e-12)
    radii = oracles.RHO_GRID + (geo.rho_small,)
    monkeypatch.setattr(oracles, "RHO_GRID", radii)
    rng = np.random.default_rng(0)
    for rho, (val, _) in zip(radii, oracles._sphere_min(sys, nl, split[2], rng)):
        assert val >= 0.5 * g * rho**2 - c_r * rho**r, rho
    v = split[2][:, 0]
    v_dir = v / np.sqrt(v @ sys.apply_K(v))
    assert oracles._delta_boundary_max(sys, nl, split[1], v_dir, geo.rho_big, rng) <= 0.0


def test_linking_bound_refuses_a_kind_without_its_growth_constants():
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    power = PowerPerturbed(25.0, 4.0)

    def f(x, t):
        return 25.0 * t + t**3

    def F(x, t):
        return 12.5 * t**2 + t**4 / 4

    with pytest.raises(ValueError) as err:
        verify_geometry(sys, Custom(f_fn=f, F_fn=F), 1)
    for name in solvers.LINKING_CONSTANTS:
        assert repr(name) in str(err.value)
    with pytest.raises(ValueError, match="needs declared constants 'b_upper'$"):
        linking_search(sys, PowerPerturbed(25.0, 4.0, growth=replace(power.growth, b_upper=None)), 1)
    # the same f with the power model's constants declared is certified alike
    declared = Custom(f_fn=f, F_fn=F, growth=power.growth)
    assert verify_geometry(sys, declared, 1) == verify_geometry(sys, power, 1)



def test_linking_level_below_the_bound_is_not_converged():
    # b_upper = 0.05 understates the envelope of 25 t + t^3 (its true value
    # is 1): the bound then certifies alpha_tilde above the level the search
    # finds, which the linking theorem rules out for true constants
    sys = build_system(build_mesh(0.0, 1.0, 64), 0.5, 0.0)
    power = PowerPerturbed(25.0, 4.0)

    def f(x, t):
        return 25.0 * t + t**3

    def F(x, t):
        return 12.5 * t**2 + t**4 / 4

    wrong = linking_search(sys, Custom(f_fn=f, F_fn=F, growth=replace(power.growth, b_upper=0.05)), 1)
    assert wrong.geometry.certified and wrong.J_value < wrong.geometry.alpha_tilde
    assert not wrong.converged and wrong.status == "below_linking_bound"
    assert f"J={wrong.J_value:.6g}" in wrong.message
    assert f"alpha_tilde={wrong.geometry.alpha_tilde:.6g}" in wrong.message
    right = linking_search(sys, power, 1)
    assert right.converged and right.J_value == pytest.approx(wrong.J_value, rel=1e-12)
    assert right.J_value >= right.geometry.alpha_tilde

def test_one_full_eigensolve_serves_every_consumer(monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    # a solve of A, whole or as a sine-basis block, is seen by value however
    # its matrix was made
    blocks = (sys.sine.scaled(b, 1.0, sys.alpha, 0.0, 0.0, 1.0).dense() for b in (0, 1))
    targets = [("whole", sys.A), *zip(("even", "odd"), blocks)]
    real_eigh = np.linalg.eigh
    full_solves = []

    def counting_eigh(a, *args, **kwargs):
        full_solves.extend(
            (name, kwargs)
            for name, x in targets
            if np.shape(a) == x.shape and np.array_equal(a, x)
        )
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    spec = solve_pencil(sys, 2)
    solve_pencil(sys, sys.ndof)
    lam = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    verify_geometry(sys, PowerPerturbed(lam, 4.0), 1)
    assert linking_search(sys, PowerPerturbed(lam, 4.0), 1, SolverConfig(tol=1e-6)).converged
    assert solve_resolvent(sys, 1.0, ones_field(sys.mesh)).converged
    assert full_solves == [("even", {}), ("odd", {})]


def _one_radius(sys, nl, V, rho, rng):
    """The sphere descent of one radius, as ``oracles._sphere_min`` ran it
    before the radii shared a block: same starts, steps and acceptance test."""
    nsub = V.shape[1]
    KV = sys.K @ V
    starts = [np.eye(nsub)[j] for j in range(min(nsub, 3))]
    starts += [rng.standard_normal(nsub) for _ in range(oracles.SPHERE_RESTARTS)]
    C = np.array(starts)

    def on_sphere(Cb):
        W = _apply_rows(V, Cb)
        r = oracles._x_norms(sys, W)
        return W, r, (rho / r)[:, None] * W

    active = np.arange(len(C))
    last = np.full(len(C), np.inf)
    for _ in range(300):
        if active.size == 0:
            break
        W, r, U = on_sphere(C[active])
        G = J_gradients(sys, nl, U)
        GC = (rho / r)[:, None] * (
            _apply_rows(V.T, G) - (_dot_rows(W, G) / r**2)[:, None] * _apply_rows(KV.T, W)
        )
        gn = np.sqrt(_dot_rows(GC, GC))
        val = J_values(sys, nl, U)
        step = np.minimum(0.5 / np.maximum(1.0, gn), 4.0 * last[active])
        improved = np.zeros(active.size, dtype=bool)
        trying = (gn >= 1e-12 * np.maximum(1.0, np.abs(val))) & (step > 1e-14)
        while trying.any():
            t = np.flatnonzero(trying)
            C_try = C[active[t]] - step[t, None] * GC[t]
            ok = J_values(sys, nl, on_sphere(C_try)[2]) < val[t] - 1e-12
            C[active[t[ok]]] = C_try[ok]
            last[active[t[ok]]] = step[t[ok]]
            improved[t[ok]] = True
            step[t[~ok]] *= 0.5
            trying[t] = ~ok & (step[t] > 1e-14)
        active = active[improved]
    results = np.sort(J_values(sys, nl, on_sphere(C)[2]))
    second = results[1] if results.size > 1 else results[0]
    return float(results[0]), float((second - results[0]) / (1.0 + abs(results[0])))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_elem", [16, 32])
def test_lockstep_radii_match_one_radius_at_a_time(n_elem, seed):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, 0.0)
    nl = PowerPerturbed(25.0, 4.0)
    V = solvers._splitting(sys, 1)[2]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [_one_radius(sys, nl, V, rho, ref_rng) for rho in oracles.RHO_GRID]
    assert oracles._sphere_min(sys, nl, V, rng) == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # later draws are unchanged


def test_linking_search_solves_the_splitting_once(monkeypatch):
    # the probe and the peak selection share one post-processed splitting
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    real = solvers.solve_pencil
    full = []

    def counting(s, m, *args, **kwargs):
        full.append(m == s.ndof)
        return real(s, m, *args, **kwargs)

    monkeypatch.setattr(solvers, "solve_pencil", counting)
    assert linking_search(sys, PowerPerturbed(25.0, 4.0), 1, SolverConfig(tol=1e-6)).converged
    assert full == [True]


def test_affine_saddle_probe_refuses_a_slope_past_the_next_eigenvalue():
    # lam = 64.5 lies between lambda_2 and lambda_3: J is unbounded below on
    # the complement of u_1 along u_2, so no saddle value exists there
    sys = build_system(build_mesh(0.0, 1.0, 32), 0.5, 0.0)
    lambdas = solve_pencil(sys, 3).lambdas
    assert lambdas[1] < 64.5 < lambdas[2]
    nl = AffineLinear(64.5, lambda x: np.ones_like(np.asarray(x, dtype=float)))
    geo = verify_geometry(sys, nl, 1)
    assert not geo.certified
    assert geo.mode == "saddle" and geo.alpha_tilde == -np.inf
    rep = linking_search(sys, nl, 1)
    assert rep.status == "geometry_violation" and not rep.converged
    assert "not below lambda_2" in rep.message


@pytest.mark.parametrize("k", [2, 3, 4])
def test_affine_sphere_bound_holds_on_sampled_fields(k):
    # J on 10^4 random fields of the X-sphere of radius rho_big in
    # span(u_1..u_k), and on the eigenfields themselves, never exceeds the
    # closed-form bound, which lies below the infimum over the complement
    sys = build_system(build_mesh(0.0, 1.0, 64), 0.5, -1.0)
    lambdas, U, _ = solvers._splitting(sys, k)
    nl = AffineLinear(0.5 * (lambdas[k - 1] + lambdas[k]), lambda x: np.cos(2.0 * x) + 0.3)
    geo = verify_geometry(sys, nl, k)
    assert geo.mode == "saddle" and geo.certified
    assert geo.boundary_sup < geo.alpha_tilde < 0.0
    rng = np.random.default_rng(0)
    W = np.vstack([np.eye(k), -np.eye(k), rng.standard_normal((10_000, k))]) @ U.T
    W *= (geo.rho_big / oracles._x_norms(sys, W))[:, None]
    assert np.max(J_values(sys, nl, W)) <= geo.boundary_sup + 1e-10 * abs(geo.boundary_sup)


@pytest.mark.parametrize("k", [1, 2])
def test_affine_saddle_probe_refuses_a_slope_not_above_lambda_k(k):
    # lam < lambda_k: J grows along u_k, so no sphere in span(u_1..u_k)
    # is certified to lie below the infimum over the complement
    sys = build_system(build_mesh(0.0, 1.0, 32), 0.5, 0.0)
    lambdas = solve_pencil(sys, 3).lambdas
    lam = lambdas[0] - 1.0 if k == 1 else 0.5 * (lambdas[0] + lambdas[1])
    nl = AffineLinear(lam, lambda x: np.ones_like(np.asarray(x, dtype=float)))
    geo = verify_geometry(sys, nl, k)
    assert not geo.certified and geo.mode == "saddle" and np.isnan(geo.alpha_tilde)
    rep = linking_search(sys, nl, k)
    assert rep.status == "geometry_violation" and not rep.converged
    assert f"is not above lambda_{k}" in rep.message


def test_superlinear_probe_refuses_a_slope_below_lambda_k():
    # slope 5 < lambda_1: the ground level, not level 1; the sampled
    # half-cylinder boundary misses where J > 0 near the origin along u_1
    sys = build_system(build_mesh(0.0, 1.0, 32), 0.5, 0.0)
    assert solve_pencil(sys, 1).lambdas[0] > 5.0
    geo = verify_geometry(sys, PowerPerturbed(5.0, 4.0), 1)
    assert not geo.certified and geo.mode == "linking"
    rep = linking_search(sys, PowerPerturbed(5.0, 4.0), 1)
    assert rep.status == "geometry_violation"
    assert "is not above lambda_1" in rep.message
    # the ground level itself is still probed
    assert verify_geometry(sys, PowerPerturbed(5.0, 4.0), 0).certified


def _peak_setup(k):
    # slope between lambda_k and lambda_{k+1}; W = [u_1..u_k, u_{k+1}].  The
    # cubic's weight 1 + x breaks the mirror symmetry of the mesh, so the
    # peak has components along every column of W, not only the ray
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    lambdas, U, V = solvers._splitting(sys, k)
    lam = 0.5 * (lambdas[k - 1] + lambdas[k])
    nl = Custom(
        lambda x, t: lam * t + (1.0 + x) * t**3,
        lambda x, t: 0.5 * lam * t**2 + 0.25 * (1.0 + x) * t**4,
        lambda x, t: lam + 3.0 * (1.0 + x) * t**2,
    )
    return sys, nl, np.column_stack([U, V[:, 0]])


def _reduced(sys, nl, W, c):
    u = FeField(W @ c, sys.mesh)
    H = W.T @ (J_hessian_operator(sys, nl, u) @ W)
    return W.T @ J_gradient(sys, nl, u).coeffs, 0.5 * (H + H.T)


@pytest.mark.parametrize("k, points", [(1, 241), (2, 41)])
def test_newton_peak_is_the_maximum_over_the_span(k, points):
    sys, nl, W = _peak_setup(k)
    c0 = np.zeros(k + 1)
    c0[-1] = 1.0
    c, val = solvers._peak(sys, nl, W, c0)
    g, H = _reduced(sys, nl, W, c)
    assert np.max(np.abs(g)) <= 1e-10
    assert np.max(np.linalg.eigvalsh(H)) < 0.0
    assert val == pytest.approx(J_eval(sys, nl, FeField(W @ c, sys.mesh)), rel=1e-14)
    # J is even, so the grid takes the ray coefficient nonnegative
    axes = [np.linspace(-6.0, 6.0, points)] * k + [np.linspace(0.0, 6.0, points)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k + 1)
    assert np.all(np.max(np.abs(grid), axis=0) > np.abs(c))  # the grid encloses the peak
    best = max(
        float(np.max(J_values(sys, nl, grid[i:i + 4096] @ W.T)))
        for i in range(0, len(grid), 4096)
    )
    assert val >= best - 1e-10 * abs(best)


@pytest.mark.parametrize("k", [1, 2])
def test_newton_peak_from_near_zero_reaches_the_same_peak(k):
    # near 0 the reduced Hessian is A - lam M on the span, indefinite
    # because the slope lies between lambda_k and lambda_{k+1}
    sys, nl, W = _peak_setup(k)
    c_near = np.full(k + 1, 1e-3)
    assert np.max(np.linalg.eigvalsh(_reduced(sys, nl, W, c_near)[1])) > 0.0
    c0 = np.zeros(k + 1)
    c0[-1] = 1.0
    c_ref, val_ref = solvers._peak(sys, nl, W, c0)
    c, val = solvers._peak(sys, nl, W, c_near)
    assert val == pytest.approx(val_ref, rel=1e-12)
    assert np.allclose(c, c_ref, rtol=0.0, atol=1e-8 * np.max(np.abs(c_ref)))
    assert c[-1] >= 0.0


# ---------------------------------------------------------------------------
# branches of the search the workloads never reach
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sys32_zero():
    return build_system(build_mesh(0.0, 1.0, 32), 0.5, 0.0)


def test_failed_certificate_quarters_the_newton_gate(sys32_zero, monkeypatch):
    real_newton, real_certify = solvers.newton_refine, solvers._certify
    attempts, refinements = [], []

    def failing_once(*args):
        rep = real_newton(*args)
        refinements.append(rep)
        return replace(rep, grad_norm=np.inf) if len(refinements) == 1 else rep

    def recording(sys, nl, c, cfg, hist, *rest):
        attempts.append(hist[-1])
        return real_certify(sys, nl, c, cfg, hist, *rest)

    monkeypatch.setattr(solvers, "newton_refine", failing_once)
    monkeypatch.setattr(solvers, "_certify", recording)
    rep = linking_search(sys32_zero, PowerPerturbed(5.0, 4.0), 0)
    assert rep.converged and len(attempts) == 2
    gate = solvers.NEWTON_GATE_FACTOR * rep.path_history[0][2]
    (first, _, gn_first), (second, _, gn_second) = attempts
    assert gn_first <= gate
    # the iterations between the attempts were under the first gate, not the quartered one
    between = [gn for it, _, gn in rep.path_history if first < it < second]
    assert between and min(between) > 0.25 * gate >= gn_second


def test_one_iteration_ends_at_the_final_certificate(sys32_zero):
    nl = PowerPerturbed(5.0, 4.0)
    capped = linking_search(sys32_zero, nl, 0, SolverConfig(tol=1e-300, max_iter=1))
    assert capped.status == "max_iterations" and not capped.converged
    assert len(capped.path_history) == 1 and capped.iterations > 1  # one descent step, then Newton
    assert capped.geometry.certified
    # with the default tolerance the same single step is polished and certified
    assert linking_search(sys32_zero, nl, 0, SolverConfig(max_iter=1)).converged


def test_a_descent_that_cannot_lower_the_peak_stagnates(sys32_zero, monkeypatch):
    real_peak = solvers._peak
    levels = []

    def level(sys, nl, W, c0):
        c, val = real_peak(sys, nl, W, c0)
        levels.append(val)
        return c, levels[0]  # every trial peak is as high as the first

    monkeypatch.setattr(solvers, "_peak", level)
    rep = linking_search(sys32_zero, PowerPerturbed(5.0, 4.0), 0, SolverConfig(tol=1e-300))
    assert rep.status == "stagnation" and not rep.converged
    assert len(rep.path_history) == 1
    assert rep.message == f"descent stalled with gradient norm {rep.path_history[0][2]:.3e}"


def test_newton_reports_divergence_when_no_step_lowers_the_residual(sys32_zero, monkeypatch):
    nl = PowerPerturbed(5.0, 4.0)
    u = linking_search(sys32_zero, nl, 0).u
    real_hessian = solvers.J_hessian_operator

    class Negated:
        def __init__(self, op):
            self.op = op

        def __matmul__(self, X):
            return -(self.op @ X)

    # the negated Hessian points every Newton step uphill in the residual
    monkeypatch.setattr(solvers, "J_hessian_operator", lambda sys, nl, u: Negated(real_hessian(sys, nl, u)))
    rep = newton_refine(sys32_zero, nl, FeField(1.001 * u.coeffs, sys32_zero.mesh))
    assert rep.status == "diverged" and not rep.converged and rep.iterations == 0
    assert rep.grad_norm > solvers.NEWTON_TOL


def test_peak_keeps_the_ray_component_nonnegative(sys32_zero):
    nl = PowerPerturbed(5.0, 4.0)
    W = solve_pencil(sys32_zero, 1).vectors
    c_neg, val_neg = solvers._peak(sys32_zero, nl, W, np.array([-1.0]))
    c_pos, val_pos = solvers._peak(sys32_zero, nl, W, np.array([1.0]))
    assert c_neg[-1] > 0.0
    assert c_neg == pytest.approx(c_pos, rel=1e-12) and val_neg == pytest.approx(val_pos, rel=1e-12)


def test_probe_refuses_an_unreliable_slope_at_zero(sys32_zero):
    # f = t + |t|^0.01 t: f/t = 1 + |t|^0.01 has not settled in the last decades before 0
    rep = linking_search(sys32_zero, PowerPerturbed(1.0, 2.01), 0)
    assert rep.status == "geometry_violation" and not rep.converged
    assert rep.message == "linking geometry not certified at k=0: slope estimate at zero is unreliable: inconclusive"
    geo = rep.geometry
    assert not geo.certified and np.isnan([geo.rho_small, geo.alpha_tilde, geo.rho_big, geo.boundary_sup]).all()


def test_probe_refuses_a_declared_slope_not_below_the_next_eigenvalue(sys32_zero):
    lam1 = float(solve_pencil(sys32_zero, 1).lambdas[0])
    base = PowerPerturbed(1.0, 4.0)
    geo, refusal, bound = solvers._probe(
        sys32_zero, PowerPerturbed(1.0, 4.0, growth=replace(base.growth, A=lam1 + 1.0)),
        solvers._splitting(sys32_zero, 0), solvers._slope_at_zero(sys32_zero, base),
    )
    assert not geo.certified and np.isnan(geo.alpha_tilde)
    assert refusal.startswith(f"declared slope A = {lam1 + 1.0:.6g} is not below lambda_1 = {lam1:.6g}")
    assert bound[0] <= 0.0 and f"the coercivity gap on the complement is {bound[0]:.6g}" in refusal


def test_uncertified_geometry_without_a_refusal_names_its_bounds(sys32_zero):
    # the slope at zero lies in (lambda_1, lambda_2), but a declared A below
    # lambda_1 leaves the bottom face of the half-cylinder unbounded
    lambdas = solve_pencil(sys32_zero, 2).lambdas
    lam = 0.5 * float(lambdas[0] + lambdas[1])
    base = PowerPerturbed(lam, 4.0)
    rep = linking_search(sys32_zero, PowerPerturbed(lam, 4.0, growth=replace(base.growth, A=lambdas[0] - 1.0)), 1)
    geo = rep.geometry
    assert rep.status == "geometry_violation" and geo.alpha_tilde > 0.0 and geo.boundary_sup == np.inf
    assert rep.message == (
        f"linking geometry not certified at k=1: alpha_tilde={geo.alpha_tilde:.6g}, boundary_sup=inf"
    )


def test_slope_touching_lambda_k_is_reported_as_boundary_resonance(sys32_zero):
    lam1 = float(solve_pencil(sys32_zero, 1).lambdas[0])
    rep = linking_search(sys32_zero, PowerPerturbed(lam1 + 5e-8, 4.0), 1)
    assert rep.geometry.certified
    assert rep.message == (
        "slope at zero touches eigenvalue k=1 (boundary resonance); "
        "search proceeds but the level may be degenerate"
    )


# ---------------------------------------------------------------------------
# Newton by preconditioned MINRES
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_elem", [64, 512])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("alpha", [-10.0, -1.0, 0.0, 1.0])
def test_each_newton_solve_leaves_a_residual_below_1e12_of_the_gradient(n_elem, s, alpha, monkeypatch):
    # the residual of every MINRES solve J''(u) delta = -g, measured with the
    # dense Hessian oracle in the K^-1 dual norm
    sys = build_system(build_mesh(0.0, 1.0, n_elem), s, alpha)
    nl = PowerPerturbed(5.0, 4.0)
    real_operator, real_minres = solvers.J_hessian_operator, solvers._minres
    fields, solves = [], []

    def operator(sys_, nl_, u):
        fields.append(u)
        return real_operator(sys_, nl_, u)

    def minres(op, b, precondition):
        x, steps = real_minres(op, b, precondition)
        solves.append((fields[-1], b, x, steps))
        return x, steps

    monkeypatch.setattr(solvers, "J_hessian_operator", operator)
    monkeypatch.setattr(solvers, "_minres", minres)
    x = sys.mesh.nodes
    rep = newton_refine(sys, nl, FeField(4.0 * np.sin(np.pi * x) + x * (1.0 - x), sys.mesh))
    assert solves and rep.krylov_iterations["fallbacks"] == 0
    assert rep.krylov_iterations["steps"] == [steps for *_, steps in solves]
    for u, b, delta, steps in solves:
        H = oracles.hessian_oracle(sys, nl, u)
        scale = solvers._dual_norm(sys, b)
        # against the operator MINRES ran on, the residual is at its target
        assert solvers._dual_norm(sys, real_operator(sys, nl, u) @ delta - b) <= 1e-12 * scale, steps
        # the dense product's own rounding, eps |H| |delta|, reaches 7e-12 of
        # g at n_elem 512: the dense residual is held to it where it is larger
        floor = solvers._dual_norm(sys, np.finfo(float).eps * (np.abs(H) @ np.abs(delta)))
        assert solvers._dual_norm(sys, H @ delta - b) <= max(1e-12 * scale, floor), steps
        assert 0 < steps <= solvers.MINRES_MAX_ITER


def test_minres_solves_an_indefinite_system_and_raises_at_its_cap(sys32_zero, monkeypatch):
    n = sys32_zero.ndof
    op = np.diag(np.linspace(-3.0, 5.0, n)) + 0.1 * np.eye(n, k=1) + 0.1 * np.eye(n, k=-1)
    b = np.sin(np.arange(1, n + 1))
    x, steps = solvers._minres(op, b, lambda r: r.copy())
    assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b) and 0 < steps < solvers.MINRES_MAX_ITER
    zero, none = solvers._minres(op, np.zeros(n), lambda r: r.copy())
    assert none == 0 and not zero.any()
    monkeypatch.setattr(solvers, "MINRES_MAX_ITER", steps - 1)
    with pytest.raises(np.linalg.LinAlgError, match="MINRES"):
        solvers._minres(op, b, lambda r: r.copy())


def test_a_zero_sine_diagonal_falls_back_to_the_riesz_step(sys32_zero, monkeypatch):
    nl = PowerPerturbed(5.0, 4.0)
    u = linking_search(sys32_zero, nl, 0).u
    singular = np.array(sys32_zero._tau)
    singular[3] = 0.0
    monkeypatch.setitem(sys32_zero.__dict__, "_tau", singular)
    with pytest.raises(np.linalg.LinAlgError, match="zero"):
        sys32_zero.tau_solve(np.ones(sys32_zero.ndof))
    rep = newton_refine(sys32_zero, nl, FeField(1.001 * u.coeffs, sys32_zero.mesh))
    steps = rep.krylov_iterations["steps"]
    assert steps and set(steps) == {0} and rep.krylov_iterations["fallbacks"] == len(steps)
