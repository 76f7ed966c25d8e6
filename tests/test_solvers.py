import inspect

import numpy as np
import pytest
from scipy import linalg

from mixlap import FeField, build_mesh, build_system, interpolate, solvers
from mixlap.functional import (
    AffineLinear,
    Custom,
    J_eval,
    J_gradient,
    J_gradients,
    J_hessian,
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
    mountain_pass,
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
    lam1 = float(sys64_neg5.eigenpairs[0][0])
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
        w, V = sys.eigenpairs
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
    lam1 = float(sys.eigenpairs[0][0])
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
    mp = mountain_pass(sys64_zero, nl, SolverConfig(tol=1e-8))
    assert mp.converged
    rep = newton_refine(sys64_zero, nl, mp.u, SolverConfig())
    assert rep.grad_norm <= 1e-10
    assert rep.iterations <= 10


# ---------------------------------------------------------------------------
# mountain pass
# ---------------------------------------------------------------------------


def test_mountain_pass_baseline_certified(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    rep = mountain_pass(sys64_zero, nl, SolverConfig(tol=1e-8))
    assert rep.converged and rep.status == "converged"
    assert rep.classification == "nontrivial"
    assert rep.J_value > 0
    assert rep.grad_norm <= 1e-8


def test_mountain_pass_geometry_violation(sys64_zero):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    rep = mountain_pass(sys64_zero, PowerPerturbed(1.1 * lam1, 4.0), SolverConfig())
    assert rep.status == "geometry_violation"
    assert not rep.converged


def test_mountain_pass_samples_the_slope_on_its_own_domain():
    # f = c(x) t + t^3 with c = 0 on [0, 1] and c = 50 > lambda_1 beyond: on
    # (2, 3) the slope at zero is 50, so the ground-level geometry fails
    sys = build_system(build_mesh(2.0, 3.0, 32), 0.5, 0.0)
    lam1 = float(solve_pencil(sys, 1).lambdas[0])
    assert lam1 < 50.0

    def c(x):
        return np.where(np.asarray(x) > 1.0, 50.0, 0.0)

    nl = Custom(f_fn=lambda x, t: c(x) * t + t**3, F_fn=lambda x, t: c(x) * t**2 / 2 + t**4 / 4)
    rep = mountain_pass(sys, nl, SolverConfig())
    assert rep.status == "geometry_violation"
    assert "slope at zero 50 is not below the first eigenvalue" in rep.message


def test_mountain_pass_path_maximum_decreases(sys64_zero, monkeypatch):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    # suppress early Newton so the descent history is populated
    monkeypatch.setattr(solvers, "NEWTON_GATE_FACTOR", 0.0)
    cfg = SolverConfig(tol=1e-8, max_iter=120)
    rep = mountain_pass(sys64_zero, nl, cfg)
    descent = [j for _, j, _ in rep.path_history]
    assert len(descent) >= 2
    for a, b in zip(descent, descent[1:]):
        assert b <= a + 1e-12


def test_mountain_pass_blowup_guard(sys64_zero, monkeypatch):
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    monkeypatch.setattr(solvers, "BLOWUP_BOUND", 1e-9)
    rep = mountain_pass(sys64_zero, nl, SolverConfig())
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
    rep = mountain_pass(sys, PowerPerturbed(lam1 / 2, 4.0), SolverConfig())
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


def test_coercivity_gap_accepts_function(sys64_zero):
    spec = solve_pencil(sys64_zero, 2)
    theta_c = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    const = coercivity_gap(sys64_zero, float(theta_c), 1)
    fn = coercivity_gap(sys64_zero, lambda x: np.full_like(x, theta_c), 1)
    assert fn == pytest.approx(const, rel=1e-12)


def test_coercivity_gap_multistart_oracle(mesh8):
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    k = 1
    theta = 0.5 * (spec.lambdas[0] + spec.lambdas[1])
    beta = coercivity_gap(sys, float(theta), k)
    # direct multistart minimization of the quotient over the complement
    M_th = weighted_mass(mesh8, float(theta))
    V = solve_pencil(sys, 7).vectors[:, k:]
    Ar = V.T @ (sys.A - M_th) @ V
    Kr = V.T @ sys.K @ V
    from mixlap.oracles import rayleigh_min_oracle

    direct = rayleigh_min_oracle(Ar, Kr, trials=8, seed=0)
    assert beta == pytest.approx(direct, abs=1e-6)


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
    lam1 = float(solve_pencil(sys64_zero, 1).lambdas[0])
    nl = PowerPerturbed(lam1 / 2, 4.0)
    mp = mountain_pass(sys64_zero, nl, SolverConfig(tol=1e-8))
    lk = linking_search(sys64_zero, nl, 0, SolverConfig(tol=1e-8))
    assert mp.converged and lk.converged
    # both run the one minimax engine from the same u_1
    assert np.array_equal(mp.u.coeffs, lk.u.coeffs)
    assert mp.J_value == lk.J_value


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


def test_geometry_probe_reference_values(sys64_zero):
    # seed-0 reference values of the k = 1 probe at lambda = 25 (the geometry
    # of the linking benchmark run); the lockstep multistart must keep them
    geo = verify_geometry(sys64_zero, PowerPerturbed(25.0, 4.0), 1)
    assert geo.alpha_tilde == pytest.approx(1.8122226969268116, rel=1e-9)
    assert geo.spread == pytest.approx(0.6323619070030969, rel=1e-9)
    assert (geo.k, geo.rho_small, geo.rho_big, geo.boundary_sup) == (
        1, 3.1622776601683795, 50.59644256269407, 0.0
    )
    assert (geo.certified, geo.mode, geo.inconclusive) == (True, "linking", True)


def test_linking_search_probes_with_its_seed():
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    nl = PowerPerturbed(25.0, 4.0)
    rep = linking_search(sys, nl, 1, SolverConfig(seed=3))
    assert rep.geometry == verify_geometry(sys, nl, 1, seed=3)
    assert rep.geometry != verify_geometry(sys, nl, 1, seed=0)


def test_one_full_eigensolve_serves_every_consumer(monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, 0.0)
    # a solve of A, whole or as a sine-basis block, is seen by value however
    # its matrix was made
    blocks = (sys.sine.reduced(b, 1.0, sys.alpha, 0.0, 1.0)[0] for b in (0, 1))
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
    """The sphere descent of one radius, as ``solvers._sphere_min`` ran it
    before the radii shared a block: same starts, steps and acceptance test."""
    nsub = V.shape[1]
    KV = sys.K @ V
    starts = [np.eye(nsub)[j] for j in range(min(nsub, 3))]
    starts += [rng.standard_normal(nsub) for _ in range(solvers.PROBE_RESTARTS)]
    C = np.array(starts)

    def on_sphere(Cb):
        W = _apply_rows(V, Cb)
        r = solvers._x_norms(sys, W)
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
    want = [_one_radius(sys, nl, V, rho, ref_rng) for rho in solvers.RHO_GRID]
    assert solvers._sphere_min(sys, nl, V, rng) == want
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
    return W.T @ J_gradient(sys, nl, u).coeffs, W.T @ J_hessian(sys, nl, u) @ W


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
