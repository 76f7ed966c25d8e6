"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criterion 10 has two cases.  At alpha = 0 the slope
lambda_1/2 sits below the positive first eigenvalue and the mountain pass
certifies the ground level (10a).  At alpha = alpha* - 0.5 the first
eigenvalue is negative, so the same slope lambda_1/2 lies strictly between
the first two eigenvalues: the splitting level is 1, not 0.  There 10b checks
that the ground-level search refuses the broken geometry and that the level-1
linking search finds a nontrivial critical point whose level converges at
second order under mesh refinement.  `test_criterion_10s_indefinite_ground_level`
adds the indefinite ground level with the slope placed below lambda_1.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from mixlap import FeField, build_mesh, build_system, interpolate
from mixlap.analysis import (
    _interp_ratio,
    embedding_constant,
    young_split_audit,
)
from mixlap.cli import run as cli_run
from mixlap.config import RunConfig
from mixlap.functional import AffineLinear, J_eval, J_gradient, PowerPerturbed
from mixlap.oracles import pencil_eigenvalues_oracle
from mixlap.solvers import (
    ResonanceError,
    SolverConfig,
    coercivity_gap,
    linking_search,
    solve_resolvent,
    verify_geometry,
)
from mixlap.spectrum import (
    bound_checks,
    garding_constant,
    solve_pencil,
    verify_characterization,
)


def check(num: str, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:>3s} {name:<38s} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_analytic_baseline():
    mesh = build_mesh(0.0, 1.0, 512)
    spec = solve_pencil(build_system(mesh, 0.5, 0.0), 5)
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    err = float(np.max(np.abs(spec.lambdas - exact) / exact))
    check("1", "analytic Dirichlet baseline", err <= 5e-3, f"max rel err {err:.2e}")


def test_criterion_02_oracle_spectrum(mesh8):
    worst = 0.0
    for alpha in (-10.0, -1.0, 0.0, 1.0):
        sys = build_system(mesh8, 0.5, alpha)
        spec = solve_pencil(sys, 7)
        oracle = pencil_eigenvalues_oracle(sys.A, sys.M, 7)
        worst = max(worst, float(np.max(np.abs(spec.lambdas - oracle))))
    check("2", "pencil vs inertia-bisection oracle", worst <= 1e-8, f"max abs {worst:.2e}")


def test_criterion_03_spectral_invariants(sys64_neg5, spec64_neg5):
    V = spec64_neg5.vectors
    gram_m = V.T @ sys64_neg5.M @ V
    gram_b = V.T @ sys64_neg5.A @ V
    scale = max(1.0, float(np.max(np.abs(spec64_neg5.lambdas))))
    m_res = float(np.max(np.abs(gram_m - np.eye(V.shape[1]))))
    b_res = float(np.max(np.abs(gram_b - np.diag(np.diag(gram_b))))) / scale
    r_res = float(np.max(np.abs(np.diag(gram_b) - spec64_neg5.lambdas))) / scale
    char = max(
        verify_characterization(spec64_neg5, sys64_neg5, k) for k in (1, 2, 3, 4)
    )
    ok = m_res <= 1e-8 and b_res <= 1e-8 and r_res <= 1e-8 and char <= 1e-8
    check(
        "3",
        "orthogonality + characterization",
        ok,
        f"m={m_res:.1e} b={b_res:.1e} rayleigh={r_res:.1e} char={char:.1e}",
    )


def test_criterion_04_two_sided_bounds(sys64_neg5, spec64_neg5):
    rep = bound_checks(spec64_neg5, sys64_neg5, k=3, seed=0)
    check("4", "two-sided Rayleigh bounds", rep.max_violation <= 1e-9,
          f"max violation {rep.max_violation:.2e}")


def test_criterion_05_indefinite_threshold(threshold256):
    mesh = build_mesh(0.0, 1.0, 256)
    sys = build_system(mesh, 0.5, 0.0)
    C_h = embedding_constant(sys).value
    a_star = threshold256.alpha_star
    past = build_system(mesh, 0.5, a_star - 1.0)
    n0 = solve_pencil(past, 12).n0
    ok = (
        abs(threshold256.lambda1_at_star) <= 1e-6
        and a_star <= -1.0 / C_h + 1e-6
        and n0 is not None
        and n0 >= 2
    )
    check(
        "5",
        "threshold crossing + embedding bound",
        ok,
        f"alpha*={a_star:.8f} -1/C={-1.0 / C_h:.8f} n0(a*-1)={n0}",
    )


def test_criterion_06_garding(sys64_neg5):
    gamma = garding_constant(sys64_neg5)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        u = rng.standard_normal(sys64_neg5.ndof)
        qk = float(u @ sys64_neg5.K @ u)
        lhs = float(u @ sys64_neg5.A @ u) + gamma * float(u @ sys64_neg5.M @ u)
        if lhs < 0.5 * qk - 1e-10 * max(1.0, qk):
            violations += 1
    young = young_split_audit(sys64_neg5)
    ok = violations == 0 and young.gamma_split >= gamma * (1 - 1e-10) and young.violations == 0
    check(
        "6",
        "coercivity shift certificates",
        ok,
        f"gamma={gamma:.4f} gamma_split={young.gamma_split:.4f} violations={violations}",
    )


def test_criterion_07_gagliardo_assembly(oracle_s_matrices):
    from mixlap.assembly import assemble_gagliardo

    mesh = build_mesh(0.0, 1.0, 4)
    worst = 0.0
    for s, S_oracle in oracle_s_matrices.items():
        S = assemble_gagliardo(mesh, s)
        worst = max(worst, float(np.max(np.abs(S - S_oracle))))
    check("7", "nonlocal assembly vs adaptive oracle", worst <= 1e-6, f"max abs {worst:.2e}")


def test_criterion_08_gradient_exactness(sys64_neg5):
    mesh = sys64_neg5.mesh
    rng = np.random.default_rng(1)
    worst = 0.0
    for nl in (PowerPerturbed(1.0, 4.0), AffineLinear(1.0, lambda x: np.sin(np.pi * x))):
        for _ in range(20):
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
            worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(g)))
    check("8", "gradient vs central differences", worst <= 1e-6, f"max rel {worst:.2e}")


def test_criterion_09_asymptotically_linear(sys64_neg5):
    mesh = sys64_neg5.mesh
    spec = solve_pencil(sys64_neg5, 2)
    lam = 0.5 * float(spec.lambdas[0] + spec.lambdas[1])
    a = interpolate(lambda x: np.ones_like(x), mesh)
    rep = solve_resolvent(sys64_neg5, lam, a)
    dense = linalg.solve(sys64_neg5.A - lam * sys64_neg5.M, sys64_neg5.M @ a.coeffs)
    agree = float(np.max(np.abs(rep.u.coeffs - dense)))
    resonant_rejected = False
    try:
        solve_resolvent(sys64_neg5, float(spec.lambdas[0]), a)
    except ResonanceError:
        resonant_rejected = True
    ok = rep.grad_norm <= 1e-10 and agree <= 1e-10 and resonant_rejected
    check(
        "9",
        "linear model: resolvent + resonance",
        ok,
        f"grad_norm={rep.grad_norm:.1e} dense agree={agree:.1e} "
        f"resonant_rejected={resonant_rejected}",
    )


def _mp_model_at(alpha: float, n_elem: int):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, alpha)
    lam1 = float(solve_pencil(sys, 1).lambdas[0])
    return sys, lam1


def test_criterion_10a_mountain_pass_local(threshold256):
    js = {}
    elapsed = {}
    for n in (128, 256):
        sys, lam1 = _mp_model_at(0.0, n)
        t0 = time.time()
        rep = linking_search(sys, PowerPerturbed(lam1 / 2, 4.0), 0, SolverConfig(tol=1e-8))
        elapsed[n] = time.time() - t0
        assert rep.converged and rep.classification == "nontrivial"
        assert rep.grad_norm <= 1e-8 and rep.J_value > 0
        js[n] = rep.J_value
    rel = abs(js[128] - js[256]) / abs(js[256])
    ok = rel <= 1e-3 and max(elapsed.values()) <= 120.0
    check(
        "10a",
        "mountain pass, alpha = 0",
        ok,
        f"J128={js[128]:.6f} J256={js[256]:.6f} rel={rel:.1e} t={max(elapsed.values()):.1f}s",
    )


def test_criterion_10b_mountain_pass_indefinite_literal(threshold256):
    """Second case of criterion 10: slope lambda_1/2 at alpha = alpha* - 0.5.

    Below the crossing the first eigenvalue is negative, so lambda_1/2 lies
    strictly *above* lambda_1 and below lambda_2.  The ground-level
    (mountain-pass) hypothesis, slope below lambda_1, fails at these
    parameters, and the slope puts the problem in the level-1 linking
    configuration lambda_1 <= slope < lambda_2.  So on every mesh the
    mountain pass must refuse without a certificate, and the k = 1 linking
    search must certify a nontrivial critical point.  That solution changes
    sign once; its level converges as O(h^2), which is checked through the
    observed order and through the agreement of the Richardson-extrapolated
    levels of two mesh pairs.
    """
    alpha = threshold256.alpha_star - 0.5
    failed = []
    js = {}
    for n in (64, 128, 256):
        sys = build_system(build_mesh(0.0, 1.0, n), 0.5, alpha)
        lam1, lam2 = (float(v) for v in solve_pencil(sys, 2).lambdas)
        nl = PowerPerturbed(lam1 / 2, 4.0)
        if not lam1 < 0:
            failed.append(f"n={n}: lambda1 < 0 (lambda1={lam1:.4f})")
        if not lam1 < lam1 / 2 < lam2:
            failed.append(
                f"n={n}: lambda1 < lambda1/2 < lambda2 "
                f"({lam1:.4f}, {lam1 / 2:.4f}, {lam2:.4f})"
            )
        mp = linking_search(sys, nl, 0, SolverConfig(tol=1e-8))
        if mp.converged or mp.status != "geometry_violation" or mp.classification != "trivial":
            failed.append(
                f"n={n}: mountain pass refuses slope lambda1/2={lam1 / 2:.4f} >= "
                f"lambda1={lam1:.4f} (converged={mp.converged} status={mp.status} "
                f"class={mp.classification} J={mp.J_value:.6f})"
            )
        rep = linking_search(sys, nl, 1, SolverConfig(tol=1e-8))
        if not (
            rep.converged
            and rep.classification == "nontrivial"
            and rep.J_value > 0
            and rep.grad_norm <= 1e-8
        ):
            failed.append(
                f"n={n}: k=1 linking converged, nontrivial, J > 0, gn <= 1e-8 "
                f"(converged={rep.converged} status={rep.status} "
                f"class={rep.classification} J={rep.J_value:.6f} gn={rep.grad_norm:.1e})"
            )
        js[n] = rep.J_value
    # successive differences shrink by 2^order; Richardson for O(h^2) is
    # J_f + (J_f - J_c) / 3
    d_coarse, d_fine = js[64] - js[128], js[128] - js[256]
    order = math.log2(d_coarse / d_fine) if d_coarse * d_fine > 0 else math.nan
    rich = [js[f] + (js[f] - js[c]) / 3 for c, f in ((64, 128), (128, 256))]
    gap = abs(rich[0] - rich[1]) / abs(rich[1]) if rich[1] else math.inf
    if not 1.5 <= order <= 2.5:
        failed.append(f"observed order in [1.5, 2.5] (order={order:.2f})")
    if not gap <= 1e-3:
        failed.append(f"Richardson gap <= 1e-3 (gap={gap:.1e})")
    detail = (
        f"n=256: lambda1={lam1:.4f} lambda1/2={lam1 / 2:.4f} lambda2={lam2:.4f}; "
        f"J64={js[64]:.6f} J128={js[128]:.6f} J256={js[256]:.6f} "
        f"order={order:.2f} richardson gap={gap:.1e}"
    )
    if failed:
        detail = "failed: " + "; ".join(failed) + " | " + detail
    check("10b", "alpha* - 0.5: MP refusal, k=1 linking", not failed, detail)


def test_criterion_10s_indefinite_ground_level(threshold256):
    # supplementary (not part of the literal criterion): the ground-level
    # search does certify in the indefinite regime once the slope sits below
    # the (negative) first eigenvalue
    alpha = threshold256.alpha_star - 0.5
    js = {}
    for n in (128, 256):
        sys, lam1 = _mp_model_at(alpha, n)
        rep = linking_search(sys, PowerPerturbed(1.5 * lam1, 4.0), 0, SolverConfig(tol=1e-8))
        assert rep.converged and rep.classification == "nontrivial"
        assert rep.grad_norm <= 1e-8 and rep.J_value > 0
        js[n] = rep.J_value
    rel = abs(js[128] - js[256]) / abs(js[256])
    check("10s", "indefinite ground level (slope < lambda_1)", rel <= 1e-3, f"rel={rel:.1e}")


def test_criterion_11_linking(sys64_zero):
    spec = solve_pencil(sys64_zero, 2)
    lam = 0.5 * float(spec.lambdas[0] + spec.lambdas[1])
    nl = PowerPerturbed(lam, 4.0)
    geo = verify_geometry(sys64_zero, nl, 1)
    rep = linking_search(sys64_zero, nl, 1, SolverConfig(tol=1e-6))
    lam1 = float(spec.lambdas[0])
    nl0 = PowerPerturbed(lam1 / 2, 4.0)
    lk0 = linking_search(sys64_zero, nl0, 0, SolverConfig(tol=1e-8))
    ok = (
        geo.certified
        and geo.alpha_tilde > 0
        and geo.boundary_sup <= 0
        and rep.converged
        and rep.classification == "nontrivial"
        and rep.grad_norm <= 1e-6
        and lk0.converged
        and lk0.geometry.certified
        and lk0.J_value >= lk0.geometry.alpha_tilde > 0
    )
    check(
        "11",
        "linking level 1 + level-0 reduction",
        ok,
        f"J_link={rep.J_value:.6f} J_link0={lk0.J_value:.6f} alpha_tilde0={lk0.geometry.alpha_tilde:.6f}",
    )


def test_criterion_12_coercivity_gap_sweep(sys64_zero):
    spec = solve_pencil(sys64_zero, 2)
    lam1, lam2 = float(spec.lambdas[0]), float(spec.lambdas[1])
    thetas = np.linspace(lam1, lam2, 9)[1:]
    betas = [coercivity_gap(sys64_zero, float(t), 1) for t in thetas]
    interior_positive = all(b > 0 for b in betas[:-1])
    monotone = all(b2 < b1 + 1e-12 for b1, b2 in zip(betas, betas[1:]))
    closes = abs(betas[-1]) <= 1e-8
    ok = interior_positive and monotone and closes
    check(
        "12",
        "coercivity gap sweep",
        ok,
        f"beta range [{betas[-1]:.1e}, {betas[0]:.4f}] monotone={monotone}",
    )


def test_criterion_13_interpolation_audit(sys64_neg5, spec64_neg5, interp64_neg5):
    est = interp64_neg5
    violations = 0
    for k in range(spec64_neg5.count):
        if _interp_ratio(sys64_neg5, spec64_neg5.vectors[:, k]) > est.value * (1 + 1e-8):
            violations += 1
    rng = np.random.default_rng(2)
    for _ in range(1000):
        if _interp_ratio(sys64_neg5, rng.standard_normal(sys64_neg5.ndof)) > est.value * (1 + 1e-8):
            violations += 1
    check("13", "interpolation inequality audit", violations == 0,
          f"C={est.value:.6f} violations={violations}")


def test_criterion_14_reproducibility(tmp_path, monkeypatch):
    from mixlap import assembly

    def twice(cfg, pipeline):
        out = Path(cfg.directory)
        assert cli_run(cfg, pipeline) == 0
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert cli_run(cfg, pipeline) == 0
        return first, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    out = tmp_path / "audit"
    first, second = twice(RunConfig(n_elem=8, alpha=(-5.0,), m=7, seed=42, bracket_lo=-10.0,
                                    bracket_hi=0.0, directory=str(out)), "full-audit")
    ok = first == second and json.loads((out / "audit.json").read_text())["certified"]
    # a spectrum whose sine halves run on two threads
    threaded = []
    monkeypatch.setattr(assembly, "_threads_allowed", lambda: threaded.append(1) or True)
    spec_first, spec_second = twice(RunConfig(n_elem=1024, alpha=(-1.0,), directory=str(tmp_path / "spec")),
                                    "spectrum")
    ok = ok and bool(threaded) and spec_first == spec_second
    check("14", "byte-identical audit+spectrum reruns", ok,
          f"files={sorted(first)} + {sorted(spec_first)}, threaded solves={len(threaded)}")
