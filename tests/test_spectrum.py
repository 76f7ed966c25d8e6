import mpmath as mp
import numpy as np
import pytest
from scipy import linalg

from mixlap import FeField, build_mesh, build_system, oracles, spectrum
from mixlap.analysis import embedding_constant
from mixlap.oracles import pencil_eigenvalues_oracle, rayleigh_min_oracle, threshold_oracle
from mixlap.spectrum import (
    DegenerateSpectrumError,
    Spectrum,
    SpectrumError,
    alpha_threshold,
    bound_checks,
    first_positive_index,
    garding_constant,
    solve_pencil,
    verify_characterization,
)


def test_dirichlet_baseline():
    mesh = build_mesh(0, 1, 512)
    spec = solve_pencil(build_system(mesh, 0.5, 0.0), 5)
    exact = np.array([(k * np.pi) ** 2 for k in range(1, 6)])
    assert np.max(np.abs(spec.lambdas - exact) / exact) < 5e-3


@pytest.mark.parametrize("alpha", [-10.0, -1.0, 0.0, 1.0])
def test_pencil_matches_inertia_oracle(alpha, mesh8):
    sys = build_system(mesh8, 0.5, alpha)
    spec = solve_pencil(sys, 7)
    oracle = pencil_eigenvalues_oracle(sys.A, sys.M, 7)
    assert np.max(np.abs(spec.lambdas - oracle)) < 1e-8


def test_deep_indefinite_has_nonpositive_eigenvalue():
    mesh = build_mesh(0, 1, 256)
    sys = build_system(mesh, 0.5, -10.0)
    spec = solve_pencil(sys, sys.ndof)
    assert spec.n0 is not None and spec.n0 >= 2
    # independent confirmation: direct Rayleigh minimization finds a
    # negative value
    assert rayleigh_min_oracle(sys.A, sys.M, trials=3, seed=0) < 0


def test_orthogonality_and_rayleigh_residuals(spec64_neg5, sys64_neg5):
    V = spec64_neg5.vectors
    gram_m = V.T @ sys64_neg5.M @ V
    gram_b = V.T @ sys64_neg5.A @ V
    scale = max(1.0, np.max(np.abs(spec64_neg5.lambdas)))
    assert np.max(np.abs(gram_m - np.eye(V.shape[1]))) <= 1e-8
    assert np.max(np.abs(gram_b - np.diag(spec64_neg5.lambdas))) <= 1e-8 * scale


def test_solve_pencil_columns_do_not_depend_on_m(sys64_neg5, sys8_neg5):
    full = solve_pencil(sys64_neg5, sys64_neg5.ndof)
    for m in (1, 2, 5):
        spec = solve_pencil(sys64_neg5, m)
        assert np.array_equal(spec.vectors, full.vectors[:, :m])
        assert np.array_equal(spec.lambdas, full.lambdas[:m])
    # an all-equal spectrum is one cluster that straddles every m
    sys = sys8_neg5
    w, v = np.ones(sys.ndof), sys.eigenpairs[1]
    whole = spectrum._representatives(sys, w, v, sys.ndof)
    assert np.abs(whole.T @ sys.M @ whole - np.eye(sys.ndof)).max() <= 1e-13
    for m in (1, 2, 5):
        assert np.array_equal(spectrum._representatives(sys, w, v, m), whole[:, :m])


def test_solve_pencil_rejects_bad_m(sys8_neg5):
    with pytest.raises(ValueError):
        solve_pencil(sys8_neg5, 8)


def test_characterization_unconstrained(spec64_neg5, sys64_neg5):
    assert verify_characterization(spec64_neg5, sys64_neg5, 1, trials=4) <= 1e-8


def test_characterization_recursion(mesh8):
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    for k in (2, 3):
        assert verify_characterization(spec, sys, k, trials=6) <= 1e-8


def test_characterization_descends_through_the_oracle(monkeypatch, mesh8):
    # the descent half of the check is oracles.rayleigh_min_oracle: an oracle
    # that undershoots lambda_k by 1 must show up as a gap of 1
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    k = 2
    monkeypatch.setattr(
        oracles, "rayleigh_min_oracle", lambda A, M, trials, seed: float(spec.lambdas[k - 1]) - 1.0
    )
    assert verify_characterization(spec, sys, k, trials=4) == pytest.approx(1.0, abs=1e-9)


def test_characterization_stationarity(mesh8):
    # at a simple eigenvalue the eigenfield is a constrained stationary
    # point: the projected Rayleigh gradient vanishes
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    k = 2
    gaps = np.abs(np.diff(spec.lambdas))
    assert gaps[k - 2] > 1e-6 and gaps[k - 1] > 1e-6  # simple
    u = spec.vectors[:, k - 1]
    rho = float(u @ sys.A @ u)
    g = 2.0 * (sys.A @ u - rho * (sys.M @ u))
    # project onto the feasible directions (B-orthogonal to earlier fields)
    C = sys.A @ spec.vectors[:, : k - 1]
    q, _ = np.linalg.qr(C, mode="complete")
    Z = q[:, k - 1 :]
    assert np.linalg.norm(Z.T @ g) <= 1e-6 * max(1.0, abs(rho))


def test_zero_eigenvalue_degeneracy_flagged(threshold256):
    mesh = build_mesh(0, 1, 256)
    sys = build_system(mesh, 0.5, threshold256.alpha_star)
    spec = solve_pencil(sys, 4)
    assert abs(spec.lambdas[0]) < 1e-6
    with pytest.raises(DegenerateSpectrumError):
        verify_characterization(spec, sys, 2)


def test_first_positive_index_baseline(sys64_zero):
    spec = solve_pencil(sys64_zero, 5)
    assert first_positive_index(spec) == 1 and spec.n0 == 1


def test_first_positive_index_definition(mesh8):
    # alpha = -1.5 leaves two negative eigenvalues at n = 8
    spec = solve_pencil(build_system(mesh8, 0.5, -1.5), 4)
    assert spec.lambdas[1] <= 0.0 < spec.lambdas[2]
    assert first_positive_index(spec) == spec.n0 == 3


def test_first_positive_index_needs_positive():
    spec = Spectrum(lambdas=np.array([-2.0, -0.5]), vectors=np.eye(7)[:, :2], n0=None)
    with pytest.raises(SpectrumError, match="increase m"):
        first_positive_index(spec)


def test_first_positive_past_threshold(threshold256):
    mesh = build_mesh(0, 1, 256)
    sys = build_system(mesh, 0.5, threshold256.alpha_star - 1.0)
    spec = solve_pencil(sys, 12)
    assert first_positive_index(spec) >= 2


def test_bound_identity_at_eigenfield(spec64_neg5, sys64_neg5):
    k = 3
    u = spec64_neg5.vectors[:, k - 1]
    b = float(u @ sys64_neg5.A @ u)
    m = float(u @ sys64_neg5.M @ u)
    lam = spec64_neg5.lambdas[k - 1]
    assert abs(b - lam * m) <= 1e-8 * max(1.0, abs(lam))


def test_bound_two_mode_expansion(mesh8):
    sys = build_system(mesh8, 0.5, -5.0)
    spec = solve_pencil(sys, 7)
    k = 4
    u = spec.vectors[:, 0] + spec.vectors[:, k - 1]
    b = float(u @ sys.A @ u)
    lam_sum = spec.lambdas[0] + spec.lambdas[k - 1]
    scale = max(1.0, abs(lam_sum))
    assert abs(b - lam_sum) <= 1e-9 * scale
    assert b <= 2 * spec.lambdas[k - 1] + 1e-9 * scale


def test_bound_checks_random(spec64_neg5, sys64_neg5):
    rep = bound_checks(spec64_neg5, sys64_neg5, k=3, seed=0)
    assert rep.max_violation <= 1e-9


def test_bound_checks_need_an_upper_side(spec64_neg5, sys64_neg5):
    # at k = 0 the upper side is empty and lambda_k would wrap to the last
    # computed eigenvalue; k = count leaves no lower side
    for k in (0, -1, spec64_neg5.count):
        with pytest.raises(ValueError, match="1 <= k"):
            bound_checks(spec64_neg5, sys64_neg5, k)


def test_garding_zero_for_nonnegative_alpha(mesh64):
    assert garding_constant(build_system(mesh64, 0.5, 0.0)) == 0.0
    assert garding_constant(build_system(mesh64, 0.5, 2.0)) == 0.0


def test_garding_certifies_negative_alpha():
    mesh = build_mesh(0, 1, 64)
    sys = build_system(mesh, 0.5, -10.0)
    gamma = garding_constant(sys)
    assert gamma > 0
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = rng.standard_normal(sys.ndof)
        qk = float(u @ sys.K @ u)
        lhs = float(u @ sys.A @ u) + gamma * float(u @ sys.M @ u)
        assert lhs >= 0.5 * qk - 1e-10 * max(1.0, qk)


def test_lambda1_bounded_below_by_garding(sys64_neg5, spec64_neg5):
    gamma = garding_constant(sys64_neg5)
    assert spec64_neg5.lambdas[0] >= -gamma - 1e-9 * max(1.0, gamma)


def test_threshold_bracketing(threshold256):
    mesh = build_mesh(0, 1, 256)
    delta = 10 * 1e-8
    from scipy import linalg

    from mixlap.assembly import assemble_gagliardo, assemble_local_stiffness, assemble_mass

    K, S, M = (
        assemble_local_stiffness(mesh),
        assemble_gagliardo(mesh, 0.5),
        assemble_mass(mesh),
    )

    def lam1(a):
        return float(linalg.eigh(K + a * S, M, eigvals_only=True, subset_by_index=[0, 0])[0])

    assert lam1(threshold256.alpha_star - delta) < 0 < lam1(threshold256.alpha_star + delta)
    assert abs(threshold256.lambda1_at_star) <= 1e-8


@pytest.mark.parametrize("n_elem", [8, 9, 64, 65])
def test_extreme_eigenvalues_match_the_unsplit_formulas(n_elem):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -5.0)
    n = sys.ndof
    gamma = -linalg.eigh(sys.A - 0.5 * sys.K, sys.M, eigvals_only=True, subset_by_index=[0, 0])[0]
    lam1 = linalg.eigh(sys.K + 0.3 * sys.S, sys.M, eigvals_only=True, subset_by_index=[0, 0])[0]
    mu = linalg.eigh(sys.S, sys.K, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
    assert garding_constant(sys) == pytest.approx(gamma, rel=1e-12)
    assert spectrum._lambda1(sys, 0.3) == pytest.approx(lam1, rel=1e-12)
    alpha_star = alpha_threshold(sys, (-10.0, 0.0), tol=1e-6).alpha_star
    assert alpha_star == pytest.approx(-1.0 / mu, rel=1e-12)


def test_extreme_eigenvalues_match_a_50_digit_eigensolve():
    # the same double-precision K, S and M, solved in 50 digits: S is only
    # good to ~1e-11 against its formula, so recomputing it would measure the
    # assembly's error, not the solver's
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, -5.0)
    K, S, M = (mp.matrix(X.tolist()) for X in (sys.K, sys.S, sys.M))

    def eigenvalues(X, Y):
        L_inv = mp.cholesky(Y) ** -1
        return sorted(mp.eigsy(L_inv * X * L_inv.T, eigvals_only=True))

    with mp.workdps(50):
        mu = float(eigenvalues(S, K)[-1])
        lam1 = float(eigenvalues(K - 5 * S, M)[0])
    alpha_star = alpha_threshold(sys, (-10.0, 0.0)).alpha_star
    assert embedding_constant(sys).value == pytest.approx(mu, rel=1e-13)
    assert -1.0 / alpha_star == pytest.approx(mu, rel=1e-13)
    assert spectrum._lambda1(sys, -5.0) == pytest.approx(lam1, rel=1e-13)
    assert solve_pencil(sys, 1).lambdas[0] == pytest.approx(lam1, rel=1e-13)


def test_threshold_regression_value(threshold256):
    # frozen run record: s = 0.5 on (0, 1), n_elem = 256
    assert threshold256.alpha_star == pytest.approx(-0.63857823, abs=1e-6)
    assert threshold256.alpha_star < 0


def test_threshold_invalid_bracket():
    sys = build_system(build_mesh(0, 1, 32), 0.5, 0.0)
    with pytest.raises(ValueError, match="lambda1"):
        alpha_threshold(sys, (-0.1, 0.0), tol=1e-6)
    with pytest.raises(ValueError, match="lambda1"):
        alpha_threshold(sys, (-10.0, -1.0), tol=1e-6)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_threshold_matches_inertia_bisection_oracle(n):
    sys = build_system(build_mesh(0, 1, n), 0.5, 0.0)
    tol = 1e-6
    result = alpha_threshold(sys, (-10.0, 0.0), tol=tol)
    assert result.iterations == 0 and result.bracket == (-10.0, 0.0)
    assert abs(result.alpha_star - threshold_oracle(sys.K, sys.S, (-10.0, 0.0))) <= tol


def test_monotonicity_in_alpha(mesh64):
    alphas = np.linspace(-8.0, 2.0, 5)
    lams = []
    for a in alphas:
        lams.append(solve_pencil(build_system(mesh64, 0.5, a), 6).lambdas)
    lams = np.array(lams)
    for j in range(len(alphas) - 1):
        assert np.all(lams[j] <= lams[j + 1] + 1e-10)


def test_lambda1_concavity(mesh64):
    alphas = np.linspace(-6.0, 0.0, 7)
    lam1 = np.array(
        [solve_pencil(build_system(mesh64, 0.5, a), 1).lambdas[0] for a in alphas]
    )
    for j in range(1, len(alphas) - 1):
        chord = 0.5 * (lam1[j - 1] + lam1[j + 1])
        assert lam1[j] >= chord - 1e-10


def test_cluster_multiplicity_bounded(spec64_neg5, sys64_neg5):
    lams = spec64_neg5.lambdas
    scale = max(1.0, np.max(np.abs(lams)))
    splits = np.flatnonzero(np.diff(lams) > 1e-9 * scale)
    sizes = np.diff(np.concatenate([[-1], splits, [lams.size - 1]]))
    assert np.all(sizes <= sys64_neg5.ndof)


def test_residual_guard_raises(sys8_neg5, monkeypatch):
    monkeypatch.setattr(spectrum, "RESIDUAL_TOL", 1e-30)
    with pytest.raises(SpectrumError, match="residual"):
        solve_pencil(sys8_neg5, 7)
