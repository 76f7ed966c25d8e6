import math

import numpy as np
import pytest
from scipy import linalg

from mixlap import FeField, analysis, assembly, build_mesh, build_system
from mixlap.analysis import (
    SPLIT_SLACK,
    _interp_limit,
    _interp_ratio,
    embedding_constant,
    interpolation_constant,
    young_split_audit,
)
from mixlap.oracles import quotient_max_oracle
from mixlap.spectrum import alpha_threshold, solve_pencil


def test_embedding_positive_and_achieved(sys64_neg5):
    est = embedding_constant(sys64_neg5)
    assert est.value > 0
    assert est.residual <= 1e-10
    c = est.maximizer.coeffs
    achieved = float(c @ sys64_neg5.S @ c) / float(c @ sys64_neg5.K @ c)
    assert est.value >= achieved - 1e-10


def test_embedding_nondecreasing_under_refinement():
    vals = []
    for n in (32, 64, 128):
        sys = build_system(build_mesh(0, 1, n), 0.5, 0.0)
        vals.append(embedding_constant(sys).value)
    assert vals[0] <= vals[1] <= vals[2]


def test_pencil_definite_above_embedding_threshold(mesh64):
    sys = build_system(mesh64, 0.5, 0.0)
    C = embedding_constant(sys).value
    shifted = sys.with_alpha(-1.0 / C + 1e-6)
    lam1 = solve_pencil(shifted, 1).lambdas[0]
    assert lam1 > 0


def test_embedding_random_audit(sys64_neg5):
    C = embedding_constant(sys64_neg5).value
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = rng.standard_normal(sys64_neg5.ndof)
        qs = float(u @ sys64_neg5.S @ u)
        qk = float(u @ sys64_neg5.K @ u)
        assert qs <= C * qk * (1 + 1e-10)


def test_embedding_value_is_the_nodal_quotient_at_its_vector():
    # at n_elem = 1024 the sine-basis eigenvalue of (S, K) is ~4e-12 off the
    # quotient at its own eigenvector; the double-precision quotient is not
    sys = build_system(build_mesh(0.0, 1.0, 1024), 0.5, 0.0)
    est = embedding_constant(sys)
    v = est.maximizer.coeffs.astype(np.longdouble)
    exact = (v @ sys.S.astype(np.longdouble) @ v) / (v @ sys.K.astype(np.longdouble) @ v)
    assert abs(est.value - exact) <= 1e-14 * exact
    assert abs(-1.0 / alpha_threshold(sys, (-10.0, 0.0)).alpha_star - exact) <= 1e-14 * exact
    assert 0.0 < est.residual < 1e-10


def test_embedding_numerator_is_the_long_double_form_of_the_dense_s():
    # at s = 0.9 the double product v^T S v drifted up to 1.7e-13 relative
    sys = build_system(build_mesh(0.0, 1.0, 1024), 0.9, 0.0)
    est = embedding_constant(sys)
    v = est.maximizer.coeffs
    w = v.astype(np.longdouble)
    exact = w @ sys.S.astype(np.longdouble) @ w
    denominator = np.sum(np.diff(np.r_[0.0, w, 0.0]) ** 2) / sys.mesh.h
    assert abs(est.value - exact / denominator) <= 1e-15 * est.value
    assert abs(float(w @ analysis._s_product(sys, w)) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("n_elem", [64, 1024])
def test_the_embedding_constant_reaches_the_local_limit_at_first_order(n_elem):
    # (1-s) mu_h -> 1 as s -> 1 (Bourgain, Brezis & Mironescu, 2001), with an
    # O(1-s) gap whose scaled size reads 1.25-1.28 at both sizes
    mesh = build_mesh(0.0, 1.0, n_elem)
    for s in (0.99, 0.999):
        mu = embedding_constant(build_system(mesh, s, 0.0)).value
        gap = (1.0 - (1.0 - s) * mu) / (1.0 - s)
        assert 1.2 <= gap <= 1.35, (s, gap)


@pytest.mark.parametrize("n_elem", [8, 16, 128])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_interpolation_value_is_attained_at_its_maximizer(s, n_elem):
    # the reported value is the quotient of the field it returns, so it is a
    # lower bound on the sharp discrete constant, and below 2/C(1,s)
    sys = build_system(build_mesh(0.0, 1.0, n_elem), s, -1.0)
    est = interpolation_constant(sys)
    assert est.value == pytest.approx(_interp_ratio(sys, est.maximizer.coeffs), rel=1e-14, abs=0.0)
    assert est.value < _interp_limit(s)


def test_interpolation_constant_at_128_is_pinned():
    # the value the benchmark gate holds for constants at n_elem = 128
    sys = build_system(build_mesh(0.0, 1.0, 128), 0.5, -1.0)
    est = interpolation_constant(sys)
    assert est.value == pytest.approx(6.236637170870844, rel=1e-12)


def test_interpolation_scale_invariance(sys8_neg5):
    rng = np.random.default_rng(1)
    u = rng.standard_normal(sys8_neg5.ndof)
    r1 = _interp_ratio(sys8_neg5, u)
    r7 = _interp_ratio(sys8_neg5, 7.0 * u)
    assert r7 == pytest.approx(r1, rel=1e-12)


def test_interpolation_eigenfields_within_constant(sys64_neg5, spec64_neg5, interp64_neg5):
    est = interp64_neg5
    # P1 fields lie in H^1_0, so no discrete quotient reaches 2/C(1,s)
    assert est.value < _interp_limit(0.5)
    for k in range(spec64_neg5.count):
        r = _interp_ratio(sys64_neg5, spec64_neg5.vectors[:, k])
        assert r <= est.value * (1 + 1e-8)


def test_interpolation_matches_sampling_oracle(sys8_neg5):
    est = interpolation_constant(sys8_neg5)
    best = quotient_max_oracle(
        lambda c: _interp_ratio(sys8_neg5, c), sys8_neg5.ndof, 100_000, seed=1
    )
    assert best <= est.value * (1 + 1e-8)
    assert est.value - best <= 0.01 * est.value
    assert est.value < _interp_limit(0.5)


def test_interpolation_random_audit(sys64_neg5, interp64_neg5):
    est = interp64_neg5
    rng = np.random.default_rng(2)
    for _ in range(1000):
        u = rng.standard_normal(sys64_neg5.ndof)
        assert _interp_ratio(sys64_neg5, u) <= est.value * (1 + 1e-8)


def test_interp_limit_is_the_continuum_constant():
    # 1/C(1,s) = int (1 - cos z) / |z|^(1+2s) dz over the line (Di Nezza,
    # Palatucci & Valdinoci 2012, (3.2)); by parts, half of it is
    # int sin(z) z^(-2s) dz / (2s) = Gamma(1-2s) cos(pi s) / (2s) on (0, inf),
    # a route through the reflection formula instead of the duplication one
    assert _interp_limit(0.5) == pytest.approx(2.0 * math.pi, rel=1e-15)
    for s in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
        half = math.gamma(1.0 - 2.0 * s) * math.cos(math.pi * s) / (2.0 * s)
        assert _interp_limit(s) == pytest.approx(4.0 * half, rel=1e-13)
    assert _interp_limit(0.25) == pytest.approx(10.0265131, rel=1e-8)
    assert _interp_limit(0.75) == pytest.approx(6.6843421, rel=1e-8)


@pytest.mark.parametrize("n_elem", [8, 128, 1024])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_young_split_certifies_with_the_continuum_constant(s, n_elem):
    rep = young_split_audit(build_system(build_mesh(0.0, 1.0, n_elem), s, -1.0))
    assert rep.c1 == pytest.approx(s * _interp_limit(s), rel=1e-15)
    assert len(rep.pencils) == 3
    assert all(top <= 1.0 + SPLIT_SLACK for _, _, top in rep.pencils)
    assert rep.violations == 0 and rep.certified


def test_young_split_certifies(sys64_neg5):
    rep = young_split_audit(sys64_neg5)
    assert (rep.violations, rep.trials) == (0, 3)
    assert rep.gamma_split >= rep.gamma_exact * (1 - 1e-10)
    assert rep.certified


def test_young_split_reads_only_eigenvalues(sys64_neg5, monkeypatch):
    # the split is decided by three top eigenvalues; no eigenvector is computed
    def no_vector(*args, **kwargs):
        raise AssertionError("the Young split computed an eigenvector")

    monkeypatch.setattr(assembly, "_lowest_vector", no_vector)
    monkeypatch.setattr(assembly.np.linalg, "eigh", no_vector)
    assert young_split_audit(sys64_neg5).certified


def test_young_short_circuit_nonnegative_alpha(mesh64):
    rep = young_split_audit(build_system(mesh64, 0.5, 1.5))
    assert rep.trials == 0 and rep.pencils == []
    assert rep.gamma_split == 0.0 and rep.gamma_exact == 0.0 and rep.violations == 0


def test_young_split_violations_match_the_dense_pencil(sys8_neg5, monkeypatch):
    # the split holds for every field exactly when the top eigenvalue of
    # (S, c1 eps K + c2 M) is at most 1; a halved constant breaks it at
    # eps* and 8 eps* but not at eps*/8, and at each broken eps the top
    # eigenvector is a field that violates the split
    sys = sys8_neg5
    C = 0.5 * _interp_limit(sys.s)
    monkeypatch.setattr(analysis, "_interp_limit", lambda s: C)
    rep = young_split_audit(sys)

    a, s = abs(sys.alpha), sys.s
    eps_star = 1.0 / (2.0 * C * s * a)
    broken = []
    for eps, (p, q, top) in zip((eps_star / 8.0, eps_star, 8.0 * eps_star), rep.pencils):
        c2 = C * ((1.0 - s) * eps ** (-s / (1.0 - s)) + s * eps)
        assert (p, q) == pytest.approx((C * s * eps, c2), rel=1e-14)
        w, vecs = linalg.eigh(sys.S, C * s * eps * sys.K + c2 * sys.M)
        assert top == pytest.approx(w[-1], rel=1e-12)
        if w[-1] > 1.0 + SPLIT_SLACK:
            broken.append(eps)
            u = vecs[:, -1]
            qs, qk, qm = (float(u @ X @ u) for X in (sys.S, sys.K, sys.M))
            assert qs > C * s * eps * qk + c2 * qm
    assert broken == [eps_star, 8.0 * eps_star]
    assert (rep.violations, rep.trials) == (len(broken), 3)
    assert not rep.certified


def test_young_split_overflow_names_the_power_that_overflows():
    # at s = 0.99 the power eps^(-99) of the Young split exceeds the largest float
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.99, -1.0)
    eps = 1.0 / (2.0 * _interp_limit(0.99) * 0.99) / 8.0  # eps*/8, the first one tried
    with pytest.raises(OverflowError) as err:
        young_split_audit(sys)
    message = str(err.value)
    assert "c2(eps)" in message and "s=0.99" in message
    assert "exponent -s/(1-s)=-99" in message and f"eps={eps:.6g}" in message
