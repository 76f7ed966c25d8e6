import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.linalg import toeplitz

from mixlap import (
    FeField,
    bilinear_B,
    build_mesh,
    build_system,
    dump_matrix,
    interpolate,
    load_matrix,
    norms,
)
from mixlap.assembly import (
    _FAR_FIELD,
    _STENCIL,
    _dst,
    _gagliardo_column,
    assemble_gagliardo,
    assemble_local_stiffness,
    assemble_mass,
)
from mixlap.oracles import _exterior_entry_oracle


def test_stiffness_minimal():
    K = assemble_local_stiffness(build_mesh(0, 1, 2))
    np.testing.assert_allclose(K, [[4.0]])


def test_stiffness_quarters():
    K = assemble_local_stiffness(build_mesh(0, 1, 4))
    expected = 4.0 * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    np.testing.assert_allclose(K, expected)


def test_stiffness_matches_slope_energy():
    # quadratic form equals the sum of elementwise slope energies of the
    # zero-extended piecewise-linear reconstruction
    mesh = build_mesh(0, 1, 16)
    u = interpolate(lambda x: x * np.maximum(0.0, 1 - np.abs(4 * x - 2)), mesh)
    K = assemble_local_stiffness(mesh)
    nodal = u.padded()
    slopes = np.diff(nodal) / mesh.h
    direct = float(np.sum(slopes**2) * mesh.h)
    assert abs(float(u.coeffs @ K @ u.coeffs) - direct) < 1e-12 * max(1.0, direct)


def test_mass_minimal():
    M = assemble_mass(build_mesh(0, 1, 2))
    np.testing.assert_allclose(M, [[1.0 / 3.0]])


def test_mass_quarters():
    M = assemble_mass(build_mesh(0, 1, 4))
    expected = (np.eye(3, k=1) + 4 * np.eye(3) + np.eye(3, k=-1)) / 24.0
    np.testing.assert_allclose(M, expected)


def test_mass_tent_profile():
    # all-ones nodal vector on quarters: integral of the trapezoid squared
    # is 2 * h/3 + 2 * h = 2/3, by exact piecewise integration
    mesh = build_mesh(0, 1, 4)
    M = assemble_mass(mesh)
    ones = np.ones(3)
    assert abs(float(ones @ M @ ones) - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_gagliardo_symmetric_positive_diag(s):
    S = assemble_gagliardo(build_mesh(0, 1, 6), s)
    np.testing.assert_allclose(S, S.T, atol=1e-12 * np.max(np.abs(S)))
    assert np.all(np.diag(S) > 0)


def test_gagliardo_matches_oracle(oracle_s_matrices):
    mesh = build_mesh(0, 1, 4)
    for s, S_oracle in oracle_s_matrices.items():
        S = assemble_gagliardo(mesh, s)
        assert np.max(np.abs(S - S_oracle)) < 1e-6, f"s={s}"


def test_gagliardo_finite_both_orders():
    mesh = build_mesh(0, 1, 8)
    u = interpolate(lambda x: np.sin(np.pi * x), mesh)
    for s in (0.25, 0.75):
        S = assemble_gagliardo(mesh, s)
        q = float(u.coeffs @ S @ u.coeffs)
        assert np.isfinite(q) and q > 0


def test_gagliardo_rejects_bad_order():
    mesh = build_mesh(0, 1, 4)
    for s in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError, match="0 < s < 1"):
            assemble_gagliardo(mesh, s)


def test_exterior_part_positive():
    # the exterior collar part of the form is positive definite: dropping it
    # strictly decreases the form on any nonzero field
    mesh = build_mesh(0, 1, 8)
    idx = range(1, mesh.ndof + 1)
    ext = np.array([[_exterior_entry_oracle(mesh, 0.5, i, j) for j in idx] for i in idx])
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(7)
        assert float(u @ ext @ u) > 0


def _mp_column(s, h, ks, dps):
    """c_k = h^(1-2s) / (s (2-2s) (3-2s)) * delta^4 g(k) in mpmath, with
    g(x) = x^2 expm1((1-2s) log|x|) / (1-2s), g(0) = 0, x^2 log|x| at s = 1/2."""
    with mp.workdps(dps):
        s, h = mp.mpf(s), mp.mpf(h)
        e = 1 - 2 * s

        def g(x):
            x = abs(mp.mpf(x))
            if x == 0:
                return mp.mpf(0)
            return x**2 * (mp.log(x) if e == 0 else mp.expm1(e * mp.log(x)) / e)

        scale = h**e / (s * (2 - 2 * s) * (3 - 2 * s))
        gs = {x: g(x) for x in {abs(int(k) + j) for k in ks for j in range(-2, 3)}}
        return [
            scale * sum(w * gs[abs(int(k) + j)] for w, j in zip((1, -4, 6, -4, 1), range(-2, 3)))
            for k in ks
        ]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 0.9])
@pytest.mark.parametrize("n", [64, 2048])
def test_gagliardo_closed_form_matches_mpmath(s, n):
    mesh = build_mesh(0, 1, n)
    S = assemble_gagliardo(mesh, s)
    ref = np.array([float(c) for c in _mp_column(s, mesh.h, range(mesh.ndof), dps=60)])
    rel = np.abs(S - toeplitz(ref)) / np.abs(toeplitz(ref))
    worst = np.unravel_index(np.argmax(rel), rel.shape)
    assert rel[worst] <= 1e-10, f"s={s} n={n}: entry {worst} off by {rel[worst]:.1e}"


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 0.9])
def test_gagliardo_far_field_matches_mpmath(s):
    # out to offsets no dense matrix reaches, through the column helper
    ks = np.unique(np.geomspace(1, 1e5, 60).astype(int))
    col = _gagliardo_column(s, ks)
    ref = _mp_column(s, 1.0, ks, dps=80)
    rel = [abs((mp.mpf(float(c)) - r) / r) for c, r in zip(col, ref)]
    worst = int(np.argmax(rel))
    assert rel[worst] <= 1e-10, f"s={s}: k={ks[worst]} off by {float(rel[worst]):.1e}"


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_gagliardo_is_toeplitz(s):
    S = assemble_gagliardo(build_mesh(0, 1, 33), s)
    np.testing.assert_array_equal(S, toeplitz(S[:, 0]))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_gagliardo_mesh_width_scaling(s):
    # on (-1, 2) the mesh width is three times that of (0, 1)
    unit = assemble_gagliardo(build_mesh(0, 1, 32), s)
    wide = assemble_gagliardo(build_mesh(-1, 2, 32), s)
    np.testing.assert_allclose(wide, 3.0 ** (1 - 2 * s) * unit, rtol=1e-14, atol=0)


def test_refinement_consistency():
    # quadratic form of a fixed smooth profile: error decays monotonically
    for s in (0.3, 0.5, 0.75):
        qs = []
        for n in (8, 16, 32, 64, 128):
            mesh = build_mesh(0, 1, n)
            u = interpolate(lambda x: np.sin(np.pi * x), mesh)
            S = assemble_gagliardo(mesh, s)
            qs.append(float(u.coeffs @ S @ u.coeffs))
        errors = [abs(q - qs[-1]) for q in qs[:-2]]
        assert errors[0] > errors[1] > errors[2], f"s={s}: {errors}"


def test_positivity_random_fields(sys8_neg5):
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = rng.standard_normal(sys8_neg5.ndof)
        assert float(u @ sys8_neg5.K @ u) > 0
        assert float(u @ sys8_neg5.M @ u) > 0
        assert float(u @ sys8_neg5.S @ u) > 0


def test_bilinear_zero_and_local_reduction(sys64_zero):
    mesh = sys64_zero.mesh
    rng = np.random.default_rng(2)
    v = FeField(rng.standard_normal(mesh.ndof), mesh)
    zero = FeField.zero(mesh)
    assert bilinear_B(sys64_zero, zero, v) == 0.0
    u = FeField(rng.standard_normal(mesh.ndof), mesh)
    assert (
        abs(bilinear_B(sys64_zero, u, u) - float(u.coeffs @ sys64_zero.K @ u.coeffs))
        < 1e-12
    )


def test_bilinear_middle_hat_entry():
    mesh = build_mesh(0, 1, 4)
    sys = build_system(mesh, 0.5, -1.0)
    e2 = FeField(np.array([0.0, 1.0, 0.0]), mesh)
    expected = sys.K[1, 1] - sys.S[1, 1]
    assert abs(bilinear_B(sys, e2, e2) - expected) < 1e-13 * abs(expected)


def test_bilinear_mesh_mismatch(sys64_zero):
    other = build_mesh(0, 1, 32)
    u = FeField(np.zeros(31), other)
    with pytest.raises(ValueError, match="mesh"):
        bilinear_B(sys64_zero, u, u)


def test_norms_zero_and_diagonal():
    mesh = build_mesh(0, 1, 4)
    sys = build_system(mesh, 0.5, -1.0)
    zero = FeField.zero(mesh)
    assert norms(zero, sys) == (0.0, 0.0, 0.0)
    e2 = FeField(np.array([0.0, 1.0, 0.0]), mesh)
    nx, nl2, nsb = norms(e2, sys)
    assert abs(nx - np.sqrt(sys.K[1, 1])) < 1e-14
    assert abs(nl2 - np.sqrt(sys.M[1, 1])) < 1e-14
    assert abs(nsb - np.sqrt(sys.S[1, 1])) < 1e-14


@given(c=st.floats(-100, 100).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=40, deadline=None)
def test_norms_homogeneity(c, sys8_neg5):
    rng = np.random.default_rng(4)
    u = FeField(rng.standard_normal(sys8_neg5.ndof), sys8_neg5.mesh)
    cu = FeField(c * u.coeffs, sys8_neg5.mesh)
    base = norms(u, sys8_neg5)
    scaled = norms(cu, sys8_neg5)
    for got, want in zip(scaled, base):
        assert got == pytest.approx(abs(c) * want, rel=1e-12, abs=1e-12)


def test_symmetry_tolerances(sys64_neg5):
    for mat in (sys64_neg5.K, sys64_neg5.S, sys64_neg5.M):
        assert np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat))


def test_dump_load_roundtrip(tmp_path):
    mesh = build_mesh(0, 1, 6)
    S = assemble_gagliardo(mesh, 0.4)
    path = tmp_path / "S.txt"
    dump_matrix(path, S, "dense")
    back, kind = load_matrix(path)
    assert kind == "dense"
    np.testing.assert_array_equal(back, S)
    K = assemble_local_stiffness(mesh)
    dump_matrix(path, K, "banded")
    back, kind = load_matrix(path)
    assert kind == "banded"
    np.testing.assert_array_equal(back, K)


def test_dump_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        dump_matrix(tmp_path / "x.txt", np.eye(2), "sparse")


def test_with_alpha_derives_its_own_forms():
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, -5.0)
    w, _ = sys.eigenpairs
    assert np.array_equal(sys.A, sys.K - 5.0 * sys.S)
    other = sys.with_alpha(2.0)
    assert other.k_col is sys.k_col and other.s_col is sys.s_col and other.m_col is sys.m_col
    assert other.sine is sys.sine
    assert np.array_equal(other.A, sys.K + 2.0 * sys.S)
    w_other, _ = other.eigenpairs
    unsplit = linalg.eigh(sys.K + 2.0 * sys.S, sys.M, eigvals_only=True)
    assert np.max(np.abs(w_other - unsplit)) <= 1e-13 * np.max(np.abs(unsplit))
    assert w_other[0] > 0.0 > w[0]


@pytest.mark.parametrize("n_elem", [2, 3, 8, 9, 64, 65])
def test_parity_split_matches_the_unsplit_pencil(n_elem):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -5.0)
    w, v = sys.eigenpairs
    unsplit = linalg.eigh(sys.A, sys.M, eigvals_only=True)
    assert np.max(np.abs(w - unsplit)) <= 1e-13 * np.max(np.abs(unsplit))
    # every lifted column is even or odd under the flip, and M-orthonormal
    flip = v[::-1]
    parity = np.minimum(np.abs(flip - v).max(axis=0), np.abs(flip + v).max(axis=0))
    assert parity.max() <= 1e-13
    assert np.abs(v.T @ sys.M @ v - np.eye(sys.ndof)).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_sine_basis_is_an_orthogonal_change_of_basis(n):
    sys = build_system(build_mesh(0.0, 1.0, n + 1), 0.5, -5.0)
    j = np.arange(1, n + 1)
    Q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-15
    h, c = sys.mesh.h, np.cos(j * np.pi / (n + 1))
    closed_forms = (
        (sys.K, (2.0 - 2.0 * c) / h, sys.sine.k),
        (sys.M, h * (4.0 + 2.0 * c) / 6.0, sys.sine.m),
    )
    for X, closed, diag in closed_forms:
        assert np.abs(Q @ X @ Q - np.diag(closed)).max() <= 1e-14 * np.abs(X).max()
        assert np.abs(diag - closed).max() <= 1e-14 * np.abs(X).max()
    # S is symmetric Toeplitz: no odd sine mode couples to an even one
    QSQ = Q @ sys.S @ Q
    scale = np.abs(sys.S).max()
    assert np.abs(QSQ[0::2, 1::2]).max(initial=0.0) <= 1e-14 * scale
    for b, block in enumerate(sys.sine.blocks):
        assert np.abs(block - QSQ[b::2, b::2]).max(initial=0.0) <= 1e-14 * scale


@pytest.mark.parametrize("n", [1, 2, 7, 64, 511])
def test_dst_is_scipys_orthonormal_dst1_in_place(n):
    from scipy.fft import dst

    X = np.random.default_rng(n).standard_normal((19, n))  # more rows than one FFT block
    want = dst(X, type=1, norm="ortho", axis=1)
    assert _dst(X) is X and np.array_equal(X, want)
    x = np.random.default_rng(n + 1).standard_normal(n)
    want = dst(x, type=1, norm="ortho")
    assert _dst(x) is x and np.array_equal(x, want)


@pytest.mark.parametrize("n_elem", [64, 1024])
def test_sine_blocks_match_the_two_pass_scipy_dst(n_elem):
    from scipy.fft import dst

    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -1.0)
    T = dst(dst(sys.S, type=1, norm="ortho", axis=1), type=1, norm="ortho", axis=0)
    for b, block in enumerate(sys.sine.blocks):
        assert np.array_equal(block, T[b::2, b::2])


def _scipy_gagliardo(mesh, s):
    """S with scipy's ``exprel`` in the near field and ``toeplitz`` (far field as built)."""
    from scipy.special import exprel

    k = np.arange(mesh.ndof)
    col = _gagliardo_column(s, k)
    kn = k[k < _FAR_FIELD][:, None]
    x, r, eps = np.abs(kn + np.arange(-2, 3)), np.maximum(kn, 1), 1.0 - 2.0 * s
    L = np.log1p((np.where(x > 0, x, r) - r) / r)
    near = (x**2 * L * exprel(eps * L)) @ _STENCIL * r[:, 0] ** eps
    col[: kn.size] = near / (s * (2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    return toeplitz(mesh.h ** (1.0 - 2.0 * s) * col)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_gagliardo_matches_the_scipy_exprel_formula(s):
    mesh = build_mesh(0.0, 1.0, 1024)
    assert np.array_equal(assemble_gagliardo(mesh, s), _scipy_gagliardo(mesh, s))



@pytest.mark.parametrize("ndof", [1, 2, 7, 64])
def test_stencil_products_match_the_dense_forms(ndof):
    sys = build_system(build_mesh(0.0, 1.0, ndof + 1), 0.5, -5.0)
    rng = np.random.default_rng(ndof)
    for X in (rng.standard_normal(ndof), rng.standard_normal((ndof, 5))):
        for dense, product in ((sys.K, sys.apply_K), (sys.M, sys.apply_M)):
            scale = np.abs(dense).max() * np.abs(X).max()
            assert np.abs(product(X) - dense @ X).max() <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_elem", [2, 3, 8, 65, 512])
def test_dense_forms_are_built_from_the_columns(n_elem):
    mesh = build_mesh(0.0, 1.0, n_elem)
    sys = build_system(mesh, 0.5, -5.0)
    assert np.array_equal(sys.K, assemble_local_stiffness(mesh))
    assert np.array_equal(sys.M, assemble_mass(mesh))
    assert np.array_equal(sys.S, assemble_gagliardo(mesh, 0.5))
    for alpha in (-5.0, 0.0, 1.5):
        assert np.array_equal(sys.with_alpha(alpha).A, sys.K + alpha * sys.S)


def test_a_built_system_holds_no_dense_matrix():
    sys = build_system(build_mesh(0.0, 1.0, 2048), 0.5, -1.0)
    assert max(np.ndim(value) for value in vars(sys).values()) == 1
    assert sys.s_col.shape == (2047,)
