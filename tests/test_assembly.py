import mpmath as mp
import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import toeplitz

from mixlap import (
    build_mesh,
    build_system,
    dump_matrix,
    interpolate,
    load_matrix,
)
from mixlap import assembly
from mixlap.assembly import (
    _FAR_FIELD,
    _STENCIL,
    _dst,
    _gagliardo_column,
    assemble_gagliardo,
)
from mixlap.oracles import _exterior_entry_oracle, _hat, _pair_integrand, gagliardo_entry_oracle


def _stiffness(mesh):
    return build_system(mesh, 0.5, 0.0).K


def _mass(mesh):
    return build_system(mesh, 0.5, 0.0).M


def test_stiffness_minimal():
    K = _stiffness(build_mesh(0, 1, 2))
    np.testing.assert_allclose(K, [[4.0]])


def test_stiffness_quarters():
    K = _stiffness(build_mesh(0, 1, 4))
    expected = 4.0 * (2 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1))
    np.testing.assert_allclose(K, expected)


def test_stiffness_matches_slope_energy():
    # quadratic form equals the sum of elementwise slope energies of the
    # zero-extended piecewise-linear reconstruction
    mesh = build_mesh(0, 1, 16)
    u = interpolate(lambda x: x * np.maximum(0.0, 1 - np.abs(4 * x - 2)), mesh)
    K = _stiffness(mesh)
    nodal = u.padded()
    slopes = np.diff(nodal) / mesh.h
    direct = float(np.sum(slopes**2) * mesh.h)
    assert abs(float(u.coeffs @ K @ u.coeffs) - direct) < 1e-12 * max(1.0, direct)


def test_mass_minimal():
    M = _mass(build_mesh(0, 1, 2))
    np.testing.assert_allclose(M, [[1.0 / 3.0]])


def test_mass_quarters():
    M = _mass(build_mesh(0, 1, 4))
    expected = (np.eye(3, k=1) + 4 * np.eye(3) + np.eye(3, k=-1)) / 24.0
    np.testing.assert_allclose(M, expected)


def test_mass_tent_profile():
    # all-ones nodal vector on quarters: integral of the trapezoid squared
    # is 2 * h/3 + 2 * h = 2/3, by exact piecewise integration
    mesh = build_mesh(0, 1, 4)
    M = _mass(mesh)
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


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pair_integrand_is_the_hats_integrand_bit_for_bit(s):
    # the S oracle resolves each hat to its affine piece on a cell pair; the
    # integrand must stay the one built from the hats themselves
    mesh = build_mesh(0, 1, 4)
    rng = np.random.default_rng(0)
    expo = 1.0 + 2.0 * s
    for i in range(1, mesh.ndof + 1):
        for j in range(1, mesh.ndof + 1):
            phi_i, phi_j = _hat(mesh, i), _hat(mesh, j)
            for k in range(mesh.n_elem):
                for m in range(mesh.n_elem):
                    integrand = _pair_integrand(mesh, s, i, j, k, m)
                    for x, y in zip(k + rng.random(5), m + rng.random(5)):
                        x, y = float(x * mesh.h), float(y * mesh.h)
                        want = (phi_i(x) - phi_i(y)) * (phi_j(x) - phi_j(y)) / abs(x - y) ** expo
                        assert integrand(y, x) == want


def test_gagliardo_oracle_integrates_past_the_diagonal_near_s_one():
    # at s = 0.98 the quadrature of a diagonal cell pair evaluates the
    # integrand at x == y, where the kernel is 0 / 0; the oracle takes the
    # integrand as 0 on that null set and still matches the closed form
    mesh = build_mesh(0, 1, 2)
    want = assemble_gagliardo(mesh, 0.98)[0, 0]
    assert gagliardo_entry_oracle(mesh, 0.98, 1, 1) == pytest.approx(want, rel=1e-8)


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
    # the energy pairing B(u, v) = u^T (K + alpha S) v, applied by apply_A
    rng = np.random.default_rng(2)
    v = rng.standard_normal(sys64_zero.ndof)
    assert float(v @ sys64_zero.apply_A(np.zeros(sys64_zero.ndof))) == 0.0
    u = rng.standard_normal(sys64_zero.ndof)
    assert abs(float(u @ sys64_zero.apply_A(u)) - float(u @ sys64_zero.K @ u)) < 1e-12


def test_bilinear_middle_hat_entry():
    sys = build_system(build_mesh(0, 1, 4), 0.5, -1.0)
    e2 = np.array([0.0, 1.0, 0.0])
    expected = sys.K[1, 1] - sys.S[1, 1]
    assert abs(float(e2 @ sys.apply_A(e2)) - expected) < 1e-13 * abs(expected)


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
    K = _stiffness(mesh)
    dump_matrix(path, K, "banded")
    back, kind = load_matrix(path)
    assert kind == "banded"
    np.testing.assert_array_equal(back, K)


def test_dump_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        dump_matrix(tmp_path / "x.txt", np.eye(2), "sparse")


def test_with_alpha_derives_its_own_forms():
    sys = build_system(build_mesh(0.0, 1.0, 16), 0.5, -5.0)
    w = sys.eigenpairs.values
    assert np.array_equal(sys.A, sys.K - 5.0 * sys.S)
    other = sys.with_alpha(2.0)
    assert other.k_col is sys.k_col and other.s_col is sys.s_col and other.m_col is sys.m_col
    assert other.sine is sys.sine
    assert np.array_equal(other.A, sys.K + 2.0 * sys.S)
    w_other = other.eigenpairs.values
    unsplit = linalg.eigh(sys.K + 2.0 * sys.S, sys.M, eigvals_only=True)
    assert np.max(np.abs(w_other - unsplit)) <= 1e-13 * np.max(np.abs(unsplit))
    assert w_other[0] > 0.0 > w[0]


@pytest.mark.parametrize("n_elem", [2, 3, 8, 9, 64, 65])
def test_parity_split_matches_the_unsplit_pencil(n_elem):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -5.0)
    w, v = sys.eigenpairs.values, sys.eigenpairs.vectors(sys.ndof)
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
    # the half-row build rounds differently from two full passes (about 0.8
    # eps max|T| at both sizes), and its mirror makes each block exactly symmetric
    from scipy.fft import dst

    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -1.0)
    T = dst(dst(sys.S, type=1, norm="ortho", axis=1), type=1, norm="ortho", axis=0)
    for b, block in enumerate(sys.sine.blocks):
        assert np.abs(block - T[b::2, b::2]).max() <= 4 * np.finfo(float).eps * np.abs(T).max()
        assert np.array_equal(block, block.T)


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
    # the one tridiagonal product serves K and M by two numbers and a
    # non-Toeplitz band (the Hessian's weighted mass) by two arrays
    diag, off = rng.standard_normal(ndof), rng.standard_normal(ndof - 1)
    band = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for X in (rng.standard_normal(ndof), rng.standard_normal((ndof, 5))):
        shape = (-1,) + (1,) * (X.ndim - 1)  # a band has as many axes as X
        products = (
            (sys.K, sys.apply_K),
            (sys.M, sys.apply_M),
            (band, lambda X: assembly.tridiagonal_product(diag.reshape(shape), off.reshape(shape), X)),
        )
        for dense, product in products:
            scale = np.abs(dense).max() * np.abs(X).max()
            assert product(X).shape == X.shape
            assert np.abs(product(X) - dense @ X).max() <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_elem", [2, 3, 8, 65, 512])
def test_dense_forms_are_built_from_the_columns(n_elem):
    mesh = build_mesh(0.0, 1.0, n_elem)
    sys = build_system(mesh, 0.5, -5.0)
    n, h = mesh.ndof, mesh.h
    tri = np.eye(n, k=1) + np.eye(n, k=-1)
    assert np.array_equal(sys.K, (2.0 * np.eye(n) - tri) / h)
    assert np.array_equal(sys.M, (4.0 * np.eye(n) + tri) * h / 6.0)
    assert np.array_equal(sys.S, assemble_gagliardo(mesh, 0.5))
    for alpha in (-5.0, 0.0, 1.5):
        assert np.array_equal(sys.with_alpha(alpha).A, sys.K + alpha * sys.S)


def test_a_built_system_holds_no_dense_matrix():
    sys = build_system(build_mesh(0.0, 1.0, 2048), 0.5, -1.0)
    assert max(np.ndim(value) for value in vars(sys).values()) == 1
    assert sys.s_col.shape == (2047,)


@pytest.mark.parametrize("n_elem", [2, 3, 64, 1024])
def test_circulant_s_product_matches_the_dense_s(n_elem):
    sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -1.0)
    rng = np.random.default_rng(n_elem)
    for X in (rng.standard_normal(sys.ndof), rng.standard_normal((sys.ndof, 70))):  # two column blocks
        want = sys.S @ X
        assert sys.apply_S(X).shape == want.shape
        assert np.abs(sys.apply_S(X) - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(sys.apply_A(X) - sys.A @ X).max() <= 1e-13 * np.abs(sys.A @ X).max()


def _sine_solves(sys):
    """Every solve the sine basis runs on its two halves, at the system's coupling."""
    sine = assembly.SineBasis(sys.k_col, sys.s_col, sys.m_col)
    X = np.random.default_rng(0).standard_normal((sys.ndof, sys.ndof))
    pairs = sine.lowest(sys.ndof, 1.0, sys.alpha, 0.0, 0.0, 1.0)
    top = sine.lowest(1, 0.0, -1.0, 0.0, 1.0, 0.0)
    return [
        *sine.blocks,
        pairs.values,
        *pairs.halves,
        pairs.vectors(sys.ndof),
        top.values,
        top.vectors(1),
        sine.lowest(1, 1.0, 2.0 * sys.alpha, 0.0, 0.0, 1.0, vectors=False).values,
        assembly._dst(X),
    ]


def test_threaded_halves_match_the_serial_ones_bit_for_bit(monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, 1024), 0.5, -1.0)
    assert (sys.ndof + 1) // 2 == assembly.CONCURRENT_HALF_ROWS  # the smallest threaded size
    threaded = []
    monkeypatch.setattr(assembly, "_threads_allowed", lambda: threaded.append(1) or True)
    two_threads = _sine_solves(sys)
    # the two passes of the half-row build (the rows of S Q, then each block),
    # every pair and its lift, the top pair (its one-row lift runs on one
    # thread), the lowest value and the row DST
    assert len(threaded) == 7
    monkeypatch.setattr(assembly, "_threads_allowed", lambda: False)
    one_thread = _sine_solves(sys)
    for a, b in zip(two_threads, one_thread):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("ndof", [1, 2, 7, 127])
def test_lowest_matches_the_dense_pencil(ndof):
    # the coefficient z of M on the left is one more diagonal term in the sine basis
    sys = build_system(build_mesh(0.0, 1.0, ndof + 1), 0.5, -1.0)
    for x, y, z, p, q in ((1.0, -1.0, 0.0, 0.0, 1.0), (1.0, -1.0, -30.0, 1.0, 0.0), (0.0, -1.0, 2.0, 1e-3, 1.001)):
        left, right = x * sys.K + y * sys.S + z * sys.M, p * sys.K + q * sys.M
        want = linalg.eigh(left, right, eigvals_only=True)
        got = sys.sine.lowest(1, x, y, z, p, q, vectors=False).values[0]
        assert abs(got - want[0]) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("ndof", [1, 2, 7, 127, 1023])
def test_top_matches_the_full_eigensolve_of_the_blocks(ndof):
    # the top pair of (S, p K + q M) is the lowest of (-S, p K + q M), negated:
    # one pair with its vector, by inverse iteration on the dense route (1 x 1
    # blocks through its zero pivot) and by the block route at ndof = 1023,
    # there on two threads too (test_threaded_halves_match_the_serial_ones_bit_for_bit)
    sys = build_system(build_mesh(0.0, 1.0, ndof + 1), 0.5, -1.0)
    for p, q in ((1.0, 0.0), (0.0, 1.0), (1e-3, 1.001)):
        tops = [np.linalg.eigh(sys.sine.scaled(b, 0.0, 1.0, 0.0, p, q).dense())[0][-1] for b in range(min(ndof, 2))]
        pairs = sys.sine.lowest(1, 0.0, -1.0, 0.0, p, q)
        assert pairs.counters["route"] == ("block" if ndof == 1023 else "dense")
        assert pairs.counters["fallbacks"] == 0
        mu, u = -pairs.values[0], pairs.vectors(1)[:, 0]
        assert abs(mu - max(tops)) <= 1e-13 * abs(max(tops))
        # in the winning block's standard problem: a unit vector (of unit
        # p K + q M norm at the nodes) whose Rayleigh quotient is mu, with
        # its residual at round-off
        b = int(np.argmax(tops))
        op = sys.sine.scaled(b, 0.0, 1.0, 0.0, p, q)
        C, r = op.dense(), op.r
        z = _dst(u.copy())[b::2] / r
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-13
        norm, Cz = np.linalg.norm(C, 2), C @ z
        assert abs(z @ Cz - mu) <= 1e-13 * norm
        assert np.linalg.norm(Cz - (z @ Cz) * z) <= 1e-13 * norm


@pytest.mark.parametrize("n_elem", [2, 3, 64, 65])
def test_lifting_a_few_eigenvectors_gives_the_columns_of_all(n_elem):
    pairs = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -5.0).eigenpairs
    ndof = pairs.values.size
    every = pairs.vectors(ndof)
    for count in sorted({1, 2, 13, ndof} & set(range(1, ndof + 1))):
        assert np.array_equal(pairs.vectors(count), every[:, :count])


@pytest.mark.parametrize("n, threads", [(1, 1), (2, 1), (1022, 1), (1023, 2), (1024, 2)])
def test_halves_run_on_two_threads_from_the_size_threshold(monkeypatch, n, threads):
    import threading

    monkeypatch.setattr(assembly, "_threads_allowed", lambda: True)
    idents = assembly._halves(lambda b: threading.get_ident(), n)
    assert len(idents) == min(n, 2) and len(set(idents)) == threads
    monkeypatch.setattr(assembly, "_threads_allowed", lambda: False)
    assert len(set(assembly._halves(lambda b: threading.get_ident(), n))) == 1


def test_an_error_in_the_second_half_reaches_the_caller(monkeypatch):
    sys = build_system(build_mesh(0.0, 1.0, 1024), 0.5, -1.0)
    scaled = assembly.SineBasis.scaled  # both routes start from it

    def failing(self, b, *args):
        if b == 1:
            raise np.linalg.LinAlgError("p K + q M is not positive definite")
        return scaled(self, b, *args)

    monkeypatch.setattr(assembly, "_threads_allowed", lambda: True)
    monkeypatch.setattr(assembly.SineBasis, "scaled", failing)
    for solve in (
        lambda: sys.sine.lowest(sys.ndof, 1.0, -1.0, 0.0, 0.0, 1.0),
        lambda: sys.sine.lowest(1, 0.0, -1.0, 0.0, 1.0, 0.0),
        lambda: sys.sine.lowest(1, 1.0, -1.0, 0.0, 0.0, 1.0, vectors=False),
    ):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            solve()


@pytest.mark.parametrize(
    "env, allowed",
    [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),  # MKL would fall back to one thread per core
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({}, False),
    ],
)
def test_threads_need_two_cores_and_one_blas_thread(monkeypatch, env, allowed):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(assembly.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert assembly._threads_allowed() is allowed
    monkeypatch.setattr(assembly.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not assembly._threads_allowed()


ALPHAS = (-10.0, -1.0, 0.0, 1.0)


def _caller_pencils(s, alpha):
    """(x, y, z, p, q) of the four pencils callers pass to ``SineBasis.lowest``:
    (K + alpha S, M); gamma's (K + 2 alpha S, M); the coercivity gap's
    (K + alpha S - theta_bar M, K) at theta_bar = 30; and the Young split's
    (-S, c1 eps K + c2 M) at its eps = 1 / (2 c1 |alpha|), |alpha| at least 1."""
    from mixlap.analysis import _interp_limit

    c = _interp_limit(s)
    eps = 1.0 / (2.0 * c * s * max(abs(alpha), 1.0))
    c2 = c * ((1.0 - s) * eps ** (-s / (1.0 - s)) + s * eps)
    return [
        (1.0, alpha, 0.0, 0.0, 1.0),
        (1.0, 2.0 * alpha, 0.0, 0.0, 1.0),
        (1.0, alpha, -30.0, 1.0, 0.0),
        (0.0, -1.0, 0.0, c * s * eps, c2),
    ]


# Above n_elem = 256: two couplings per order and one pencil (an index into
# ``_caller_pencils``) per coupling, so that each size sees every coupling
# and every pencil, and the stall case: the coercivity gap at s = 0.9 and
# alpha = -10, whose block has a diagonal near 1 and large off-diagonal terms.
LARGE_CASES = {0.1: ((-10.0, 0), (0.0, 1)), 0.5: ((-1.0, 3), (1.0, 0)), 0.9: ((-10.0, 2), (0.0, 3))}
# The top pairs as the embedding constant and the interpolation sweep ask for
# them: (-S, K) and the sweep's starts (-S, theta K + (1 + theta) M).
TOP_FAMILY = [(0.0, -1.0, 0.0, 1.0, 0.0)] + [(0.0, -1.0, 0.0, th, 1.0 + th) for th in (1e-6, 1.0, 1e6)]


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n_elem", [256, 1024, 2048])
def test_block_route_encloses_the_dense_eigenvalues(n_elem, s):
    sine = build_system(build_mesh(0.0, 1.0, n_elem), s, 0.0).sine
    if n_elem == 256:
        pencils = [_caller_pencils(s, alpha)[i] for alpha in ALPHAS for i in range(4)]
    else:
        pencils = [_caller_pencils(s, alpha)[i] for alpha, i in LARGE_CASES[s]]
    if n_elem == 1024:
        pencils += TOP_FAMILY
    for pencil in pencils:
        for b in (0, 1):
            C = sine.scaled(b, *pencil).dense()
            want = np.linalg.eigh(C)[0]
            slack = 64 * np.finfo(float).eps * np.linalg.norm(C)
            for count in (1, 2, 12):
                found = assembly._block_lowest(sine.scaled(b, *pencil), count)
                assert found is not None, (pencil, b, count)
                theta, X, rho, _ = found
                assert np.all(want[:count] >= theta - rho - slack), (pencil, b, count)
                assert np.all(want[:count] <= theta + slack), (pencil, b, count)
                assert np.abs(X.T @ X - np.eye(count)).max() <= 1e-13


@pytest.mark.parametrize("n_elem", [128, 1024])
def test_reduced_blocks_are_exactly_symmetric(n_elem):
    # every route solves the matrix of the block's lower triangle, the one LAPACK reads
    sine = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, 0.0).sine
    for pencil in _caller_pencils(0.5, -1.0):
        for b in (0, 1):
            C = sine.scaled(b, *pencil).dense()
            assert np.array_equal(C, C.T), (pencil, b)


def _fail_the_block_route(monkeypatch, failure):
    if failure == "certificate":
        # Ritz pairs that skip each block's lowest eigenpair: only the
        # Cholesky of the certificate can tell
        lobpcg = assembly._lobpcg

        def without_the_lowest(C, count):
            theta, X, CX, iterations = lobpcg(C, count + 1)
            return theta[1:], X[:, 1:], CX[:, 1:], iterations

        monkeypatch.setattr(assembly, "_lobpcg", without_the_lowest)
    elif failure == "iteration cap":
        monkeypatch.setattr(assembly, "_MAX_ITERATIONS", 1)


@pytest.mark.parametrize("failure", ["certificate", "iteration cap"])
def test_a_failed_block_solve_falls_back_to_the_dense_one(monkeypatch, failure):
    sys = build_system(build_mesh(0.0, 1.0, 1024), 0.5, -1.0)
    blocks = [sys.sine.scaled(b, 1.0, -1.0, 0.0, 0.0, 1.0).dense() for b in (0, 1)]
    _fail_the_block_route(monkeypatch, failure)
    for b in (0, 1):
        assert assembly._block_lowest(sys.sine.scaled(b, 1.0, -1.0, 0.0, 0.0, 1.0), 12) is None
    pairs = sys.sine.lowest(12, 1.0, -1.0, 0.0, 0.0, 1.0)
    assert pairs.counters == {"route": "block", "iterations": [0, 0], "fallbacks": 2}
    dense = sys.eigenpairs
    assert np.array_equal(pairs.values, dense.values[:12])
    assert np.array_equal(pairs.vectors(12), dense.vectors(12))
    values = sys.sine.lowest(1, 1.0, -1.0, 0.0, 0.0, 1.0, vectors=False)
    assert values.counters["fallbacks"] == 2
    assert values.values[0] == min(np.linalg.eigvalsh(C)[0] for C in blocks)


@pytest.mark.parametrize("failure", ["none", "certificate", "iteration cap"])
def test_the_block_route_leaves_the_blocks_bit_for_bit(monkeypatch, failure):
    # the certificate's Cholesky is factored in each block's lower triangle
    # (on two threads here) and undone, whether or not it passes
    monkeypatch.setattr(assembly, "_threads_allowed", lambda: True)
    sine = build_system(build_mesh(0.0, 1.0, 1024), 0.5, -1.0).sine
    before = [B.copy() for B in sine.blocks]
    _fail_the_block_route(monkeypatch, failure)
    for count in (1, 12):
        pairs = sine.lowest(count, 1.0, -1.0, 0.0, 0.0, 1.0)
        assert pairs.counters["route"] == "block"
        assert pairs.counters["fallbacks"] == (0 if failure == "none" else 2)
        for B, want in zip(sine.blocks, before):
            assert np.array_equal(B, want)


def test_the_route_follows_the_block_size_and_the_share_asked_for():
    # ndof = 511 has blocks of 256 and 255 rows: both take the larger's route
    assert assembly.BLOCK_ROUTE_ROWS == 256
    cases = ((510, 1, "dense"), (512, 1, "block"), (512, 28, "block"), (512, 29, "dense"), (2048, 13, "block"))
    for n_elem, count, route in cases:
        sys = build_system(build_mesh(0.0, 1.0, n_elem), 0.5, -1.0)
        pairs = sys.sine.lowest(count, 1.0, -1.0, 0.0, 0.0, 1.0)
        assert pairs.counters["route"] == route and pairs.counters["fallbacks"] == 0
        assert (min(pairs.counters["iterations"]) > 0) == (route == "block")
        assert pairs.values.size == count
        unsplit = np.sort(np.concatenate([np.linalg.eigvalsh(sys.sine.scaled(b, 1.0, -1.0, 0.0, 0.0, 1.0).dense()) for b in (0, 1)]))
        assert np.abs(pairs.values - unsplit[:count]).max() <= 1e-11 * np.abs(unsplit).max()


@pytest.mark.parametrize("n_elem", [64, 1024])
def test_the_gagliardo_form_reaches_both_limits_in_s_at_first_order(n_elem):
    # u = sin(pi x): s [u]^2 -> 2 |u|^2 as s -> 0 (Maz'ya & Shaposhnikova,
    # J. Funct. Anal. 195, 2002) and (1-s) [u]^2 -> |u'|^2 as s -> 1
    # (Bourgain, Brezis & Mironescu, 2001), each with an O(s), O(1-s) gap
    # whose scaled size reads 4.24-4.30 and 1.44-1.47 at both sizes
    mesh = build_mesh(0.0, 1.0, n_elem)
    u = np.sin(np.pi * mesh.nodes)
    for s in (1e-3, 1e-2):
        sys = build_system(mesh, s, 0.0)
        gap = (s * (u @ sys.apply_S(u)) / (u @ sys.apply_M(u)) - 2.0) / s
        assert 4.0 <= gap <= 4.5, (s, gap)
    for s in (0.99, 0.999):
        sys = build_system(mesh, s, 0.0)
        gap = (1.0 - (1.0 - s) * (u @ sys.apply_S(u)) / (u @ sys.apply_K(u))) / (1.0 - s)
        assert 1.3 <= gap <= 1.6, (s, gap)
