import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hml.symbols import (
    DegenerateDirectionError,
    EigenStructure,
    FrequencyDirection,
    MaterialModel,
    Q_MATRICES,
    TestSymbol,
    _mode_vectors,
    antisym_E,
    assemble_P,
    assemble_divergence_symbol,
    assemble_system_matrices,
    dispersion_matrix,
    eigen_structure,
    poisson_bracket,
    propagation_basis,
    propagation_operator,
)

unit3 = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).filter(lambda t: 0.1 < np.linalg.norm(t) < 1.7)


# ---------------------------------------------------------------- antisym_E

def test_antisym_E_axis_value():
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(antisym_E((0, 0, 1)), expected)


def test_antisym_E_zero_input():
    np.testing.assert_array_equal(antisym_E((0, 0, 0)), np.zeros((3, 3)))


@settings(max_examples=200, deadline=None)
@given(z=unit3, p=unit3)
def test_antisym_E_is_cross_product(z, p):
    z = np.asarray(z)
    p = np.asarray(p)
    assert np.max(np.abs(antisym_E(z) @ p - np.cross(z, p))) <= 1e-14


def test_antisym_E_antisymmetric(rng):
    for _ in range(20):
        z = rng.normal(size=3)
        E = antisym_E(z)
        np.testing.assert_array_equal(E.T, -E)


# ------------------------------------------------- system matrices A^k and C

def test_identity_model_blocks():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    A0, A1, A2, A3, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(A0, np.eye(6))
    expected_C = np.zeros((6, 6))
    expected_C[:3, :3] = np.eye(3)
    np.testing.assert_array_equal(C, expected_C)


def test_A1_off_diagonal_block_is_Q1():
    model = MaterialModel.constant()
    _, A1, _, _, _ = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    Q1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(A1[3:, :3], Q1)
    np.testing.assert_array_equal(A1[:3, 3:], Q1.T)
    np.testing.assert_array_equal(Q_MATRICES[0], Q1)


def test_system_matrices_symmetric(smooth_model, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=3)
        mats = assemble_system_matrices(smooth_model, x)
        for M in mats[:4]:
            np.testing.assert_allclose(M, M.T, atol=0)


def test_E_matches_Q_expansion(rng):
    z = rng.normal(size=3)
    np.testing.assert_allclose(antisym_E(z), sum(z[k] * Q_MATRICES[k] for k in range(3)), atol=1e-15)


# ----------------------------------------------------------------- symbol P

def test_P_identity_at_pure_time_direction():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    zeta = FrequencyDirection(1.0, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(np.asarray(assemble_P(model, (0, 0, 0), zeta.vec4)), np.eye(6), atol=1e-15)


def test_P_singular_on_spatial_directions(rng):
    model = MaterialModel.constant(1.3, 0.8, 0.0)
    for _ in range(25):
        zp = rng.normal(size=3)
        zeta = FrequencyDirection(0.0, zp)
        P = np.asarray(assemble_P(model, (0, 0, 0), zeta.vec4))
        assert abs(np.linalg.det(P)) <= 1e-12


def test_P_equals_entrywise_sum(smooth_model, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=3)
        zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
        A0, A1, A2, A3, _ = assemble_system_matrices(smooth_model, x)
        expected = zeta.zeta0 * A0 + sum(z * A for z, A in zip(zeta.zetaP, (A1, A2, A3)))
        np.testing.assert_allclose(np.asarray(assemble_P(smooth_model, x, zeta.vec4)), expected, atol=1e-14)


def test_stacked_symbols_match_per_direction(smooth_model, rng):
    x = np.array([0.1, -0.2, 0.3])
    zetas = rng.normal(size=(50, 4))
    P = assemble_P(smooth_model, x, zetas)
    B = assemble_divergence_symbol(zetas[:, 1:])
    E = antisym_E(zetas[:, 1:])
    assert P.shape == B.shape == (50, 6, 6) and E.shape == (50, 3, 3)
    eps, eta, I3 = smooth_model.eps_at(x), smooth_model.eta_at(x), np.eye(3)
    for n, (z0, *zp) in enumerate(zetas):
        En = np.cross(zp, I3).T  # column j is zeta' x e_j
        np.testing.assert_allclose(E[n], En, atol=1e-15)
        np.testing.assert_allclose(P[n], np.block([[z0 * eps * I3, -En], [En, z0 * eta * I3]]), atol=1e-14)
        np.testing.assert_array_equal(B[n], np.diag(np.concatenate([zp, zp])))


# --------------------------------------------------------- divergence symbol

def test_divergence_symbol_ones():
    np.testing.assert_array_equal(assemble_divergence_symbol((1, 1, 1)), np.eye(6))


def test_divergence_symbol_axis_singular():
    B = assemble_divergence_symbol((1, 0, 0))
    np.testing.assert_array_equal(B, np.diag([1, 0, 0, 1, 0, 0]))
    assert np.linalg.det(B[:3, :3]) == 0.0


def test_divergence_block_determinant(rng):
    for _ in range(50):
        z = rng.normal(size=3)
        B = assemble_divergence_symbol(z)
        assert np.linalg.det(B[:3, :3]) == pytest.approx(z[0] * z[1] * z[2], rel=1e-12, abs=1e-15)


# --------------------------------------------------------- dispersion matrix

def test_dispersion_entries_along_axis():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    L = dispersion_matrix(model, (0, 0, 0), (0.0, 0.0, 1.0))
    expected = np.zeros((6, 6))
    expected[:3, 3:] = -antisym_E((0, 0, 1))
    expected[3:, :3] = antisym_E((0, 0, 1))
    np.testing.assert_array_equal(L, expected)
    # explicit entries, top-right block rows (0,1,0), (-1,0,0), (0,0,0)
    assert L[0, 4] == 1.0 and L[1, 3] == -1.0 and L[4, 0] == 1.0 and L[3, 1] == -1.0


def test_dispersion_zero_direction(smooth_model):
    np.testing.assert_array_equal(dispersion_matrix(smooth_model, (0.1, 0, 0), (0, 0, 0)), np.zeros((6, 6)))


def test_dispersion_spectrum(smooth_model, rng):
    for _ in range(30):
        x = rng.uniform(-0.5, 0.5, size=3)
        zp = rng.normal(size=3)
        L = dispersion_matrix(smooth_model, x, zp)
        v = smooth_model.speed_at(x)
        r = np.linalg.norm(zp)
        got = np.sort(np.linalg.eigvals(L).real)
        want = np.sort([0, 0, v * r, v * r, -v * r, -v * r])
        np.testing.assert_allclose(got, want, atol=1e-9)


# --------------------------------------------------------- propagation basis

def test_propagation_basis_polar_axis():
    zhat, z1, z2 = propagation_basis((0, 0, 1))
    np.testing.assert_allclose(zhat, [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(z1, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(z2, [0, 1, 0], atol=1e-15)


def test_propagation_basis_orthonormal(rng):
    for _ in range(100):
        zp = rng.normal(size=3)
        zhat, z1, z2 = propagation_basis(zp)
        G = np.stack([zhat, z1, z2])
        np.testing.assert_allclose(G @ G.T, np.eye(3), atol=1e-13)


def test_propagation_basis_right_handed(rng):
    for _ in range(100):
        zp = rng.normal(size=3)
        zhat, z1, z2 = propagation_basis(zp)
        np.testing.assert_allclose(np.cross(zhat, z1), z2, atol=1e-13)


def test_propagation_basis_zero_errors():
    with pytest.raises(DegenerateDirectionError):
        propagation_basis((0, 0, 0))


@pytest.mark.parametrize("mode", EigenStructure.MODE_ORDER)
def test_mode_vectors_broadcast_match_eigen_structure(mode):
    model = MaterialModel.constant(2.0, 0.5, 0.0)
    rng = np.random.default_rng(11)
    zps = np.column_stack([rng.normal(size=(3, 50)), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    got = _mode_vectors(zps, 2.0, 0.5, (mode,))[:, 0]
    assert got.shape == (6, zps.shape[1])
    for n in range(zps.shape[1]):
        want = eigen_structure(model, (0, 0, 0), FrequencyDirection(0.3, zps[:, n])).vector(mode)
        np.testing.assert_allclose(got[:, n], want, atol=1e-14)


# ------------------------------------------------------------ eigenstructure

def test_eigen_values_unit_speed():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    es = eigen_structure(model, (0, 0, 0), FrequencyDirection(0.0, (0, 0, 1)))
    np.testing.assert_allclose(sorted(es.omegas), [-1.0, 0.0, 1.0], atol=1e-15)


def test_eigen_speed_and_gap():
    model = MaterialModel.constant(4.0, 1.0, 0.0)
    zeta = FrequencyDirection(0.3, (0.1, -0.4, 0.8))
    es = eigen_structure(model, (0, 0, 0), zeta)
    assert es.speed == pytest.approx(0.5)
    assert es.omegas[1] - es.omegas[2] == pytest.approx(zeta.zetaP_norm)  # v=1/2: 2*v*|z'| = |z'|


def test_eigen_zero_direction_errors(smooth_model):
    with pytest.raises(DegenerateDirectionError):
        eigen_structure(smooth_model, (0, 0, 0), FrequencyDirection(1.0, (0, 0, 0)))


def _random_models(rng, n=3):
    models = [MaterialModel.constant(*rng.uniform(0.5, 3.0, size=2), rng.uniform(0, 1))]
    while len(models) < n:
        a, b = rng.uniform(1.0, 2.0, size=2)
        c, d = rng.uniform(-0.3, 0.3, size=2)
        models.append(
            MaterialModel.scalar_smooth(
                eps=lambda x1, x2, x3, a=a, c=c: a + c * x1,
                eta=lambda x1, x2, x3, b=b, d=d: b + d * x2,
                sigma=lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape),
                grad_eps=lambda x1, x2, x3, c=c: np.stack(
                    [np.full(np.broadcast(x1, x2, x3).shape, c)] + [np.zeros(np.broadcast(x1, x2, x3).shape)] * 2
                ),
                grad_eta=lambda x1, x2, x3, d=d: np.stack(
                    [np.zeros(np.broadcast(x1, x2, x3).shape), np.full(np.broadcast(x1, x2, x3).shape, d),
                     np.zeros(np.broadcast(x1, x2, x3).shape)]
                ),
                eps_min=0.5,
                eta_min=0.5,
            )
        )
    return models


def test_eigen_residual_and_spectrum_cross_check(rng):
    models = _random_models(rng)
    for _ in range(200):
        model = models[rng.integers(len(models))]
        x = rng.uniform(-0.5, 0.5, size=3)
        zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
        if zeta.zetaP_norm < 1e-3:
            continue
        es = eigen_structure(model, x, zeta)
        A0 = assemble_system_matrices(model, x)[0]
        P = np.asarray(assemble_P(model, x, zeta.vec4))
        Pp = np.linalg.solve(A0, P)
        for col, w in zip(es.basis.T, es.omega_per_column):
            assert np.linalg.norm(Pp @ col - w * col) <= 1e-10
        got = np.sort(np.linalg.eigvals(Pp).real)
        want = np.sort(np.repeat(es.omegas, 2))
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_eigen_basis_A0_orthonormal(smooth_model, rng):
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=3)
        zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
        if zeta.zetaP_norm < 1e-3:
            continue
        es = eigen_structure(smooth_model, x, zeta)
        A0 = assemble_system_matrices(smooth_model, x)[0]
        gram = es.basis.T @ A0 @ es.basis
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


# ------------------------------------------------------------ Poisson bracket

def test_bracket_constant_model_block_form(rng):
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    psi = TestSymbol.monomial_x((1, 2, 0, 1), coeff=0.7)
    xt = rng.uniform(0.2, 0.8, size=4)
    zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
    got = poisson_bracket(model, psi, xt, zeta)
    g = psi.dx(xt, zeta.vec4)
    Esum = sum(Q_MATRICES[j] * g[1 + j] for j in range(3))
    expected = np.zeros((6, 6))
    expected[:3, :3] = g[0] * np.eye(3)
    expected[3:, 3:] = g[0] * np.eye(3)
    expected[:3, 3:] = -Esum
    expected[3:, :3] = Esum
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_bracket_constant_psi_is_zero(smooth_model):
    psi = TestSymbol.constant(3.2)
    zeta = FrequencyDirection.from_vec4((0.5, 0.1, -0.3, 0.8))
    got = poisson_bracket(smooth_model, psi, (0.1, 0.2, -0.1, 0.3), zeta)
    np.testing.assert_array_equal(got, np.zeros((6, 6)))


def _fd_bracket(model, psi, xt, zeta, h=1e-6):
    """Central finite differences of the defining formula, oracle only."""
    xt = np.asarray(xt, dtype=float)
    zv = zeta.vec4

    def P_raw(x, z):
        A0, A1, A2, A3, _ = assemble_system_matrices(model, x)
        return z[0] * A0 + z[1] * A1 + z[2] * A2 + z[3] * A3

    def psi_ext(x4, z):
        zn = np.asarray(z) / np.linalg.norm(z)
        return psi.value(x4, zn)

    out = np.zeros((6, 6))
    for l in range(4):
        ez = np.zeros(4)
        ez[l] = h
        dP_dz = (P_raw(xt[1:], zv + ez) - P_raw(xt[1:], zv - ez)) / (2 * h)
        ex = np.zeros(4)
        ex[l] = h
        dpsi_dx = (psi_ext(xt + ex, zv) - psi_ext(xt - ex, zv)) / (2 * h)
        dpsi_dz = (psi_ext(xt, zv + ez) - psi_ext(xt, zv - ez)) / (2 * h)
        xp, xm = xt.copy(), xt.copy()
        xp[l] += h
        xm[l] -= h
        dP_dx = (P_raw(xp[1:], zv) - P_raw(xm[1:], zv)) / (2 * h)
        out += dP_dz * dpsi_dx - dpsi_dz * dP_dx
    return out


def test_bracket_matches_finite_differences(smooth_model, rng):
    battery = [
        TestSymbol.monomial_x((1, 0, 0, 0)),
        TestSymbol.monomial_x((0, 2, 1, 0), coeff=0.5),
        TestSymbol.monomial_x((1, 1, 0, 1)) * TestSymbol.zeta_linear((0.2, 0.5, -0.1, 0.8)),
        TestSymbol.zeta_linear((1.0, 0.0, 0.0, 0.0)),
    ]
    for psi in battery:
        for _ in range(5):
            xt = rng.uniform(0.2, 0.8, size=4)
            zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
            got = poisson_bracket(smooth_model, psi, xt, zeta)
            ref = _fd_bracket(smooth_model, psi, xt, zeta)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(got - ref).max() / scale <= 1e-6


def test_bracket_variable_model_block_form(smooth_model, rng):
    # top-left block eps*dpsi/dt*Id - zeta0 * sum_l dpsi/dzeta_l * d_l eps * Id
    psi = TestSymbol.monomial_x((1, 0, 1, 0)) * TestSymbol.zeta_linear((0.3, -0.2, 0.9, 0.1))
    xt = rng.uniform(0.1, 0.6, size=4)
    zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
    got = poisson_bracket(smooth_model, psi, xt, zeta)
    x = xt[1:]
    eps = smooth_model.eps_at(x)
    ge = smooth_model.grad_eps_at(x)
    gx = psi.dx(xt, zeta.vec4)
    gz = psi.dzeta(xt, zeta.vec4)
    tl_scalar = eps * gx[0] - zeta.zeta0 * sum(gz[1 + l] * ge[l] for l in range(3))
    np.testing.assert_allclose(got[:3, :3], tl_scalar * np.eye(3), atol=1e-12)


# -------------------------------------------------------- propagation operator

def test_propagation_operator_constant_top_left(rng):
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    psi = TestSymbol.monomial_x((1, 0, 2, 0), coeff=1.3)
    xt = rng.uniform(0.2, 0.8, size=4)
    zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
    got = propagation_operator(model, psi, xt, zeta)
    g = psi.dx(xt, zeta.vec4)
    val = psi.value(xt, zeta.vec4)
    np.testing.assert_allclose(got[:3, :3], (g[0] - 2 * val) * np.eye(3), atol=1e-13)
    np.testing.assert_allclose(got[3:, 3:], g[0] * np.eye(3), atol=1e-13)


def test_propagation_operator_trivial_zero():
    model = MaterialModel.constant(2.0, 3.0, 0.0)
    psi = TestSymbol.zeta_linear((0.1, 0.5, 0.5, -0.2))  # constant in xt
    zeta = FrequencyDirection.from_vec4((0.4, 0.1, 0.2, 0.3))
    got = propagation_operator(model, psi, (0.3, 0.1, 0.2, 0.0), zeta)
    np.testing.assert_array_equal(got, np.zeros((6, 6)))


def test_propagation_operator_variable_top_left(smooth_model, rng):
    psi = TestSymbol.monomial_x((1, 1, 0, 0)) * TestSymbol.zeta_linear((0.0, 0.4, 0.3, -0.6))
    xt = rng.uniform(0.1, 0.6, size=4)
    zeta = FrequencyDirection.from_vec4(rng.normal(size=4))
    got = propagation_operator(smooth_model, psi, xt, zeta)
    x = xt[1:]
    eps = smooth_model.eps_at(x)
    sig = smooth_model.sigma_at(x)
    ge = smooth_model.grad_eps_at(x)
    gx = psi.dx(xt, zeta.vec4)
    gz = psi.dzeta(xt, zeta.vec4)
    val = psi.value(xt, zeta.vec4)
    tl = eps * gx[0] - zeta.zeta0 * sum(gz[1 + l] * ge[l] for l in range(3)) - 2 * val * sig
    np.testing.assert_allclose(got[:3, :3], tl * np.eye(3), atol=1e-12)


# ------------------------------------------------- transport-row curl weights

def test_curl_generators_antisymmetric():
    # makes T_l = Tr((z' (x) z') Q_l) vanish, so the transport rows drop it
    np.testing.assert_array_equal(Q_MATRICES, -np.transpose(Q_MATRICES, (0, 2, 1)))
