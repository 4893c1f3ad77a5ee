import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hml.symbols import (
    A_MATRICES,
    MODE_ORDER,
    DegenerateDirectionError,
    DomainError,
    MaterialModel,
    Q_MATRICES,
    assemble_P,
    assemble_divergence_symbol,
    assemble_system_matrices,
    mode_vectors,
    propagation_basis,
)

from reference import concatenated_mode_vectors

unit3 = st.tuples(
    st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
).filter(lambda t: 0.1 < np.linalg.norm(t) < 1.7)


# ------------------------------------------------ curl block E(zeta') of P

@settings(max_examples=200, deadline=None)
@given(z=unit3, p=unit3)
def test_curl_block_is_cross_product(z, p):
    # P(x, (0, zeta')) = [[0, -E], [E, 0]] with E p = zeta' x p, and E antisymmetric
    z = np.asarray(z)
    p = np.asarray(p)
    P = assemble_P(MaterialModel.constant(1.3, 0.8, 0.2), (0, 0, 0), np.concatenate([[0.0], z]))
    E = P[3:, :3]
    assert np.max(np.abs(E @ p - np.cross(z, p))) <= 1e-14
    np.testing.assert_array_equal(E.T, -E)
    np.testing.assert_array_equal(P[:3, 3:], -E)
    np.testing.assert_array_equal(P[:3, :3], np.zeros((3, 3)))
    np.testing.assert_array_equal(P[3:, 3:], np.zeros((3, 3)))


# ------------------------------------------------- system matrices A^k and C

def test_identity_model_blocks():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    A0, A1, A2, A3, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(A0, np.eye(6))
    expected_C = np.zeros((6, 6))
    expected_C[:3, :3] = np.eye(3)
    np.testing.assert_array_equal(C, expected_C)


@pytest.mark.parametrize(
    "changes",
    [
        {"kind": "constnat"},
        {"eps_min": 0.0},
        {"domain": ((0, 0, 0), (1, 1))},
        {"domain": ((1, 1, 1), (0, 0, 0))},
        {"domain": ((0, 0, 0),)},
    ],
    ids=["unknown_kind", "zero_lower_bound", "short_corner", "inverted_box", "one_corner"],
)
def test_model_refuses_bad_kind_or_domain(smooth_model, changes):
    # refused where the model is built, not at its first read
    with pytest.raises(ValueError, match="kind must be|eta_min must be|domain must be"):
        dataclasses.replace(smooth_model, **changes)


def test_fields_read_refuses_nan_coefficient(smooth_model):
    # eps is NaN for x1 > 0.5; a NaN fails every comparison, so "below the bound" alone lets it through
    bad = dataclasses.replace(smooth_model, eps=lambda x1, x2, x3: np.where(x1 > 0.5, np.nan, 1.0 + 0.0 * (x2 + x3)))
    x1 = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="eps .*non-finite"):
        bad.sample_fields(x1, 0.0, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        bad.speed(x1, 0.0, 0.0)


def test_coordinates_read_refuses_nan_in_domain_model(smooth_model):
    model = dataclasses.replace(smooth_model, domain=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    with pytest.raises(DomainError, match="non-finite or outside model domain"):
        model.sample_fields(np.array([0.2, np.nan]), 0.5, 0.5)
    with pytest.raises(DomainError, match="non-finite or outside model domain"):
        model.sample_gradients(0.5, np.nan, 0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_coordinates_read_refuses_non_finite_without_domain(smooth_model, value):
    # a model without a domain used to read any point, so a NaN ray state read finite coefficients
    constant = MaterialModel.constant(2.0, 0.5, 0.3)
    assert constant.domain is None and smooth_model.domain is None
    for model in (constant, smooth_model):
        with pytest.raises(DomainError, match="non-finite points"):
            model.sample_fields(value, 0.0, 0.0)
        with pytest.raises(DomainError, match="non-finite points"):
            model.sample_gradients(0.0, np.array([0.1, value]), 0.0)
    with pytest.raises(DomainError, match="non-finite points"):
        assemble_P(constant, (0.0, value, 0.0), np.array([1.0, 0.0, 0.0, 0.0]))


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


def test_E_matches_Q_expansion(smooth_model, rng):
    z = rng.normal(size=3)
    P = assemble_P(smooth_model, (0.1, -0.2, 0.3), np.concatenate([[0.0], z]))
    np.testing.assert_allclose(P[3:, :3], sum(z[k] * Q_MATRICES[k] for k in range(3)), atol=1e-15)


def test_spatial_coefficients_are_A_MATRICES(smooth_model):
    # A^j = [[0, Q_j^T], [Q_j, 0]] for every j, the same read-only matrices at every x and model
    for j, (A, Q) in enumerate(zip(A_MATRICES, Q_MATRICES)):
        np.testing.assert_array_equal(A, np.block([[np.zeros((3, 3)), Q.T], [Q, np.zeros((3, 3))]]))
        for model, x in ((smooth_model, (0.1, -0.2, 0.3)), (MaterialModel.constant(2.0, 0.5, 0.3), (0, 0, 0))):
            Aj = assemble_system_matrices(model, x)[1 + j]
            np.testing.assert_array_equal(Aj, A)
            assert not Aj.flags.writeable
    assert not A_MATRICES.flags.writeable


# ----------------------------------------------------------------- symbol P

def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_P_identity_at_pure_time_direction():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    np.testing.assert_allclose(assemble_P(model, (0, 0, 0), (1.0, 0.0, 0.0, 0.0)), np.eye(6), atol=1e-15)


def test_P_singular_on_spatial_directions(rng):
    model = MaterialModel.constant(1.3, 0.8, 0.0)
    for _ in range(25):
        zeta = np.concatenate([[0.0], _unit(rng.normal(size=3))])
        P = assemble_P(model, (0, 0, 0), zeta)
        assert abs(np.linalg.det(P)) <= 1e-12


def test_P_equals_entrywise_sum(smooth_model, rng):
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, size=3)
        zeta = _unit(rng.normal(size=4))
        A0, A1, A2, A3, _ = assemble_system_matrices(smooth_model, x)
        expected = zeta[0] * A0 + sum(z * A for z, A in zip(zeta[1:], (A1, A2, A3)))
        np.testing.assert_allclose(assemble_P(smooth_model, x, zeta), expected, atol=1e-14)


def test_stacked_symbols_match_per_direction(smooth_model, rng):
    x = np.array([0.1, -0.2, 0.3])
    zetas = rng.normal(size=(50, 4))
    P = assemble_P(smooth_model, x, zetas)
    B = assemble_divergence_symbol(zetas[:, 1:])
    assert P.shape == B.shape == (50, 6, 6)
    (eps, eta, _), I3 = smooth_model.sample_fields(*x), np.eye(3)
    for n, (z0, *zp) in enumerate(zetas):
        En = np.cross(zp, I3).T  # column j is zeta' x e_j
        np.testing.assert_allclose(P[n], np.block([[z0 * eps * I3, -En], [En, z0 * eta * I3]]), atol=1e-14)
        np.testing.assert_array_equal(P[n], assemble_P(smooth_model, x, zetas[n]))
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


# ------------------------------- dispersion matrix L = A0^{-1} sum_j zeta_j A^j

def test_dispersion_entries_along_axis():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    L = assemble_P(model, (0, 0, 0), (0.0, 0.0, 0.0, 1.0))  # A0 = Id, so L(e3) = P(0, e3)
    E3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # p -> e3 x p
    expected = np.zeros((6, 6))
    expected[:3, 3:] = -E3
    expected[3:, :3] = E3
    np.testing.assert_array_equal(L, expected)
    # explicit entries, top-right block rows (0,1,0), (-1,0,0), (0,0,0)
    assert L[0, 4] == 1.0 and L[1, 3] == -1.0 and L[4, 0] == 1.0 and L[3, 1] == -1.0


def test_dispersion_zero_direction(smooth_model):
    # zeta = 0 gives P = 0: the curl block E(0) and L(0) vanish
    np.testing.assert_array_equal(assemble_P(smooth_model, (0.1, 0, 0), np.zeros(4)), np.zeros((6, 6)))


def test_dispersion_spectrum(smooth_model, rng):
    for _ in range(30):
        x = rng.uniform(-0.5, 0.5, size=3)
        L, _, omegas = _eigenpairs(smooth_model, x, np.concatenate([[0.0], rng.normal(size=3)]))
        got = np.sort(np.linalg.eigvals(L).real)
        np.testing.assert_allclose(got, np.sort(omegas), atol=1e-9)  # 0, 0, +-v|zeta'| twice


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


@pytest.mark.parametrize("mode", MODE_ORDER)
def test_polarization_broadcast_matches_per_column(mode):
    rng = np.random.default_rng(11)
    zps = np.column_stack([rng.normal(size=(3, 50)), [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    got = mode_vectors(zps, 2.0, 0.5, (mode,))[:, 0]
    assert got.shape == (6, zps.shape[1])
    for n in range(zps.shape[1]):
        np.testing.assert_allclose(got[:, n], mode_vectors(zps[:, n], 2.0, 0.5, (mode,))[:, 0], atol=1e-14)


def test_mode_vectors_are_the_concatenated_columns_bit_for_bit():
    # the modes are written into one array: the same bits as each column's halves concatenated and the columns
    # stacked (reference.concatenated_mode_vectors), every mode, on one direction and on a stack with per-point eps
    rng = np.random.default_rng(5)
    stack = np.column_stack([rng.normal(size=(3, 41)), [0.0, 0.0, -1.0]]).reshape(3, 6, 7)
    for zetaP, eps, eta in (((0.3, -0.5, 0.8), 2.0, 0.5), (stack, rng.uniform(1, 4, (6, 7)), 0.5)):
        for modes in [(m,) for m in MODE_ORDER] + [MODE_ORDER, ("trans-2", "long-e", "trans-2")]:
            want = concatenated_mode_vectors(zetaP, eps, eta, modes)
            assert want.shape == (6, len(modes)) + np.shape(zetaP)[1:]
            assert np.array_equal(mode_vectors(zetaP, eps, eta, modes), want)
    with pytest.raises(ValueError, match="unknown mode 'trans'"):
        mode_vectors((0.3, -0.5, 0.8), 2.0, 0.5, ("long-e", "trans"))


# ------------------------------------------------------------ eigenstructure

def _eigenpairs(model, x, zeta):
    """A0^{-1} P at (x, zeta), the six mode vectors and their eigenvalues in MODE_ORDER."""
    A0 = assemble_system_matrices(model, x)[0]
    Pp = np.linalg.solve(A0, assemble_P(model, x, zeta))
    basis = mode_vectors(zeta[1:], *model.sample_fields(*x)[:2], MODE_ORDER)
    vr = model.speed_at(x) * np.linalg.norm(zeta[1:])
    omegas = zeta[0] + vr * np.array([0.0, 0.0, 1.0, 1.0, -1.0, -1.0])
    return Pp, basis, omegas


def test_eigen_values_unit_speed():
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    Pp, basis, _ = _eigenpairs(model, (0, 0, 0), np.array([0.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(Pp @ basis, basis * [0.0, 0.0, 1.0, 1.0, -1.0, -1.0], atol=1e-15)


def test_eigen_speed_and_gap():
    model = MaterialModel.constant(4.0, 1.0, 0.0)
    zeta = _unit((0.3, 0.1, -0.4, 0.8))
    P = assemble_P(model, (0, 0, 0), zeta)
    basis = mode_vectors(zeta[1:], 4.0, 1.0, MODE_ORDER)
    omegas = np.diag(basis.T @ P @ basis)  # Rayleigh quotients in the A0 inner product
    assert model.speed_at((0, 0, 0)) == pytest.approx(0.5)
    assert omegas[2] - omegas[4] == pytest.approx(np.linalg.norm(zeta[1:]))  # v=1/2: 2*v*|z'| = |z'|
    np.testing.assert_allclose(omegas[:2], zeta[0], atol=1e-15)


def test_eigen_zero_direction_errors(smooth_model):
    eps, eta, _ = smooth_model.sample_fields(0, 0, 0)
    with pytest.raises(DegenerateDirectionError):
        mode_vectors(np.zeros(3), eps, eta, MODE_ORDER)


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
        zeta = _unit(rng.normal(size=4))
        if np.linalg.norm(zeta[1:]) < 1e-3:
            continue
        Pp, basis, omegas = _eigenpairs(model, x, zeta)
        for col, w in zip(basis.T, omegas):
            assert np.linalg.norm(Pp @ col - w * col) <= 1e-10
        got = np.sort(np.linalg.eigvals(Pp).real)
        want = np.sort(omegas)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_eigen_basis_A0_orthonormal(smooth_model, rng):
    for _ in range(50):
        x = rng.uniform(-0.5, 0.5, size=3)
        zeta = _unit(rng.normal(size=4))
        if np.linalg.norm(zeta[1:]) < 1e-3:
            continue
        basis = mode_vectors(zeta[1:], *smooth_model.sample_fields(*x)[:2], MODE_ORDER)
        A0 = assemble_system_matrices(smooth_model, x)[0]
        gram = basis.T @ A0 @ basis
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)


# ------------------------------------------------- transport-row curl weights

def test_curl_generators_antisymmetric():
    # makes T_l = Tr((z' (x) z') Q_l) vanish, so the transport rows drop it
    np.testing.assert_array_equal(Q_MATRICES, -np.transpose(Q_MATRICES, (0, 2, 1)))
