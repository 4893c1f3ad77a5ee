import dataclasses

import numpy as np
import pytest

from hml.estimator import HMeasureEstimate, SphereGrid, charge_tilde_fields, correlation_measure, estimate_hmeasure
from hml.grids import GridSpec, hann_window
from hml.symbols import (
    MODE_ORDER,
    DegenerateDirectionError,
    DomainError,
    MaterialModel,
    assemble_P,
    assemble_system_matrices,
    mode_vectors,
)
from hml.synthesis import evolved_family, plane_wave_family, wkb_family, layered_phase
from hml.transport import DensityTrajectory, constant_transport_residual, variable_transport_residual
from hml.verifier import (
    MODAL_NAMES,
    fit_constant_decomposition,
    fit_modal_decomposition,
    localisation_residual,
    paper_sigma_blocks,
    support_check,
)
from reference import paper_display_blocks

GRID = GridSpec(extents=(0.25, 0.25, 0.25, 0.25), shape=(16, 8, 8, 16))
EPS2 = (2.0**-3, 2.0**-4)
SPHERE = SphereGrid(n_zeta0=10, n_theta=8, n_phi=16)


def make_estimate(bins_by_eps, sphere=SPHERE):
    """An estimate with these bins and no centroids: every bin reads at its center."""
    eps = tuple(sorted(bins_by_eps, reverse=True))
    return HMeasureEstimate(
        sphere=sphere,
        epsilons=eps,
        history=dict(bins_by_eps),
        centroids={e: np.full((sphere.num_bins, 4), np.nan) for e in eps},
        dc_energy={e: 0.0 for e in eps},
    )


# ----------------------------------------------------------------- localisation

def test_localisation_decay_on_exact_solutions():
    model = MaterialModel.constant()
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2, hann_window(GRID, axes=(1,)))
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    r = [
        localisation_residual(est.at(e), "P", model).max_weighted_residual
        for e in fam.epsilons
    ]
    assert r[1] < 0.8 * r[0]
    assert r[1] < 0.1


def test_localisation_zero_measure_all_absent():
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    est = make_estimate({0.5: bins, 0.25: bins})
    rep = localisation_residual(est, "P", MaterialModel.constant())
    assert rep.bin_indices.size == 0
    assert rep.max_weighted_residual == 0.0
    assert rep.skipped_bins == SPHERE.num_bins


def test_localisation_negative_control_swapped_model():
    model = MaterialModel.constant(4.0, 1.0, 0.0)
    swapped = MaterialModel.constant(1.0, 4.0, 0.0)
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2, hann_window(GRID, axes=(1,)))
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    good = localisation_residual(est, "P", model).max_weighted_residual
    bad = localisation_residual(est, "P", swapped).max_weighted_residual
    assert bad >= 0.2
    assert good < 0.12
    assert bad > 2.5 * good


def test_divergence_symbol_localisation_axis_aligned():
    model = MaterialModel.constant()
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2, hann_window(GRID, axes=(1,)))
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    rep = localisation_residual(est, "B")
    # polarization E || e1, H || e2 lives in the kernel of diag(0,0,zeta3)
    assert rep.max_weighted_residual < 0.1


# --------------------------------------------------------------------- support

def test_support_constant_longitudinal():
    model = MaterialModel.constant()
    fam = plane_wave_family(model, GRID, (0, 0, 1.0), "long-e", hann_window(GRID, axes=(1,)), EPS2)
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    rep = support_check(est, "constant")
    assert rep.fraction_in_support >= 0.99
    assert rep.per_set_fraction["zeta0=0"] >= 0.99


def test_support_variable_cone():
    model = MaterialModel.constant()
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2, hann_window(GRID, axes=(1,)))
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SphereGrid(16, 16, 16))
    rep = support_check(est, "scalar_smooth", model=model)
    assert rep.fraction_in_support >= 0.99
    assert rep.per_set_fraction["zeta0=-v|zetaP|"] >= 0.99
    # the same mass violates the constant-case declared support
    rep_const = support_check(est, "constant")
    assert rep_const.fraction_in_support <= 0.05


def test_support_zero_measure_vacuous():
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    est = make_estimate({0.5: bins, 0.25: bins})
    rep = support_check(est, "constant")
    assert rep.fraction_in_support == 1.0


def test_support_smooth_case_needs_model():
    # without a model the cones {zeta0 = +-v|zeta'|} have no speed v
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    bins[SPHERE.flat_index(5, 4, 3)] = np.eye(6)
    est = make_estimate({0.5: bins, 0.25: bins})
    with pytest.raises(ValueError, match="material model"):
        support_check(est, "scalar_smooth")


# ---------------------------------------------------------------- kernel lemma

def test_kernel_lemma_membership_and_negative_control(rng):
    # E(z) M = z x (each column of M)
    z = rng.normal(size=3)
    a = rng.normal(size=3)
    A = np.outer(z, a)
    assert np.linalg.norm(np.cross(z, A, axis=0)) <= 1e-14 * np.linalg.norm(z) * np.linalg.norm(a) * 10
    B = rng.normal(size=(3, 3))
    B -= np.outer(z, z @ B) / (z @ z)  # remove any kernel part crudely, keep generic
    assert np.linalg.norm(np.cross(z, B + np.eye(3), axis=0)) > 1e-8


# -------------------------------------------------------- constant decomposition

def test_constant_fit_exact_dyad():
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    b = SPHERE.flat_index(5, 4, 3)
    zp = SPHERE.centers()[b, 1:]
    D = np.outer(zp, zp)
    bins[b, :3, :3] = 5.0 * D
    est = make_estimate({0.5: bins, 0.25: bins})
    fit = fit_constant_decomposition(est)
    n = list(fit.bin_indices).index(b)
    assert fit.coefficients["a"][n].real == pytest.approx(5.0, rel=1e-12)
    assert abs(fit.coefficients["b"][n]) <= 1e-12
    assert fit.residuals[n] <= 1e-12


def test_constant_fit_idempotent():
    rng = np.random.default_rng(3)
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    b = SPHERE.flat_index(5, 4, 3)
    zp = SPHERE.centers()[b, 1:]
    D = np.outer(zp, zp)
    c = 1.2 + 0.7j
    bins[b, :3, :3] = 2.0 * D
    bins[b, 3:, 3:] = 0.5 * D
    bins[b, :3, 3:] = c * D
    bins[b, 3:, :3] = np.conj(c) * D
    est = make_estimate({0.5: bins, 0.25: bins})
    fit1 = fit_constant_decomposition(est)
    n = list(fit1.bin_indices).index(b)
    recon = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    recon[b, :3, :3] = fit1.coefficients["a"][n] * D
    recon[b, 3:, 3:] = fit1.coefficients["b"][n] * D
    recon[b, :3, 3:] = fit1.coefficients["c"][n] * D
    recon[b, 3:, :3] = fit1.coefficients["d"][n] * D
    fit2 = fit_constant_decomposition(make_estimate({0.5: recon, 0.25: recon}))
    for name in ("a", "b", "c", "d"):
        np.testing.assert_allclose(fit2.coefficients[name], fit1.coefficients[name], atol=1e-12)
    assert fit1.residuals[n] <= 1e-12
    assert fit1.checks["max_c_minus_conj_d"] <= 1e-12


def test_constant_fit_longitudinal_family():
    model = MaterialModel.constant()
    fam = plane_wave_family(model, GRID, (0, 0, 1.0), "long-e", hann_window(GRID, axes=(1,)), EPS2)
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    fit = fit_constant_decomposition(est)
    mass = {n: np.abs(fit.coefficients[n]).sum() for n in fit.coefficients}
    assert mass["a"] > 0
    assert mass["b"] <= 0.02 * mass["a"]
    assert mass["c"] <= 0.02 * mass["a"]
    assert fit.checks["max_c_minus_conj_d"] <= 1e-10 * max(1.0, mass["a"])
    assert fit.checks["min_a_over_scale"] >= -1e-10


def test_constant_fit_negative_control_not_rank_one(rng):
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    b = SPHERE.flat_index(5, 4, 3)
    H = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    bins[b, :3, :3] = H @ H.conj().T + 0.5 * np.eye(3)  # full-rank PSD block
    est = make_estimate({0.5: bins, 0.25: bins})
    fit = fit_constant_decomposition(est)
    n = list(fit.bin_indices).index(b)
    assert fit.residuals[n] > 0.1


def test_constant_fit_excludes_near_pole_bins():
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    b_pole = SPHERE.flat_index(0, 0, 0)  # zeta0 ~ 1, |zeta'| tiny
    bins[b_pole] = np.eye(6)
    est = make_estimate({0.5: bins, 0.25: bins})
    fit = fit_constant_decomposition(est)
    assert b_pole in fit.excluded_bins
    assert b_pole not in fit.bin_indices


# ----------------------------------------------------------- modal decomposition

def test_modal_fit_pure_dyad(smooth_model):
    x0 = (0.1, 0.05, 0.2)
    bins = np.zeros((SPHERE.num_bins, 6, 6), dtype=complex)
    b = SPHERE.flat_index(5, 4, 3)
    zp = SPHERE.centers()[b, 1:]
    vec = mode_vectors(zp, *smooth_model.sample_fields(*x0)[:2], ("trans+1",))[:, 0]
    bins[b] = np.outer(vec, vec)
    est = make_estimate({0.5: bins, 0.25: bins})
    fit = fit_modal_decomposition(est, smooth_model, x0)
    n = list(fit.bin_indices).index(b)
    assert fit.coefficients["ap"][n].real == pytest.approx(1.0, rel=1e-10)
    for name in ("a0", "b0", "bp", "am", "bm"):
        assert abs(fit.coefficients[name][n]) <= 1e-12
    assert fit.residuals[n] <= 1e-12


def test_stacked_checks_match_per_bin_loops(smooth_model, rng):
    """The one-pass fits and localisation equal a per-bin loop over the scalar symbols."""
    x0 = (0.1, 0.05, 0.2)
    sphere = SphereGrid(6, 6, 8)
    G = rng.normal(size=(sphere.num_bins, 6, 6)) + 1j * rng.normal(size=(sphere.num_bins, 6, 6))
    bins = G @ G.conj().transpose(0, 2, 1)
    est = make_estimate({0.5: bins, 0.25: bins}, sphere=sphere)
    A0 = assemble_system_matrices(smooth_model, x0)[0]
    modal = fit_modal_decomposition(est, smooth_model, x0)
    const = fit_constant_decomposition(est)
    loc = localisation_residual(est, "P", smooth_model, x0)
    centers = sphere.centers()
    eps0, eta0, _ = smooth_model.sample_fields(*x0)
    for n, b in enumerate(modal.bin_indices):
        basis = mode_vectors(centers[b, 1:], eps0, eta0, MODE_ORDER)
        vals = [np.conj(A0 @ col) @ bins[b] @ (A0 @ col) for col in basis.T]
        got = [modal.coefficients[name][n] for name in ("a0", "b0", "ap", "bp", "am", "bm")]
        np.testing.assert_allclose(got, vals, rtol=1e-12)
        recon = sum(v * np.outer(col, col) for v, col in zip(vals, basis.T))
        assert modal.residuals[n] == pytest.approx(np.linalg.norm(bins[b] - recon) / np.linalg.norm(bins[b]), rel=1e-12)
    for n, b in enumerate(const.bin_indices):
        zp = centers[b, 1:]
        blocks = {"a": bins[b][:3, :3], "c": bins[b][:3, 3:], "d": bins[b][3:, :3], "b": bins[b][3:, 3:]}
        for name, block in blocks.items():
            assert const.coefficients[name][n] == pytest.approx(zp @ block @ zp / (zp @ zp) ** 2, rel=1e-12)
    for n, b in enumerate(loc.bin_indices):
        P = assemble_P(smooth_model, x0, centers[b])
        want = np.linalg.norm(P @ bins[b]) / np.linalg.norm(bins[b])
        assert loc.residuals[n] == pytest.approx(want, rel=1e-12)


def test_modal_blocks_match_paper_display(smooth_model, rng):
    x0 = (0.2, -0.1, 0.3)
    zp = rng.normal(size=3)
    coeffs = {n: float(v) for n, v in zip(MODAL_NAMES, rng.uniform(0, 2, 6))}
    blocks = paper_sigma_blocks(smooth_model, x0, zp, coeffs)
    want = paper_display_blocks(smooth_model, x0, zp, coeffs)
    for name in ("s11", "s12", "s21", "s22"):
        np.testing.assert_allclose(blocks[name], want[name], atol=1e-12)


def test_sigma_blocks_broadcast_over_bins(smooth_model, rng):
    # one call on a stack of directions equals one call per direction
    x0 = (0.2, -0.1, 0.3)
    zp = rng.normal(size=(7, 3))
    coeffs = {n: rng.normal(size=7) + 1j * rng.normal(size=7) for n in MODAL_NAMES}
    blocks = paper_sigma_blocks(smooth_model, x0, zp, coeffs)
    for n in range(7):
        single = paper_sigma_blocks(smooth_model, x0, zp[n], {k: v[n] for k, v in coeffs.items()})
        for name in ("s11", "s12", "s21", "s22"):
            assert blocks[name].shape == (7, 3, 3)
            np.testing.assert_allclose(blocks[name][n], single[name], rtol=1e-14, atol=1e-15)


def test_sigma_blocks_refuse_zero_direction(smooth_model):
    with pytest.raises(DegenerateDirectionError):
        paper_sigma_blocks(smooth_model, (0.2, -0.1, 0.3), np.zeros((2, 3)), dict.fromkeys(MODAL_NAMES, np.ones(2)))


def _trajectory(case, x_center):
    """All-zero densities of one case on five time levels, at x_center."""
    if case == "constant":
        funcs = {name: (lambda t, z: np.zeros(z.shape[0])) for name in "abcd"}
    else:
        funcs = {name: (lambda t, z: np.zeros((z.shape[0], 3, 3))) for name in ("s11", "s12", "s21", "s22")}
    return DensityTrajectory.from_callables(case, np.linspace(0.0, 0.5, 5), SPHERE, funcs, x_center=x_center)


@pytest.mark.parametrize(
    "read",
    [
        lambda model, est, x: paper_sigma_blocks(model, x, (0.0, 0.6, 0.8), dict.fromkeys(MODAL_NAMES, 1.0)),
        lambda model, est, x: fit_modal_decomposition(est, model, x),
        lambda model, est, x: support_check(est, "scalar_smooth", model, x),
        lambda model, est, x: constant_transport_residual(_trajectory("constant", x), model),
        lambda model, est, x: variable_transport_residual(_trajectory("scalar_smooth", x), model),
    ],
    ids=["paper_sigma_blocks", "fit_modal_decomposition", "support_check", "constant_rows", "variable_rows"],
)
def test_point_readers_refuse_points_outside_domain(smooth_model, read):
    # every reader of the model at one point goes through its checked reads
    model = dataclasses.replace(smooth_model, domain=((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)))
    bins = np.broadcast_to(np.eye(6), (SPHERE.num_bins, 6, 6)).copy()  # mass in every bin
    est = make_estimate({0.5: bins, 0.25: bins})
    with pytest.raises(DomainError):
        read(model, est, (0.75, 0.1, 0.1))


def test_modal_fit_wkb_transverse_family():
    b = 0.8

    def eps_f(x1, x2, x3):
        return (1.0 + b * x1) ** 2 + 0.0 * (x2 + x3)

    def grad_eps(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = np.zeros((3,) + shape)
        g[0] = 2.0 * b * (1.0 + b * x1)
        return g

    model = MaterialModel.scalar_smooth(
        eps=eps_f,
        eta=lambda x1, x2, x3: np.ones(np.broadcast(x1, x2, x3).shape),
        sigma=lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape),
        grad_eps=grad_eps,
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=1.0,
        eta_min=1.0,
    )
    grid = GridSpec(extents=(0.25, 0.25, 0.25, 0.25), shape=(16, 32, 8, 8))
    phase = layered_phase(model, axis=0, sign="+", x_max=0.25)
    amp = hann_window(grid, axes=(0, 1))
    fam = wkb_family(model, grid, phase, amp, "trans+1", (2.0**-3, 2.0**-4))
    est = estimate_hmeasure(fam, hann_window(grid, axes=(0,)), sphere=SphereGrid(12, 8, 16))
    x_bar = amp.centroid(grid)[1:]
    fit = fit_modal_decomposition(est, model, x_bar)
    mass = {n: np.abs(fit.coefficients[n]).sum() for n in fit.coefficients}
    total = sum(mass.values())
    assert mass["ap"] >= 0.9 * total


@pytest.mark.parametrize(
    "check",
    [lambda est, model: fit_constant_decomposition(est), lambda est, model: fit_modal_decomposition(est, model),
     lambda est, model: localisation_residual(est, "P", model), lambda est, model: support_check(est, "constant")],
    ids=["constant_fit", "modal_fit", "localisation", "support"],
)
def test_checks_refuse_non_square_bins(check):
    # the charge cross is a (B, 6, 1) column, and masses() read its entry [0, 0] as each bin's mass: the
    # constant fit failed on a bare reshape error, while localisation read 2.2, support 1.0, and the modal
    # fit returned a decomposition
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    model, sphere = MaterialModel.constant(2.0, 0.5, 0.3), SphereGrid(6, 6, 8)
    fam = plane_wave_family(model, grid, (0.3, -0.5, 0.8), "trans+1", hann_window(grid), EPS2)
    cross_rho = correlation_measure(fam, charge_tilde_fields(fam), hann_window(grid, axes=(0,)), sphere)
    with pytest.raises(ValueError, match=r"bins of shape \(288, 6, 1\) are not square"):
        check(cross_rho, model)
