import numpy as np
import pytest

from hml.estimator import (
    SphereGrid,
    charge_tilde_fields,
    correlation_measure,
    cutoff_multiply,
    estimate_hmeasure,
    fourier_multiplier,
    source_fields,
)
from hml.grids import GridSpec, full_window, hann_window
from hml.symbols import FrequencyDirection, MaterialModel, eigen_structure
from hml.synthesis import AliasingError, OscillatingFamily, plane_wave_family

GRID = GridSpec(extents=(0.25, 0.25, 0.25, 0.25), shape=(16, 8, 8, 16))
EPS2 = (2.0**-3, 2.0**-4)
SPHERE = SphereGrid(n_zeta0=10, n_theta=8, n_phi=16)


def _family(mode="trans+1", envelope=None, epsilons=EPS2, model=None, k=(0, 0, 1.0)):
    model = model or MaterialModel.constant()
    envelope = envelope or hann_window(GRID, axes=(1,))
    return plane_wave_family(model, GRID, k, mode, envelope, epsilons)


# ---------------------------------------------------------------- sphere grid

def test_sphere_weights_total():
    for sph in (SphereGrid(), SphereGrid(4, 4, 4), SPHERE):
        assert sph.weights().sum() == pytest.approx(2 * np.pi**2, rel=1e-12)
        assert np.all(sph.weights() > 0)


def test_sphere_centers_unit_and_roundtrip():
    sph = SphereGrid(6, 6, 8)
    centers = sph.centers()
    np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-14)
    np.testing.assert_array_equal(sph.locate(centers), np.arange(sph.num_bins))


def test_sphere_neighborhood_contains_box_and_pole_ring():
    sph = SphereGrid(6, 6, 8)
    b = sph.flat_index(2, 3, 4)
    nb = sph.neighborhood(b)
    assert b in nb
    assert sph.flat_index(1, 2, 3) in nb and sph.flat_index(3, 4, 5) in nb
    # theta-pole ring: all azimuths adjacent
    bp = sph.flat_index(2, 0, 0)
    nbp = sph.neighborhood(bp)
    for j3 in range(8):
        assert sph.flat_index(2, 0, j3) in nbp


# ------------------------------------------------------------------ multiplier

def test_multiplier_identity():
    fam = _family()
    u = np.asarray(fam.fields[EPS2[1]])
    out = fourier_multiplier(lambda z0, z1, z2, z3: np.ones_like(z0), u, GRID)
    np.testing.assert_allclose(out, u, atol=1e-12)


def test_multiplier_projection_idempotent():
    fam = _family()
    u = np.asarray(fam.fields[EPS2[1]])

    def hemi(z0, z1, z2, z3):
        return (z0 > 0).astype(float)

    once = fourier_multiplier(hemi, u, GRID)
    twice = fourier_multiplier(hemi, once, GRID)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_multiplier_single_mode_scaling():
    t, x1, x2, x3 = GRID.meshes()
    m = (4.0, 0.0, 0.0, 4.0)  # lattice harmonic, below Nyquist
    mode = np.broadcast_to(
        np.exp(2j * np.pi * (m[0] * t / GRID.extents[0] + m[3] * x3 / GRID.extents[3])),
        GRID.shape,
    )[None, ...].copy()
    direction = np.array([m[0] / GRID.extents[0], 0.0, 0.0, m[3] / GRID.extents[3]])
    direction /= np.linalg.norm(direction)

    def a(z0, z1, z2, z3):
        return 2.0 * z0 + 0.5 * z3

    out = fourier_multiplier(a, mode, GRID)
    expected = (2.0 * direction[0] + 0.5 * direction[3]) * mode
    np.testing.assert_allclose(out, expected, atol=1e-10)


# --------------------------------------------------------------------- cutoff

def test_cutoff_identity_and_support():
    fam = _family()
    u = np.asarray(fam.fields[EPS2[1]])
    np.testing.assert_array_equal(cutoff_multiply(full_window(), u, GRID), u)
    b = hann_window(GRID, axes=(1,), margin=0.25)
    out = cutoff_multiply(b, u, GRID)
    mask = b.sample(GRID) == 0
    assert np.all(out[:, mask] == 0)


def test_commutator_compactness_proxy():
    b = hann_window(GRID, axes=(1,))

    def a(z0, z1, z2, z3):
        return z3

    ratios = []
    for e in EPS2:
        fam = _family(epsilons=(e,) if e == EPS2[0] else EPS2)
        u = np.asarray(fam.fields[e])
        ab = fourier_multiplier(a, cutoff_multiply(b, u, GRID), GRID)
        ba = cutoff_multiply(b, fourier_multiplier(a, u, GRID), GRID)
        ratios.append(np.linalg.norm(ab - ba) / np.linalg.norm(u))
    assert ratios[1] < ratios[0]


# ------------------------------------------------------------------- estimate

def test_estimate_requires_two_scales():
    fam = _family()
    solo = OscillatingFamily(
        grid=fam.grid, epsilons=fam.epsilons[-1:],
        fields={fam.epsilons[-1]: fam.fields[fam.epsilons[-1]]},
        metadata=fam.metadata,
    )
    with pytest.raises(ValueError):
        estimate_hmeasure(solo, hann_window(GRID, axes=(0,)), sphere=SPHERE)


def test_estimate_rejects_aliased_family():
    fam = _family()
    fam.metadata["min_cells_per_wavelength"] = 2.0
    with pytest.raises(AliasingError):
        estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)


def test_plane_wave_concentration_and_matrix():
    model = MaterialModel.constant()
    fam = _family(model=model)
    phi = hann_window(GRID, axes=(0,))
    est = estimate_hmeasure(fam, phi, sphere=SPHERE)
    e = est.finest
    masses = est.masses()
    total = masses.sum()
    true_dir = np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    b_true = SPHERE.locate(true_dir)
    nb = SPHERE.neighborhood(b_true)
    assert masses[nb].sum() / total >= 0.95
    dominant = int(np.argmax(masses))
    assert dominant in nb
    # dominant-bin matrix is a scalar multiple of the mode dyad
    bvec = eigen_structure(model, (0, 0, 0), FrequencyDirection(0.0, (0, 0, 1.0))).vector("trans+1")
    dyad = np.outer(bvec, bvec.conj())
    M = est.bins[dominant]
    M_norm = M / np.trace(M).real
    np.testing.assert_allclose(M_norm, dyad, atol=0.05)
    # combined effective window: family envelope times estimator window
    eff = hann_window(GRID, axes=(1,)).sample(GRID) * phi.sample(GRID)
    expected_mass = float(np.sum(eff**2) * GRID.cell_volume)  # |b| = 1
    assert masses[nb].sum() == pytest.approx(expected_mass, rel=0.05)


def test_strongly_convergent_sequence_vanishes():
    fam = _family()
    scaled = {e: e * np.asarray(fam.fields[e]) for e in fam.epsilons}
    fam2 = OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=scaled, metadata=fam.metadata)
    est = estimate_hmeasure(fam2, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    t0 = est.total_mass(fam.epsilons[0])
    t1 = est.total_mass(fam.epsilons[1])
    assert t1 == pytest.approx(0.25 * t0, rel=1e-6)  # mass scales like eps^2


def test_hermitian_and_psd_invariants():
    for mode in ("trans+1", "long-e"):
        est = estimate_hmeasure(_family(mode=mode), hann_window(GRID, axes=(0,)), sphere=SPHERE)
        assert est.hermitian_defect() <= 1e-12
        assert est.min_eigen_ratio() >= -1e-10


def test_linearity_in_amplitude():
    fam = _family()
    c = 1.7 - 0.4j
    scaled = {e: c * np.asarray(fam.fields[e]) for e in fam.epsilons}
    fam2 = OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=scaled, metadata=fam.metadata)
    phi = hann_window(GRID, axes=(0,))
    a = estimate_hmeasure(fam, phi, sphere=SPHERE)
    b = estimate_hmeasure(fam2, phi, sphere=SPHERE)
    np.testing.assert_allclose(b.bins, abs(c) ** 2 * a.bins, rtol=1e-10, atol=1e-18)


def test_total_mass_plancherel():
    fam = _family()
    phi = hann_window(GRID, axes=(0,))
    est = estimate_hmeasure(fam, phi, sphere=SPHERE)
    for e in fam.epsilons:
        w = phi.sample(GRID) * np.asarray(fam.fields[e])
        expected = float(np.sum(np.abs(w) ** 2) * GRID.cell_volume)
        got = est.total_mass(e) + est.dc_energy[e].real
        assert got == pytest.approx(expected, rel=1e-10)


def test_estimate_matches_multiplier_definition():
    """Sum over S of Tr mu_b + dc = <A v, v> with A = 1_S(locate(zeta)) and v = phi u.

    The multiplier passes the zero frequency through, hence the dc term.
    """
    fam = _family(mode="trans-2", k=(0.3, -0.5, 0.8))
    phi = hann_window(GRID)
    est = estimate_hmeasure(fam, phi, sphere=SPHERE)
    masses = est.masses()
    i1 = SPHERE.unflatten(np.arange(SPHERE.num_bins))[0]
    heaviest = np.flatnonzero(masses >= 1e-3 * masses.max())
    upper = np.flatnonzero(i1 < SPHERE.n_zeta0 // 2)  # zeta0 > 0
    v = cutoff_multiply(phi, np.asarray(fam.fields[fam.finest]), GRID)
    for S in (heaviest, upper):
        def a(*z):
            return np.isin(SPHERE.locate(np.stack(np.broadcast_arrays(*z), axis=-1)), S).astype(float)

        want = GRID.cell_volume * np.vdot(v, fourier_multiplier(a, v, GRID))
        got = masses[S].sum() + est.dc_energy[fam.finest]
        assert 0 < S.size < SPHERE.num_bins
        assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- correlation

def test_estimate_equal_window_copy_matches_single_window():
    fam = _family()
    phi = hann_window(GRID, axes=(0,))
    one = estimate_hmeasure(fam, phi, sphere=SPHERE)
    two = estimate_hmeasure(fam, phi, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    for e in fam.epsilons:
        np.testing.assert_allclose(two.history[e], one.history[e], rtol=0, atol=1e-12 * one.total_mass(e))


def test_correlation_reduces_to_estimate():
    fam = _family()
    phi = hann_window(GRID, axes=(0,))
    auto = estimate_hmeasure(fam, phi, sphere=SPHERE)
    cross = correlation_measure(fam, {e: np.asarray(fam.fields[e]) for e in fam.epsilons}, phi, sphere=SPHERE)
    np.testing.assert_allclose(cross.bins, auto.bins, atol=1e-12 * max(1.0, auto.total_mass()))


def test_correlation_strongly_null_source():
    fam = _family()
    g = {e: e * np.asarray(fam.fields[e]) for e in fam.epsilons}  # strongly -> 0
    phi = hann_window(GRID, axes=(0,))
    cross = correlation_measure(fam, g, phi, sphere=SPHERE)
    auto = estimate_hmeasure(fam, phi, sphere=SPHERE)
    for e in fam.epsilons:
        cnorm = np.abs(cross.history[e]).sum()
        assert cnorm <= 1.1 * e * auto.total_mass(e) * 50  # decays linearly in eps
    r0, r1 = (np.abs(cross.history[e]).sum() for e in fam.epsilons)
    assert r1 <= 0.6 * r0


def test_correlation_distinct_wavevectors_orthogonal():
    fam_u = _family(k=(0, 0, 1.0))
    fam_g = _family(k=(0, 0, -1.0))
    g = {e: np.asarray(fam_g.fields[e]) for e in fam_g.epsilons}
    phi = hann_window(GRID, axes=(0,))
    cross = correlation_measure(fam_u, g, phi, sphere=SPHERE)
    auto = estimate_hmeasure(fam_u, phi, sphere=SPHERE)
    assert np.abs(cross.bins).max() <= 1e-10 * auto.total_mass()


def test_correlation_ladder_mismatch_errors():
    fam = _family()
    g = {fam.epsilons[0]: np.asarray(fam.fields[fam.epsilons[0]])}
    with pytest.raises(ValueError):
        correlation_measure(fam, g, hann_window(GRID, axes=(0,)), sphere=SPHERE)


def test_charge_tilde_embedding():
    fam = _family()
    tilde = charge_tilde_fields(fam)
    for e in fam.epsilons:
        assert tilde[e].shape == (6,) + GRID.shape
        assert np.all(tilde[e][1:] == 0)
    src = source_fields(fam)
    assert set(src) == set(fam.epsilons)
