import gc
import tracemalloc
import weakref
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hml import estimator, synthesis, transport
from hml.estimator import (
    _CHUNK,
    SphereGrid,
    _lattice_bins,
    bin_occupancy,
    charge_tilde_fields,
    correlation_measure,
    estimate_hmeasure,
    source_fields,
)
from hml.grids import AxisWindow, GridSpec, SeparableWindow, full_window, hann_window
from hml.symbols import MaterialModel, mode_vectors
from hml.synthesis import (
    AliasingError,
    FactoredField,
    OscillatingFamily,
    charge_density,
    evolved_family,
    linear_phase,
    plane_wave_family,
    wkb_family,
)
from hml.transport import predict_then_compare, time_subwindow
from deep_ladder import SPHERE as DEEP_SPHERE
from deep_ladder import SCRIPT_EPSILONS, SCRIPT_GRID, TIER1_EPSILONS, TIER1_GRID, deep_family, limit_distances
from reference import cutoff_multiply, formed_spectra, fourier_multiplier, neighborhood, scatter_ifftn
from reference import locate as reference_locate

GRID = GridSpec(extents=(0.25, 0.25, 0.25, 0.25), shape=(16, 8, 8, 16))
EPS2 = (2.0**-3, 2.0**-4)
SPHERE = SphereGrid(n_zeta0=10, n_theta=8, n_phi=16)


def _family(mode="trans+1", envelope=None, epsilons=EPS2, model=None, k=(0, 0, 1.0)):
    model = model or MaterialModel.constant()
    envelope = envelope or hann_window(GRID, axes=(1,))
    return plane_wave_family(model, GRID, k, mode, envelope, epsilons)


def _count_measures(monkeypatch) -> list:
    """The kind of each measure ``_cross_spectral_measure`` computes from now on, so a test sees the estimator run."""
    kinds, measure = [], estimator._cross_spectral_measure

    def spy(family, g_fields, phi, sphere):
        kinds.append("auto" if g_fields is None else "cross")
        return measure(family, g_fields, phi, sphere)

    monkeypatch.setattr(estimator, "_cross_spectral_measure", spy)
    return kinds


# ---------------------------------------------------------------- sphere grid

@pytest.mark.parametrize(
    "sphere, empty, median, below_floor",
    [(SphereGrid(), 3276, 3.0, True), (SphereGrid(8, 8, 16), 162, 33.5, False)], ids=["default", "coarse"]
)
def test_bin_occupancy_reported(sphere, empty, median, below_floor):
    # a sphere finer than the 16^4 lattice leaves bins empty or nearly so; bin_occupancy says how many,
    # and flags a median occupancy below MIN_MEDIAN_POINTS_PER_BIN
    assert estimator.MIN_MEDIAN_POINTS_PER_BIN == 8
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    assert bin_occupancy(grid, sphere) == {"empty_bins": empty, "median_points": median, "below_floor": below_floor}


@pytest.mark.parametrize(
    "generator, ranks",
    [("plane_wave", [(1, 1), (1, 5), (1, 1)]), ("evolved", [(6, 6), (6, 0), (6, 1)]),
     ("wkb", [(5, 5), (5, 6), (5, 1)])],
)
def test_factor_rank_reported(generator, ranks):
    # auto, source-cross and charge-cross: a plane wave is b times one scalar and its source
    # five scalars; an evolved family has no source (rank 0), and this WKB field has one
    # component that is exactly zero, which the estimator does not transform
    model = MaterialModel.constant(2.0, 0.5, 0.3)
    k, env = (0.3, -0.5, 0.8), hann_window(GRID)
    fam = {
        "plane_wave": lambda: plane_wave_family(model, GRID, k, "trans+1", env, EPS2),
        "evolved": lambda: evolved_family(model, GRID, k, "trans+1", EPS2, hann_window(GRID, axes=(1, 2, 3))),
        "wkb": lambda: wkb_family(model, GRID, linear_phase(k, -np.linalg.norm(k)), env, "trans+1", EPS2),  # v = 1
    }[generator]()
    w = hann_window(GRID, axes=(0,))
    estimates = (estimate_hmeasure(fam, w, SPHERE), correlation_measure(fam, source_fields(fam), w, SPHERE),
                 correlation_measure(fam, charge_tilde_fields(fam), w, SPHERE))
    assert [est.metadata["factor_rank"] for est in estimates] == ranks


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
    nb = neighborhood(sph, b)
    assert b in nb
    assert sph.flat_index(1, 2, 3) in nb and sph.flat_index(3, 4, 5) in nb
    # theta-pole ring: all azimuths adjacent
    bp = sph.flat_index(2, 0, 0)
    nbp = neighborhood(sph, bp)
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
    with pytest.raises(ValueError):
        correlation_measure(solo, dict(solo.fields), hann_window(GRID, axes=(0,)), sphere=SPHERE)


def test_estimate_rejects_aliased_family():
    fam = _family()
    fam.metadata["min_cells_per_wavelength"] = 2.0
    with pytest.raises(AliasingError):
        estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    with pytest.raises(AliasingError):
        correlation_measure(fam, dict(fam.fields), hann_window(GRID, axes=(0,)), sphere=SPHERE)


def test_estimate_refuses_window_zero_on_every_sample():
    # a raised cosine lying between the first two grid times: every time sample is zero
    dt = GRID.spacing[0]
    phi = SeparableWindow((AxisWindow("hann", 0.2 * dt, 0.8 * dt),) + (AxisWindow("one"),) * 3)
    fam = _family()
    with pytest.raises(ValueError, match="window .*hann"):
        estimate_hmeasure(fam, phi, sphere=SPHERE)
    with pytest.raises(ValueError, match="window .*hann"):
        correlation_measure(fam, charge_tilde_fields(fam), phi, sphere=SPHERE)


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
    nb = neighborhood(SPHERE, b_true)
    assert masses[nb].sum() / total >= 0.95
    dominant = int(np.argmax(masses))
    assert dominant in nb
    # dominant-bin matrix is a scalar multiple of the mode dyad
    bvec = mode_vectors(np.array([0.0, 0.0, 1.0]), 1.0, 1.0, ("trans+1",))[:, 0]  # eps = eta = 1
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
    t0 = est.at(fam.epsilons[0]).total_mass()
    t1 = est.at(fam.epsilons[1]).total_mass()
    assert t1 == pytest.approx(0.25 * t0, rel=1e-6)  # mass scales like eps^2


def test_at_cuts_the_ladder():
    fam = _family(epsilons=(2.0**-2, 2.0**-3, 2.0**-4))
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    for i, e in enumerate(fam.epsilons):
        cut = est.at(e)
        assert cut.epsilons == fam.epsilons[: i + 1] and cut.finest == e
        assert cut.bins is est.history[e]
        assert cut.centroids[cut.finest] is est.centroids[e]
        assert cut.dc_energy[cut.finest] == est.dc_energy[e]
        np.testing.assert_array_equal(cut.masses(), np.trace(est.history[e], axis1=1, axis2=2).real)
    assert est.at(est.finest).bins is est.bins
    with pytest.raises(ValueError, match=r"eps=0\.3 is not on the ladder \(0\.25, 0\.125, 0\.0625\)"):
        est.at(0.3)


def test_hermitian_and_psd_invariants():
    for mode in ("trans+1", "long-e"):
        est = estimate_hmeasure(_family(mode=mode), hann_window(GRID, axes=(0,)), sphere=SPHERE)
        assert est.hermitian_defect() <= 1e-12
        assert est.min_eigen_ratio() >= -1e-10


def test_invariants_refuse_non_square_bins():
    # the benchmark's small cross-large pass: the charge cross is a (B, 6, 1) column, which has no
    # Hermitian part or eigenvalues; the 6 x 6 source cross is square, so its invariants stay defined
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    model, w, sphere = MaterialModel.constant(2.0, 0.5, 0.3), hann_window(grid, axes=(0,)), SphereGrid(12, 8, 16)
    fam = plane_wave_family(model, grid, (0.3, -0.5, 0.8), "trans+1", hann_window(grid), EPS2)
    cross_rho = correlation_measure(fam, charge_tilde_fields(fam), w, sphere)
    assert cross_rho.bins.shape == (sphere.num_bins, 6, 1)
    for invariant in (cross_rho.hermitian_defect, cross_rho.min_eigen_ratio):
        with pytest.raises(ValueError, match=r"bins of shape \(1536, 6, 1\) are not square"):
            invariant()
    cross_f = correlation_measure(fam, source_fields(fam), w, sphere)
    assert np.isfinite(cross_f.hermitian_defect()) and np.isfinite(cross_f.min_eigen_ratio())


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
        got = est.at(e).total_mass() + est.dc_energy[e].real
        assert got == pytest.approx(expected, rel=1e-10)


def test_estimate_matches_multiplier_definition():
    """Sum over S of Tr mu_b + dc = <A v, v> with A = 1_S(locate(zeta)) and v = phi u.

    The multiplier passes the zero frequency through, hence the dc term.
    """
    # 0.8 * 0.25 / 2^-3 = 1.6 carrier periods along x3: an x3 Hann factor keeps the carrier from wrapping around
    fam = _family(mode="trans-2", k=(0.3, -0.5, 0.8), envelope=hann_window(GRID, axes=(1, 3)))
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



def _lattice_directions():
    """Float64 unit directions of the nonzero frequencies of GRID, as fourier_multiplier forms them,
    with their flat lattice indices and a mask of those a float32 rounding moves to another bin."""
    f0, f1, f2, f3 = GRID.freq_meshes()
    r = np.sqrt(f0**2 + f1**2 + f2**2 + f3**2).ravel()
    flat = np.flatnonzero(r > 0)
    units = np.stack([np.broadcast_to(f, GRID.shape).ravel()[flat] / r[flat] for f in (f0, f1, f2, f3)], axis=-1)
    moved = SPHERE.locate(units.astype(np.float32).astype(float)) != SPHERE.locate(units)
    return units, flat, moved


def test_lattice_bins_locate_float64_directions():
    units, flat, moved = _lattice_directions()
    assert moved.any()  # the lattice has frequencies on bin edges
    lattice = _lattice_bins(GRID, SPHERE)
    B = SPHERE.num_bins
    assert lattice.bounds[0] == 0 and lattice.bounds[-1] == GRID.num_points
    segment = np.empty(GRID.num_points, dtype=np.int64)
    segment[lattice.order] = np.repeat(np.arange(B + 1), np.diff(lattice.bounds))
    np.testing.assert_array_equal(segment[flat], SPHERE.locate(units))
    np.testing.assert_array_equal(lattice.order[lattice.bounds[B] :], [0])  # DC alone in segment B
    assert B > 256  # bin ids sorted as uint16 give the int64 stable order
    np.testing.assert_array_equal(lattice.order, np.argsort(segment, kind="stable"))


def _unchunked_lattice_bins(grid, sphere):
    """``_lattice_bins`` as one pass over the whole lattice with the reference ``locate``: the reference for the
    per-plane build."""
    f0, f1, f2, f3 = grid.freq_meshes()
    r2 = (f0**2 + f1**2 + f2**2 + f3**2).ravel()
    r = np.sqrt(r2)
    ok = r > 0
    rs = np.where(ok, r, 1.0)
    units = np.stack([np.broadcast_to(f, grid.shape).ravel() / rs for f in (f0, f1, f2, f3)], axis=-1)
    idx = np.where(ok, reference_locate(sphere, units), sphere.num_bins)
    order = np.argsort(idx, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=sphere.num_bins + 1))])
    dirs = units[order].astype(np.float32)
    return order, bounds, dirs


@pytest.mark.parametrize(
    "grid, sphere",
    [(GridSpec(extents=(0.25,) * 4, shape=(16,) * 4), SPHERE),
     (GridSpec(extents=(1.0, 0.25, 0.5, 0.25), shape=(32, 8, 8, 16)), SPHERE),
     (GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(32, 8, 8, 16)), SphereGrid(10, 8, 16)),  # const-trajectory --small
     (GridSpec(extents=(0.25,) * 4, shape=(16,) * 4), SphereGrid(6, 6, 8)),  # smooth-rays --small
     (GridSpec(extents=(1.0, 0.3, 0.25, 0.7), shape=(16, 16, 8, 8)), SphereGrid(7, 5, 12))],
    ids=["cubic", "non-cubic", "const-trajectory-small", "smooth-rays-small", "unequal-extents"],
)
def test_chunked_lattice_matches_unchunked(grid, sphere):
    # more points than one run of ``_CHUNK``: the build permutes the directions in several runs, as the bin loop
    # reads the sorted lattice
    assert grid.num_points > _CHUNK
    lattice = _lattice_bins(grid, sphere)
    assert lattice.order.dtype == np.int32
    for got, want in zip(lattice, _unchunked_lattice_bins(grid, sphere)):
        np.testing.assert_array_equal(got, want)


CT_GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(32, 8, 8, 16))  # const-trajectory --small


def _const_trajectory_family(grid=CT_GRID):
    """const-trajectory's family: long-e along e3, damped, an envelope along x1 only; its support is the xi2 = 0
    plane."""
    return evolved_family(MaterialModel.constant(1.0, 1.0, 1.0), grid, (0, 0, 1.0), "long-e", EPS2,
                          hann_window(grid, axes=(1,)))


def _filtered_lattice(grid, sphere, support):
    """The reference full lattice (``_unchunked_lattice_bins``) without its points off ``support``, each kept
    point renumbered t * m + (its spatial frequency's place among the m true entries of ``support``)."""
    order, bounds, dirs = _unchunked_lattice_bins(grid, sphere)
    place = np.full(support.size, -1)
    place[np.flatnonzero(support)] = np.arange(np.count_nonzero(support))
    t, x = np.divmod(order, support.size)
    keep = place[x] >= 0
    segment = np.repeat(np.arange(sphere.num_bins + 1), np.diff(bounds))
    kept_bounds = np.concatenate([[0], np.cumsum(np.bincount(segment[keep], minlength=sphere.num_bins + 1))])
    return t[keep] * np.count_nonzero(support) + place[x[keep]], kept_bounds, dirs[keep]


LATTICE_PAIRS = {"cubic": (GridSpec(extents=(0.25,) * 4, shape=(16,) * 4), SPHERE),
                 "non-cubic": (GridSpec(extents=(1.0, 0.25, 0.5, 0.25), shape=(32, 8, 8, 16)), SPHERE),
                 "const-trajectory-small": (CT_GRID, SphereGrid(10, 8, 16)),
                 "smooth-rays-small": (GridSpec(extents=(0.25,) * 4, shape=(16,) * 4), SphereGrid(6, 6, 8)),
                 "unequal-extents": (GridSpec(extents=(1.0, 0.3, 0.25, 0.7), shape=(16, 16, 8, 8)),
                                     SphereGrid(7, 5, 12))}


@pytest.mark.parametrize(
    "grid, sphere, support",
    [pytest.param(*pair, support, id=f"{name}-{support}") for name, pair in LATTICE_PAIRS.items()
     for support in ("random", "random-no-zero", "empty")]
    + [pytest.param(*LATTICE_PAIRS["const-trajectory-small"], "const-trajectory", id="const-trajectory-small-family")],
)
def test_support_lattice_matches_filtered_full_lattice(grid, sphere, support):
    # the support lattice keeps each kept point's bin, float32 direction and place in the stable order; a support
    # without the zero frequency leaves the DC segment empty, and an empty support every segment; bin_occupancy
    # describes the full lattice's counts
    if support == "const-trajectory":
        mask = _const_trajectory_family(grid).fields[EPS2[0]].support
    elif support == "empty":
        mask = np.zeros(grid.spatial_shape, dtype=bool)
    else:
        mask = np.random.default_rng(9).random(grid.spatial_shape) < 0.3
        mask.flat[0] = support == "random"
    lattice = _lattice_bins(grid, sphere, mask.tobytes())
    assert lattice.bounds[-1] == grid.shape[0] * np.count_nonzero(mask)
    for got, want in zip(lattice, _filtered_lattice(grid, sphere, mask)):
        np.testing.assert_array_equal(got, want)
    assert np.diff(lattice.bounds)[-1] == mask.flat[0]
    counts = np.diff(_unchunked_lattice_bins(grid, sphere)[1])[: sphere.num_bins]
    median = float(np.median(counts))
    assert bin_occupancy(grid, sphere) == {"empty_bins": np.count_nonzero(counts == 0), "median_points": median,
                                           "below_floor": median < estimator.MIN_MEDIAN_POINTS_PER_BIN}
    assert _lattice_bins(grid, sphere, mask.tobytes()) is lattice  # cached per (grid, sphere, support)


def test_support_lattice_build_bins_only_its_points(monkeypatch):
    # an uncached support build reads the polar cells of its nt m points alone: on const-trajectory's full-size
    # grid a scale's 64 x 3 points, where the full lattice has 64 x 8192
    grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 16, 16, 32))
    support = _const_trajectory_family(grid).fields[EPS2[0]].support
    polar, seen = SphereGrid._polar_cells, []

    def counting(self, *v):
        seen.append(np.broadcast(*v).size)
        return polar(self, *v)

    monkeypatch.setattr(SphereGrid, "_polar_cells", counting)
    lattice = _lattice_bins.__wrapped__(grid, SphereGrid(10, 8, 16), support.tobytes())
    assert sum(seen) == lattice.bounds[-1] == grid.shape[0] * 3
    # nor does it form the spatial frequencies off its support: a deep-ladder scale's 3-point support on
    # 16 x 16 x 256 builds below 1.3 MB of tracemalloc, a bound fixed before measuring; meshing all 65536 spatial
    # frequencies and masking them peaks at 1.5 MB
    fam = deep_family(TIER1_GRID, TIER1_EPSILONS)
    support = fam.fields[fam.finest].support.tobytes()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lattice = _lattice_bins.__wrapped__(fam.grid, DEEP_SPHERE, support)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert lattice.bounds[-1] == 1024 * 3
    assert peak < 1.3 * 2**20


def test_bin_occupancy_builds_and_caches_no_lattice():
    """tracemalloc peak of an uncached count, with the bound fixed before measuring: below 4 B per lattice point, a
    fifth of the 20 B a built lattice holds, and no lattice is cached; the count is cached per (grid, sphere)."""
    grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 8, 8, 16))
    _lattice_bins.cache_clear()
    bin_occupancy.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        occupancy = bin_occupancy(grid, SPHERE)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert _lattice_bins.cache_info().currsize == 0
    assert peak < 4 * grid.num_points
    assert bin_occupancy(grid, SPHERE) is occupancy


def test_lattice_build_reads_the_azimuth_once_per_spatial_frequency(monkeypatch):
    grid = GridSpec(extents=(1.0, 0.25, 0.5, 0.25), shape=(32, 8, 8, 16))
    azimuth, seen = SphereGrid._azimuth_cells, []

    def counting(self, v1, v2):
        seen.append(np.size(v1))
        return azimuth(self, v1, v2)

    monkeypatch.setattr(SphereGrid, "_azimuth_cells", counting)
    _lattice_bins.__wrapped__(grid, SPHERE)  # uncached: the build runs
    assert sum(seen) == grid.num_points // grid.shape[0]


def test_lattice_build_peak_per_point():
    """tracemalloc peak of an uncached build, with the bound fixed before measuring: at most 24 B per lattice point
    (the result's 20 B, with the m rows of spatial frequencies, 24 m B, inside the other 4 B at nt = 64) plus one run's
    temporaries, under 128 B per run point, and a few bin-count arrays.  The directions are written once, in sorted
    order: on 64 x 16^3 the bound is 28 B per point, where a flat-order copy of them would make the peak 36 B."""
    for shape in ((64, 8, 8, 16), (64, 16, 16, 16)):
        grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=shape)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lattice = _lattice_bins.__wrapped__(grid, SPHERE)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in lattice) == 20 * grid.num_points + 8 * (SPHERE.num_bins + 2)
        assert peak <= 24 * grid.num_points + 128 * _CHUNK + 32 * (SPHERE.num_bins + 2)


# components (xi0, xi1, xi2, xi3) on the lattice's ties: xi1 = +-xi2 (azimuth edges of every n_phi divisible by 8),
# 3 xi0^2 = |xi'|^2 (chi1 = pi/3 or 2 pi/3) and xi3^2 = xi1^2 + xi2^2 (theta = pi/4 or 3 pi/4)
TIES = [(1, 2, 2, 3), (4, 3, -3, 0), (1, 1, 1, 1), (3, 1, 1, 5), (5, 1, 5, 7), (7, 3, 4, 5), (2, 5, 12, 13),
        (1, 8, 15, 17), (3, 0, 1, 1), (0, 3, 4, 5), (0, 0, 0, 1), (2, 0, 0, 0), (0, 1, 0, 0), (0, 2, 2, 0)]
EDGE_SPHERES = [SphereGrid(12, 8, 16), SphereGrid(6, 4, 8), SPHERE, SphereGrid(7, 5, 12), SphereGrid()]


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
    tie=st.sampled_from(TIES),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
    spacing=st.floats(1e-3, 1e3),
    sphere=st.sampled_from(EDGE_SPHERES),
)
def test_locate_matches_reference_bit_for_bit(v, tie, signs, spacing, sphere):
    # a random 4-vector and a tie scaled like a lattice frequency, each raw and as the unit direction zeta/|zeta|
    # the lattice build bins (the norm summed in component order, as there)
    rows = np.array([v, np.multiply(tie, signs) * spacing])
    r = np.sqrt(rows[:, 0] ** 2 + rows[:, 1] ** 2 + rows[:, 2] ** 2 + rows[:, 3] ** 2)
    units = rows / np.where(r > 0, r, 1.0)[:, None]
    for vecs in (rows, units):
        np.testing.assert_array_equal(sphere.locate(vecs), reference_locate(sphere, vecs))
        assert [sphere.locate(x) for x in vecs] == [reference_locate(sphere, x) for x in vecs]


def test_locate_refuses_non_finite_vectors():
    sphere = SphereGrid(8, 8, 16)
    vecs = np.array([[np.nan, 0.1, 0.2, 0.3], [np.inf, 0, 0, 1], [0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="^2 of 4 vectors are not finite"):
        sphere.locate(vecs)
    with pytest.raises(ValueError, match="^1 of 1 vectors are not finite"):
        sphere.locate([0.0, np.nan, 0.0, 1.0])
    np.testing.assert_array_equal(sphere.locate(vecs[2:]), [-1, 290])


def test_estimator_holds_one_scale_and_no_two_full_rank_copies(monkeypatch):
    """tracemalloc peak of a whole pass: a two-scale plane-wave family made and its field crossed
    against its rank-5 source, then against its charge.

    Counted in grid scalars (16 N bytes), with the bounds fixed before measuring.  The family holds no
    grid-sized array, and the estimator reads a produced entry at each bin run's lattice points from its
    factor tables (``_read``), K (nt + n1 n2 n3) values (5/16 of a grid scalar for the source's five terms
    on this lattice), so no spectrum is formed: the source cross, its bins included, holds less than one
    grid scalar beyond the cached lattice, where formed spectra held 1 + 5 of them and the bound was 8.5.
    Each scale's readers are released before the next scale's are made, so the second scale starts with
    only the first scale's bins held, and its peak exceeds the first's by less than a quarter of one.  The
    charge pass makes rho per scale, one term of a spatial field (1/16 of a grid scalar), and reads it the
    same way, so it holds less than a quarter of one whenever a reader is made.
    """
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    sphere = SphereGrid(6, 6, 8)
    model = MaterialModel.constant(2.0, 0.5, 0.3)
    w = hann_window(grid, axes=(0,))
    _lattice_bins(grid, sphere)  # cached, so the lattice is not counted as the estimate's scratch
    unit = 16 * grid.num_points
    read, peaks, held = estimator._read, [], []

    def spy(*args):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)  # the peak so far, at the start of each reader
        held.append(current)
        return read(*args)

    monkeypatch.setattr(estimator, "_read", spy)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fam = plane_wave_family(model, grid, (0.3, -0.5, 0.8), "trans+1", hann_window(grid), EPS2)
        made = tracemalloc.get_traced_memory()[0]
        est = correlation_measure(fam, source_fields(fam), w, sphere)
        peak = tracemalloc.get_traced_memory()[1]
        assert est.metadata["factor_rank"] == (1, 5)
        del est
        charge_start = tracemalloc.get_traced_memory()[0]
        rho = charge_tilde_fields(fam)
        assert tracemalloc.get_traced_memory()[0] - charge_start < unit / 4  # a produced rho holds no grid array
        cross_rho = correlation_measure(fam, rho, w, sphere)
    finally:
        tracemalloc.stop()
    assert (made - start) / unit < 1 / 4
    assert len(peaks) == 8 and cross_rho.metadata["factor_rank"] == (1, 1)
    assert (peak - start) / unit < 1
    assert (held[2] - made) / unit < 1 / 4  # the second scale starts with the first scale's bins alone
    assert (peak - peaks[2]) / unit < 1 / 4  # peaks[2]: the peak of the first scale alone
    assert (max(held[4:]) - charge_start) / unit < 1 / 4


def _bincount_reference(u, g, phi, sphere):
    """Per-pair bincount accumulation over the unsorted lattice: (bins, centroids, dc) of one scale."""
    f0, f1, f2, f3 = GRID.freq_meshes()
    r = np.sqrt(f0**2 + f1**2 + f2**2 + f3**2).ravel()
    ok = r > 0
    units = np.stack([np.broadcast_to(f, GRID.shape).ravel() / np.where(ok, r, 1.0) for f in (f0, f1, f2, f3)], axis=-1)
    B = sphere.num_bins
    idx = np.where(ok, reference_locate(sphere, units), B)
    window = phi.sample(GRID)
    F1 = np.fft.fftn(u * window, axes=(1, 2, 3, 4)).reshape(u.shape[0], -1)
    F2 = F1 if g is None else np.fft.fftn(g * window, axes=(1, 2, 3, 4)).reshape(g.shape[0], -1)
    scale = GRID.cell_volume**2 / GRID.box_volume
    bins = np.zeros((B, F1.shape[0], F2.shape[0]), dtype=complex)
    for i in range(F1.shape[0]):
        for j in range(F2.shape[0]):
            w = F1[i] * np.conj(F2[j])
            re = np.bincount(idx, weights=w.real, minlength=B + 1)[:B]
            im = np.bincount(idx, weights=w.imag, minlength=B + 1)[:B]
            bins[:, i, j] = (re + 1j * im) * scale
    mass = (np.abs(F1) ** 2).sum(axis=0) + (np.abs(F2) ** 2).sum(axis=0)
    dirs = units.astype(np.float32)
    cent = np.stack([np.bincount(idx, weights=mass * d, minlength=B + 1)[:B] for d in dirs.T], axis=1)
    with np.errstate(invalid="ignore"):  # empty bins: 0 / 0 = NaN rows
        cent /= np.linalg.norm(cent, axis=1, keepdims=True)
    m = min(F1.shape[0], F2.shape[0])
    return bins, cent, np.sum(F1[:m, 0] * np.conj(F2[:m, 0])) * scale


WINDOWS = {"": hann_window(GRID, axes=(0,)), "-time-subwindow": time_subwindow(GRID, 0.1, 0.09),
           "-hann-4d": hann_window(GRID), "-hann-t-margin": hann_window(GRID, axes=(0,), margin=0.25)}


@pytest.mark.parametrize(
    "second, phi",
    [pytest.param(second, phi, id=second + name) for name, phi in WINDOWS.items()
     for second in ("auto", "cross6", "charge")],
)
def test_gram_bins_match_per_pair_bincount_reference(second, phi):
    """Bin-sorted Gram accumulation against per-pair bincounts of the fully windowed field's 4-D FFT,
    on a sphere finer than the lattice."""
    rng = np.random.default_rng(7)

    def noise(p):
        return rng.standard_normal((p,) + GRID.shape) + 1j * rng.standard_normal((p,) + GRID.shape)

    fam = OscillatingFamily(grid=GRID, epsilons=EPS2, fields={e: noise(6) for e in EPS2})
    sphere = SphereGrid(24, 24, 48)
    assert sphere.num_bins > GRID.num_points
    if second == "auto":
        g = None
        est = estimate_hmeasure(fam, phi, sphere=sphere)
    else:
        g = {e: noise(6) for e in EPS2} if second == "cross6" else charge_tilde_fields(fam)
        est = correlation_measure(fam, g, phi, sphere=sphere)
    for e in EPS2:
        bins, cent, dc = _bincount_reference(np.asarray(fam.fields[e]), None if g is None else g[e], phi, sphere)
        got = est.history[e]
        assert got.shape == bins.shape
        total = np.trace(bins, axis1=1, axis2=2).real.sum() if g is None else np.abs(bins).sum()
        assert np.abs(got - bins).max() <= 1e-13 * total
        assert abs(est.dc_energy[e] - dc) <= 1e-13 * total
        empty = np.isnan(cent[:, 0])
        assert 0 < empty.sum() < sphere.num_bins
        assert np.all(got[empty] == 0)
        assert np.all(np.isnan(est.centroids[e][empty]))
        np.testing.assert_allclose(est.centroids[e][~empty], cent[~empty], rtol=0, atol=1e-12)


@pytest.mark.parametrize("phi", WINDOWS.values(), ids=["window" + name for name in WINDOWS])
def test_spectra_in_dft_order(phi):
    """The spectra of a held and a support-held entry (read through ``slabs``) are the 4-D FFTs of their windowed
    scalars, each row in the DFT's own flat (t, x1, x2, x3) order; under a window that is one on x1..x3, a
    support-held entry's spectra on its support are those FFTs' columns at the support's spatial frequencies."""
    rng = np.random.default_rng(3)
    held = FactoredField.of(rng.standard_normal((3,) + GRID.shape) + 1j * rng.standard_normal((3,) + GRID.shape))
    window = estimator._window_dft(phi, GRID)
    for u in (held, _oblique_family().fields[EPS2[-1]]):
        want = np.fft.fftn(u.scalars() * phi.sample(GRID), axes=(1, 2, 3, 4)).reshape(u.rank, -1)
        got = estimator._spectra(u, window, GRID)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if u.support is not None and window[3] is None:
            got = estimator._spectra(u, window, GRID, u.support).reshape(u.rank, GRID.shape[0], -1)
            want = want.reshape((u.rank, GRID.shape[0], -1))[:, :, u.support.ravel()]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("phi", WINDOWS.values(), ids=["window" + name for name in WINDOWS])
def test_produced_read_matches_formed_spectra_at_every_lattice_point(phi):
    """A plane-wave field (one term), its source (five terms) and its charge (one term, a spatial field), and two
    entries of three terms, two rows whose terms all share one time factor and one row whose terms share it two of
    three, read at every lattice point from their factor tables (``_read``), against their spectra formed on the grid
    row by row with a dense time-DFT matrix (``reference.formed_spectra``): within 1e-14 of each entry's peak, a bound
    fixed before measuring, and point-major.  The formed spectra are the 4-D FFTs of the windowed scalars within 1e-13
    of the peak, under every window: a time sub-window reads only its live time slabs, which start after slab 0, and a
    margin narrows the time taper."""
    fam = _family(model=MaterialModel.constant(2.0, 0.5, 0.3), envelope=hann_window(GRID), k=(0.3, -0.5, 0.8))
    e = fam.finest
    rng = np.random.default_rng(11)
    t, *x = (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)) for n in GRID.shape)
    C = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    all_three = FactoredField(np.eye(2), C=C, terms=(t[[0, 0, 0]], *x))
    two_of_three = FactoredField(np.eye(2)[:, :1], C=C[:1], terms=(t[[0, 0, 1]], *x))
    for u, K in ((fam.fields[e], 1), (fam.sources[e], 5), (charge_tilde_fields(fam)[e], 1), (all_three, 3),
                 (two_of_three, 3)):
        assert u.produced and u.separated(0, 1)[0].shape == (u.rank, K)
        want = formed_spectra(u, phi, GRID)
        fft = np.fft.fftn(u.scalars() * phi.sample(GRID), axes=(1, 2, 3, 4)).reshape(u.rank, -1)
        assert np.abs(want - fft).max() <= 1e-13 * np.abs(fft).max()
        got = estimator._read(u, estimator._window_dft(phi, GRID), GRID)(np.arange(GRID.num_points))
        assert got.shape == (GRID.num_points, u.rank) and got.flags.c_contiguous
        assert np.abs(got - want.T).max() <= 1e-14 * np.abs(want).max()


def test_wkb_estimates_match_their_materialised_arrays(smooth_model):
    """One WKB wave and the sum of four, superposed by ``sum`` of their produced entries as smooth-rays superposes
    them, estimated from their factors and from their materialised arrays: every bin of every scale within 1e-13 of
    the maximum bin, a bound fixed before measuring.  The reads of spatial-field terms (``_read``) against the 4-D
    FFTs of the windowed scalars, under a time taper and a 4-D one, within 1e-13 of the peak: a field (one time factor,
    premixed), a source (two, with r = 6 > K / 2, read through C), the sum and its charge (two, one per temporal rate,
    each premixed per time factor), the sum of the four sources (four, with r = 6 and K = 44, so premixed and its
    read sums four column groups) and an entry of two time factors with r = 2 and K = 4 (premixed per time
    factor)."""
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    sphere, phi = SphereGrid(8, 8, 16), hann_window(grid, axes=(0,))
    dirs = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    waves = [wkb_family(smooth_model, grid, linear_phase(0.9 * d, 0.72 if n % 2 else -0.72), hann_window(grid),
                        "trans-2" if n % 2 else "trans+1", EPS2) for n, d in enumerate(dirs)]
    meta = {"min_cells_per_wavelength": min(w.min_cells_per_wavelength() for w in waves)}
    superposed = OscillatingFamily(grid=grid, epsilons=EPS2, fields={e: sum(w.fields[e] for w in waves) for e in EPS2},
                                   metadata=meta)
    for fam in (waves[0], superposed):
        held = OscillatingFamily(grid=grid, epsilons=EPS2, fields={e: np.asarray(u) for e, u in fam.fields.items()},
                                 metadata=meta)
        got, want = estimate_hmeasure(fam, phi, sphere), estimate_hmeasure(held, phi, sphere)
        for e in EPS2:
            assert np.abs(got.history[e] - want.history[e]).max() <= 1e-13 * np.abs(want.history[e]).max()
    e = EPS2[-1]
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, grid.shape[0])) + 1j * rng.standard_normal((2, grid.shape[0]))
    X = rng.standard_normal((4,) + grid.spatial_shape) + 1j * rng.standard_normal((4,) + grid.spatial_shape)
    C = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    two_factors = FactoredField(np.eye(2), C=C, terms=(t[[0, 1, 0, 1]], X))
    for phi in (phi, hann_window(grid, margin=0.1)):
        window = estimator._window_dft(phi, grid)
        for u in (waves[0].fields[e], waves[0].sources[e], superposed.fields[e], charge_density(superposed)[e],
                  sum(w.sources[e] for w in waves), two_factors):
            want = np.fft.fftn(u.scalars() * phi.sample(grid), axes=(1, 2, 3, 4)).reshape(u.rank, -1)
            got = estimator._read(u, window, grid)(np.arange(grid.num_points))
            assert got.shape == (grid.num_points, u.rank) and got.flags.c_contiguous
            assert np.abs(got - want.T).max() <= 1e-13 * np.abs(want).max()


def test_slab_rows_and_untapered_windows_carry_no_identity_factor():
    """A held or a support-held row is read as its slabs alone, with no time factors; a window is read as its live
    time slabs lo:hi, the time factor's samples there, nonzero at both ends, and its spatial product: None when it is
    one on x1..x3, and the outer product of the three sampled spatial factors, bit for bit, when it tapers them; and a
    support-held entry read through ``slabs`` under a spatially tapered window is still the 4-D FFT of its windowed
    scalars."""
    rng = np.random.default_rng(5)
    held = FactoredField.of(rng.standard_normal((2,) + GRID.shape) + 1j * rng.standard_normal((2,) + GRID.shape))
    support_held = _oblique_family().fields[EPS2[-1]]
    for u in (held, support_held):
        assert np.array_equal(u.slabs(u.rank - 1, 2, 7), u.scalars()[-1, 2:7])
    for phi in (full_window(), hann_window(GRID, axes=(0,)), time_subwindow(GRID, 0.1, 0.09)):
        lo, hi, wt, spatial = estimator._window_dft(phi, GRID)
        samples = phi.factors[0](GRID.axis(0))
        assert np.array_equal(wt, samples[lo:hi]) and wt[0] != 0 and wt[-1] != 0
        assert not samples[:lo].any() and not samples[hi:].any()
        assert spatial is None
    phi = hann_window(GRID, axes=(0, 2))
    window = estimator._window_dft(phi, GRID)
    w1, w2, w3 = (f(GRID.axis(i)) for i, f in enumerate(phi.factors[1:], 1))
    assert np.array_equal(window[3], w1[:, None, None] * w2[None, :, None] * w3[None, None, :])
    want = np.fft.fftn(support_held.scalars() * phi.sample(GRID), axes=(1, 2, 3, 4)).reshape(support_held.rank, -1)
    got = estimator._spectra(support_held, window, GRID)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_estimate_matches_multiplier_definition_on_bin_edges():
    """The multiplier identity with S = the bins of the edge frequencies and all the mass on them."""
    units, flat, moved = _lattice_directions()
    S = np.unique(SPHERE.locate(units[moved]))
    spectrum = np.zeros(GRID.num_points, dtype=complex)
    spectrum[flat[moved]] = 1.0
    wave = np.fft.ifftn(spectrum.reshape(GRID.shape))
    pol = np.array([1.0, 0.5j, 0.0, 0.0, -0.25, 1.0])
    u = pol.reshape((6, 1, 1, 1, 1)) * wave
    fam = OscillatingFamily(grid=GRID, epsilons=EPS2, fields={e: u for e in EPS2})
    est = estimate_hmeasure(fam, full_window(), sphere=SPHERE)

    def a(*z):
        return np.isin(SPHERE.locate(np.stack(np.broadcast_arrays(*z), axis=-1)), S).astype(float)

    want = GRID.cell_volume * np.vdot(u, fourier_multiplier(a, u, GRID))
    got = est.masses()[S].sum() + est.dc_energy[fam.finest]
    assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------- correlation

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
        assert cnorm <= 1.1 * e * auto.at(e).total_mass() * 50  # decays linearly in eps
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


def test_correlation_grid_mismatch_refused_when_read():
    # g is read one scale at a time, so its grid is checked as each scale is read: a lazy mapping of
    # another grid at its first read, and a dict whose finest scale alone is off-grid at that scale
    fam = _family()
    other_grid = GridSpec(extents=GRID.extents, shape=(16, 8, 8, 32))
    other = plane_wave_family(MaterialModel.constant(), other_grid, (0, 0, 1.0), "trans+1",
                              hann_window(other_grid, axes=(1,)), EPS2)
    read = []

    class Lazy(Mapping):
        """Each scale's entry fetched, and the read recorded, when it is read."""

        def __getitem__(self, e):
            read.append(e)
            return other.sources[e]

        def __iter__(self):
            return iter(EPS2)

        def __len__(self):
            return len(EPS2)

    produced = Lazy()
    half = {EPS2[0]: np.asarray(fam.fields[EPS2[0]]), EPS2[1]: np.asarray(other.fields[EPS2[1]])}
    phi = hann_window(GRID, axes=(0,))
    for g in (produced, half):
        with pytest.raises(ValueError, match="^secondary sequence grid mismatch$"):
            correlation_measure(fam, g, phi, sphere=SPHERE)
    assert read == [EPS2[0]]


def test_charge_tilde_embedding():
    fam = _family(mode="long-e")
    tilde = charge_tilde_fields(fam)
    rho = charge_density(fam)
    padded = {}
    for e in fam.epsilons:
        assert tilde[e].shape == (1,) + GRID.shape
        np.testing.assert_array_equal(np.asarray(tilde[e]), np.asarray(rho[e]))
        padded[e] = FactoredField(np.eye(6)[:, :1], C=rho[e].C, terms=rho[e].terms)  # rho in component 0 of six
    phi = hann_window(GRID, axes=(0,))
    one = correlation_measure(fam, tilde, phi, sphere=SPHERE)
    six = correlation_measure(fam, padded, phi, sphere=SPHERE)
    for e in fam.epsilons:
        assert np.abs(rho[e]).max() > 0
        assert one.history[e].shape == (SPHERE.num_bins, 6, 1)
        np.testing.assert_array_equal(one.history[e], six.history[e][:, :, :1])
        assert np.all(six.history[e][:, :, 1:] == 0)
        np.testing.assert_array_equal(one.centroids[e], six.centroids[e])
        assert one.dc_energy[e] == six.dc_energy[e]
    src = source_fields(fam)
    assert set(src) == set(fam.epsilons)


# ------------------------------------------------------------------ factored


@pytest.mark.parametrize("zero_component", [True, False], ids=["zero-component", "no-zero-component"])
def test_dropped_components_match_identity_factor(zero_component):
    """Bins with exact-zero components dropped against all six components transformed (V = I), each held on the
    family's support, so both bin the same support lattice."""
    if zero_component:  # const-trajectory's family: E2, H1 and H3 are identically zero
        grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(32, 8, 8, 16))
        fam = evolved_family(MaterialModel.constant(1.0, 1.0, 1.0), grid, (0, 0, 1.0), "long-e", EPS2,
                             hann_window(grid, axes=(1,)))
    else:
        grid = GRID
        fam = evolved_family(MaterialModel.constant(2.0, 0.5, 0.3), grid, (0.3, -0.5, 0.8), "trans+1", EPS2,
                             hann_window(grid, axes=(1, 2, 3)))
    full = {e: FactoredField(np.eye(6), spectrum=np.tensordot(u.V, u.spectrum, axes=1), support=u.support)
            for e, u in fam.fields.items()}
    ref_fam = OscillatingFamily(grid=grid, epsilons=fam.epsilons, fields=full, metadata=fam.metadata)
    phi = time_subwindow(grid, grid.extents[0] / 2, grid.extents[0] / 4)
    got, want = estimate_hmeasure(fam, phi, SPHERE), estimate_hmeasure(ref_fam, phi, SPHERE)
    assert got.metadata["factor_rank"] == ((3, 3) if zero_component else (6, 6))
    assert want.metadata["factor_rank"] == (6, 6)
    for e in fam.epsilons:
        total = want.at(e).total_mass()
        assert total > 0
        assert np.abs(got.history[e] - want.history[e]).max() <= 1e-13 * total
        assert abs(got.dc_energy[e] - want.dc_energy[e]) <= 1e-13 * total
        np.testing.assert_array_equal(np.isnan(got.centroids[e]), np.isnan(want.centroids[e]))


def test_source_free_family_pairs_to_zero_bins():
    # a family without sources has f = 0: rank-zero entries, no grid-sized zeros, exactly zero bins
    fam = evolved_family(MaterialModel.constant(1.0, 1.0, 0.5), GRID, (0, 0, 1.0), "trans+1", EPS2,
                         hann_window(GRID, axes=(1,)))
    src = source_fields(fam)
    for e in fam.epsilons:
        assert src[e].V.shape == (6, 0) and src[e].s.shape == (0,) + GRID.shape
    w = hann_window(GRID, axes=(0,))
    cross = correlation_measure(fam, src, w, SPHERE)
    r = estimate_hmeasure(fam, w, SPHERE).metadata["factor_rank"][0]
    assert cross.metadata["factor_rank"] == (r, 0)
    for e in fam.epsilons:
        assert cross.history[e].shape == (SPHERE.num_bins, 6, 6)
        assert not np.any(cross.history[e]) and cross.dc_energy[e] == 0


def _plain(fam):
    """The same family with every factored entry materialised (V = I)."""
    fields = {e: np.asarray(fam.fields[e]) for e in fam.epsilons}
    sources = {e: np.asarray(fam.sources[e]) for e in fam.epsilons}
    return OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=fields, sources=sources,
                             metadata=fam.metadata)


@pytest.mark.parametrize("measure", ["auto", "source", "charge"])
def test_factored_bins_match_materialised(measure):
    """V G V'^H from the factors against the six-component spectra of the materialised fields."""
    fam = _family(model=MaterialModel.constant(2.0, 0.5, 0.3), envelope=hann_window(GRID), k=(0.3, -0.5, 0.8))
    assert isinstance(fam.fields[fam.finest], FactoredField) and isinstance(fam.sources[fam.finest], FactoredField)
    phi = hann_window(GRID, axes=(0,))

    def estimate(f):
        if measure == "auto":
            return estimate_hmeasure(f, phi, sphere=SPHERE)
        g = source_fields(f) if measure == "source" else charge_tilde_fields(f)
        return correlation_measure(f, g, phi, sphere=SPHERE)

    plain = _plain(fam)
    got, want = estimate(fam), estimate(plain)
    share = estimate_hmeasure(plain, phi, sphere=SPHERE)
    for e in fam.epsilons:
        total = np.abs(want.history[e]).sum()
        assert total > 0
        assert np.abs(got.history[e] - want.history[e]).max() <= 1e-13 * total
        assert abs(got.dc_energy[e] - want.dc_energy[e]) <= 1e-13 * total
        empty = np.isnan(want.centroids[e][:, 0])
        np.testing.assert_array_equal(np.isnan(got.centroids[e][:, 0]), empty)
        # a bin at the FFT's rounding floor has a noise centroid on both sides: weight by u's mass share
        moved = np.abs(got.centroids[e] - want.centroids[e]).max(axis=1)[~empty]
        assert np.max(moved * (share.at(e).masses() / share.at(e).total_mass())[~empty]) <= 1e-13


def test_estimator_never_materialises_factored_fields(monkeypatch):
    # the estimator reads factors: it forms no field u = V s, and reads a produced entry at its lattice points,
    # so it forms none of its scalars or slabs either; rho is made from the field's spatial fields, not its scalars
    fam = _family(model=MaterialModel.constant(1.0, 1.0, 0.5))
    phi = hann_window(GRID, axes=(0,))
    scalars, slabs = FactoredField.scalars, FactoredField.slabs

    def refuse(self):
        raise AssertionError("a factored field was materialised")

    def refuse_produced(self):
        if self.s is None:
            raise AssertionError("a produced entry's scalars were formed")
        return scalars(self)

    def refuse_produced_slabs(self, j, lo, hi):
        if self.produced:
            raise AssertionError("a produced entry's slabs were formed")
        return slabs(self, j, lo, hi)

    kinds = _count_measures(monkeypatch)
    monkeypatch.setattr(FactoredField, "materialise", refuse)
    with pytest.raises(AssertionError, match="materialised"):
        np.asarray(fam.fields[fam.finest])
    estimate_hmeasure(fam, phi, sphere=SPHERE)
    correlation_measure(fam, source_fields(fam), phi, sphere=SPHERE)
    correlation_measure(fam, charge_tilde_fields(fam), phi, sphere=SPHERE)
    monkeypatch.setattr(FactoredField, "scalars", refuse_produced)
    monkeypatch.setattr(FactoredField, "slabs", refuse_produced_slabs)
    for entries in (fam.fields, fam.sources):
        with pytest.raises(AssertionError, match="scalars were formed"):
            entries[fam.finest].scalars()
        with pytest.raises(AssertionError, match="slabs were formed"):
            entries[fam.finest].slabs(0, 0, 1)
    estimate_hmeasure(fam, phi, sphere=SPHERE)
    correlation_measure(fam, source_fields(fam), phi, sphere=SPHERE)
    correlation_measure(fam, charge_tilde_fields(fam), phi, sphere=SPHERE)
    # a support-held family under a time window is read where it lives: no inverse transform and no scalars
    evolved = evolved_family(MaterialModel.constant(1.0, 1.0, 0.5), GRID, (0, 0, 1.0), "trans+1", EPS2,
                             hann_window(GRID, axes=(1,)))
    fftn = synthesis.fftn

    def forward_only(a, axes, inverse=False, out=None):
        if inverse:
            raise AssertionError("a support-held entry was transformed back to the grid")
        return fftn(a, axes, out=out)

    def refuse_all(self):
        raise AssertionError("an entry's scalars were formed")

    monkeypatch.setattr(synthesis, "fftn", forward_only)
    monkeypatch.setattr(FactoredField, "scalars", refuse_all)
    with pytest.raises(AssertionError, match="transformed back"):
        evolved.fields[evolved.finest].slabs(0, 0, 1)
    est = estimate_hmeasure(evolved, phi, sphere=SPHERE)
    correlation_measure(evolved, source_fields(evolved), phi, sphere=SPHERE)
    correlation_measure(evolved, charge_tilde_fields(evolved), phi, sphere=SPHERE)
    assert est.metadata["binned_points"]["lattice"] == "support"
    # the first auto estimate was let go, so the second is computed under the stricter patch, not remembered
    assert kinds == ["auto", "cross", "cross"] * 3


def _plain_fields(fam):
    """The same family with every field materialised (V = I, exact-zero components dropped when it is read)."""
    fields = {e: np.asarray(u) for e, u in fam.fields.items()}
    return OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=fields, metadata=fam.metadata)


def _off_zero(fam):
    """``fam`` with each scale held on its support without the zero frequency, so that segment B of every support
    lattice is empty."""
    fields = {}
    for e, u in fam.fields.items():
        support = u.support.copy()
        support.flat[0] = False
        fields[e] = FactoredField(u.V, spectrum=u.spectrum[:, :, support[u.support]], support=support)
    return OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=fields, metadata=fam.metadata)


def _oblique_family():
    return evolved_family(MaterialModel.constant(2.0, 0.5, 0.3), GRID, (0.3, -0.5, 0.8), "trans+1", EPS2,
                          hann_window(GRID, axes=(1, 2, 3)))


# each family and its scales' support sizes: a const-trajectory scale's is the 3 xi1 of its Hann factor at xi2 = 0
# and one xi3, without the zero frequency; the oblique family's carrier counts along x1 and x3 are not integral, so
# each scale takes those axes whole, times the 3 xi2 of its Hann factor, the zero frequency among the coarse scale's
SUPPORT_HELD = {
    "const-trajectory": (_const_trajectory_family, (3, 3)),
    "oblique": (_oblique_family, (8 * 3 * 16, 8 * 3 * 16)),
    "no-zero-frequency": (lambda: _off_zero(_oblique_family()), (8 * 3 * 16 - 1, 8 * 3 * 16)),
}


@pytest.mark.parametrize("measure", ["auto", "charge"])
@pytest.mark.parametrize("name", SUPPORT_HELD)
def test_support_path_matches_materialised_dense_estimate(name, measure):
    """A support-held family under a window that is one on x1..x3 bins each scale on its own support's lattice
    points; against the full-lattice estimate of its materialised fields (bounds fixed before measuring): bins and
    DC within 1e-13 of the total mass, centroids within 1e-12 in bins holding more than 1e-8 of it, and the bins with
    no support point exactly zero with NaN centroids.  A support without the zero frequency has DC exactly 0."""
    make, sizes = SUPPORT_HELD[name]
    fam = make()
    grid, supports = fam.grid, {e: u.support for e, u in fam.fields.items()}
    assert tuple(int(s.sum()) for s in supports.values()) == sizes
    phi = time_subwindow(grid, grid.extents[0] / 2, grid.extents[0] / 4)

    def estimate(f):
        if measure == "auto":
            return estimate_hmeasure(f, phi, SPHERE)
        return correlation_measure(f, charge_tilde_fields(f), phi, SPHERE)

    got, want = estimate(fam), estimate(_plain_fields(fam))
    assert got.metadata["binned_points"] == {"points": grid.shape[0] * sizes[-1], "lattice": "support"}
    assert want.metadata["binned_points"] == {"points": grid.num_points, "lattice": "full"}
    assert any(s.flat[0] for s in supports.values()) == (name == "oblique")
    full_empty = np.diff(_lattice_bins(grid, SPHERE).bounds[: SPHERE.num_bins + 1]) == 0
    for e, support in supports.items():
        empty = np.diff(_lattice_bins(grid, SPHERE, support.tobytes()).bounds[: SPHERE.num_bins + 1]) == 0
        assert empty.sum() > full_empty.sum()  # every support leaves bins that the full lattice fills
        weight = np.abs(want.history[e]).sum(axis=(1, 2))
        total = weight.sum()
        assert total > 0
        assert np.abs(got.history[e] - want.history[e]).max() <= 1e-13 * total
        assert abs(got.dc_energy[e] - want.dc_energy[e]) <= 1e-13 * total
        if not support.flat[0]:
            assert got.dc_energy[e] == 0
        heavy = weight > 1e-8 * total
        np.testing.assert_allclose(got.centroids[e][heavy], want.centroids[e][heavy], rtol=0, atol=1e-12)
        assert np.all(got.history[e][empty] == 0) and np.all(np.isnan(got.centroids[e][empty]))


def test_an_entry_held_on_an_empty_support_has_zero_bins():
    # a support with no spatial frequency bins no lattice point: zero bins, NaN centroids and no DC mass
    fam = _const_trajectory_family()
    grid, B = fam.grid, SPHERE.num_bins
    empty = FactoredField(np.eye(6)[:, :1], spectrum=np.zeros((1, grid.shape[0], 0)),
                          support=np.zeros(grid.spatial_shape, dtype=bool))
    fam = OscillatingFamily(grid=grid, epsilons=fam.epsilons, fields={e: empty for e in fam.epsilons},
                            metadata=fam.metadata)
    est = estimate_hmeasure(fam, time_subwindow(grid, grid.extents[0] / 2, grid.extents[0] / 4), SPHERE)
    assert est.metadata["binned_points"] == {"points": 0, "lattice": "support"}
    for e in fam.epsilons:
        assert est.history[e].shape == (B, 6, 6) and not est.history[e].any()
        assert np.isnan(est.centroids[e]).all() and est.dc_energy[e] == 0


def test_spatially_tapered_window_on_a_support_held_family_keeps_its_bits():
    # a window that tapers x1..x3 takes the full lattice; each row is read as the slabs separated makes, the
    # same bits as the field formed on the grid in one piece (reference.scatter_ifftn), so the same estimate
    fam = _const_trajectory_family()
    held = {e: scatter_ifftn(u.V, u.spectrum, u.support, fam.grid) for e, u in fam.fields.items()}
    twin = OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=held, metadata=fam.metadata)
    for phi in (hann_window(fam.grid), hann_window(fam.grid, axes=(0, 1))):
        got, want = estimate_hmeasure(fam, phi, SPHERE), estimate_hmeasure(twin, phi, SPHERE)
        assert got.metadata["binned_points"] == {"points": fam.grid.num_points, "lattice": "full"}
        for e in fam.epsilons:
            np.testing.assert_array_equal(got.history[e], want.history[e])
            np.testing.assert_array_equal(got.centroids[e], want.centroids[e])
            assert got.dc_energy[e] == want.dc_energy[e]


def test_support_held_family_and_its_estimate_hold_no_grid_scalar():
    """tracemalloc, counted in grid scalars (16 N bytes), with the bounds fixed before measuring: const-trajectory's
    family at full size holds 3 rows of 64 x 3 values per scale on that scale's support, 9/8192 of a grid scalar,
    so both scales are below half of one; a time-windowed estimate of it, with no lattice cached, builds and caches
    its scales' two support lattices alone and holds them, its spectra and the bins, below one grid scalar."""
    grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 16, 16, 32))
    sphere, unit = SphereGrid(10, 8, 16), 16 * grid.num_points
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fam = _const_trajectory_family(grid)
        made = tracemalloc.get_traced_memory()[0] - start
        _lattice_bins.cache_clear()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        est = estimate_hmeasure(fam, time_subwindow(grid, 0.5, 0.25), sphere)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert est.metadata["binned_points"] == {"points": 64 * 3, "lattice": "support"}
    assert _lattice_bins.cache_info().currsize == 2
    assert all(u.support.sum() == 3 and u.spectrum.shape == (3, 64, 3) for u in fam.fields.values())
    assert made / unit < 1 / 2
    assert peak / unit < 1


def test_deep_evolved_ladder_bins_its_support_alone():
    """``deep_ladder``'s five scales to eps = 2^-8 on 1024 x 16 x 16 x 256, whose full lattice would be 67M points,
    and its script size, seven scales to eps = 2^-10 on 4096 x 16 x 16 x 1024, with the bounds fixed before
    measuring: the family and its ``full_window`` estimate peak below 8 MB and 24 MB of tracemalloc (a built full
    lattice alone would hold 1.3 GB at the smaller size, an nt x nt complex array 16 MB and 256 MB, and the family
    held on the union of its scales' supports reads 9 MB and 40 MB), each scale bins the nt x 3 points of its own
    support, and the mass-weighted angle from the bin centroids to the limit direction (c, k)/|(c, k)| falls at
    order >= 0.9 per halving of eps."""
    for grid, epsilons, bound_mb in ((TIER1_GRID, TIER1_EPSILONS, 8), (SCRIPT_GRID, SCRIPT_EPSILONS, 24)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fam = deep_family(grid, epsilons)
            est = estimate_hmeasure(fam, full_window(), DEEP_SPHERE)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert est.metadata["binned_points"] == {"points": grid.shape[0] * 3, "lattice": "support"}
        assert all(u.support.sum() == 3 for u in fam.fields.values())
        assert peak < bound_mb * 2**20
        distances = limit_distances(est, fam)
        assert all(np.log2(a / b) >= 0.9 for a, b in zip(distances, distances[1:]))


def test_deep_ladder_builds_each_support_lattice_once():
    """``deep_ladder``'s seven-scale family, estimated under three windows that are one on x1..x3: the seven scales'
    support lattices are built once and read from the cache by the second and third estimates (a cache shorter
    than the ladder, visited in the same order at each estimate, missed on all 21 lookups)."""
    fam = deep_family(SCRIPT_GRID, SCRIPT_EPSILONS)
    _lattice_bins.cache_clear()
    estimates = [estimate_hmeasure(fam, w, DEEP_SPHERE)
                 for w in (full_window(), hann_window(SCRIPT_GRID, axes=(0,)), time_subwindow(SCRIPT_GRID, 0.5, 0.25))]
    assert all(est.metadata["binned_points"]["lattice"] == "support" for est in estimates)
    info = _lattice_bins.cache_info()
    assert (info.misses, info.hits) == (7, 14)


def test_estimator_never_samples_the_full_window(monkeypatch):
    # the window enters through its axis factors: no grid-sized window array is formed
    fam = _family(model=MaterialModel.constant(1.0, 1.0, 0.5))

    def refuse(self, grid):
        raise AssertionError("the window was sampled on the full grid")

    kinds = _count_measures(monkeypatch)
    monkeypatch.setattr(SeparableWindow, "sample", refuse)
    for phi in (hann_window(GRID), time_subwindow(GRID, 0.1, 0.09), full_window()):
        estimate_hmeasure(fam, phi, sphere=SPHERE)
        correlation_measure(fam, source_fields(fam), phi, sphere=SPHERE)
    assert kinds == ["auto", "cross"] * 3


# ----------------------------------------------------------------------- memo

def test_memo_returns_the_live_estimate_of_an_equal_window_and_sphere(monkeypatch):
    fam = _family()
    kinds = _count_measures(monkeypatch)
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    again = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SphereGrid(10, 8, 16))
    assert again is est and kinds == ["auto"]


def test_memo_default_sphere_is_one_entry(monkeypatch):
    fam = _family()
    kinds = _count_measures(monkeypatch)
    phi = hann_window(GRID, axes=(0,))
    est = estimate_hmeasure(fam, phi)
    assert estimate_hmeasure(fam, phi, sphere=SphereGrid()) is est
    assert estimate_hmeasure(fam, phi, sphere=None) is est
    assert kinds == ["auto"]


def test_memo_computes_another_family_window_or_sphere_anew(monkeypatch):
    fam, twin = _family(), _family()  # equal entries, but another family object
    kinds = _count_measures(monkeypatch)
    phi = hann_window(GRID, axes=(0,))
    est = estimate_hmeasure(fam, phi, sphere=SPHERE)
    others = [estimate_hmeasure(twin, phi, sphere=SPHERE),
              estimate_hmeasure(fam, time_subwindow(GRID, 0.1, 0.09), sphere=SPHERE),
              estimate_hmeasure(fam, phi, sphere=SphereGrid(8, 8, 16))]
    assert kinds == ["auto"] * 4
    assert all(other is not est for other in others)
    np.testing.assert_array_equal(others[0].bins, est.bins)  # the twin's estimate is made by the same code


def test_memo_computes_again_once_the_estimate_is_let_go(monkeypatch):
    fam = _family()
    kinds = _count_measures(monkeypatch)
    phi = hann_window(GRID, axes=(0,))
    est = estimate_hmeasure(fam, phi, sphere=SPHERE)
    bins = est.bins
    del est
    gc.collect()
    again = estimate_hmeasure(fam, phi, sphere=SPHERE)
    assert kinds == ["auto"] * 2
    np.testing.assert_array_equal(again.bins, bins)


def test_memo_keeps_no_entry_for_a_dead_family():
    gc.collect()
    before = len(estimator._ESTIMATES)
    fam = _family()
    est = estimate_hmeasure(fam, hann_window(GRID, axes=(0,)), sphere=SPHERE)
    assert len(estimator._ESTIMATES) == before + 1
    alive = weakref.ref(fam)
    del fam  # the estimate outlives its family and keeps neither the family nor its entry alive
    gc.collect()
    assert alive() is None and len(estimator._ESTIMATES) == before
    assert est.bins.shape == (SPHERE.num_bins, 6, 6)


def test_correlation_measure_is_never_memoized(monkeypatch):
    fam = _family()
    kinds = _count_measures(monkeypatch)
    phi, g = hann_window(GRID, axes=(0,)), source_fields(fam)
    first = correlation_measure(fam, g, phi, sphere=SPHERE)
    second = correlation_measure(fam, g, phi, sphere=SPHERE)
    assert second is not first and kinds == ["cross"] * 2


def test_predict_then_compare_reuses_the_callers_estimates(monkeypatch):
    """Through the name ``transport`` binds, predict-and-compare gets the very estimates the caller holds."""
    model = MaterialModel.constant(1.0, 1.0, 0.5)
    fam = _family(model=model)
    t0, t1, width = 0.08, 0.17, 0.08
    held = [estimate_hmeasure(fam, time_subwindow(GRID, t, width), sphere=SPHERE) for t in (t0, t1)]
    made, estimate = [], transport.estimate_hmeasure

    def probe(*args, **kwargs):
        made.append(estimate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(transport, "estimate_hmeasure", probe)
    kinds = _count_measures(monkeypatch)
    rep = predict_then_compare(fam, model, t0, t1, sphere=SPHERE, window_width=width)
    assert len(made) == 2 and all(m is h for m, h in zip(made, held)) and kinds == []
    assert rep.total_mass_t0 == held[0].total_mass() and rep.total_mass_t1 == held[1].total_mass()
