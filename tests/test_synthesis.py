import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.interpolate
import scipy.linalg

from hml.estimator import SphereGrid, estimate_hmeasure
from hml.grids import AxisWindow, GridSpec, SeparableWindow, fftn, full_window, hann_window
from hml.symbols import MODE_ORDER, DomainError, MaterialModel, UnsupportedGeneratorError, assemble_P, assemble_system_matrices
from hml import synthesis
from hml.synthesis import (
    AliasingError,
    FactoredField,
    OscillatingFamily,
    _constant_mode,
    _evolve,
    _expm,
    _propagator,
    _spectral_derivative,
    charge_density,
    evolved_family,
    linear_phase,
    layered_phase,
    maxwell_residual,
    plane_wave_family,
    wkb_family,
)
from reference import initial_spectrum_fftn, scatter_ifftn, tensordot_maxwell_residual

GRID = GridSpec(extents=(0.125, 0.125, 0.125, 0.125), shape=(8, 8, 8, 8))
EPS2 = (2.0**-3, 2.0**-4)  # carrier indices 1 and 2 on this box


def _mode_vector(model, k, mode):
    """(b, c) of a constant model's mode, from the generators' shared set-up on a ladder that no carrier aliases on."""
    _, b, c, _, _ = _constant_mode(model, GRID, k, mode, hann_window(GRID), (1.0,), "plane_wave")
    return b, c


def _family(mode="trans+1", model=None, envelope=None, grid=GRID, epsilons=EPS2, k=(0, 0, 1.0)):
    model = model or MaterialModel.constant(1.0, 1.0, 0.0)
    envelope = envelope or hann_window(grid, axes=(0, 1))
    return plane_wave_family(model, grid, k, mode, envelope, epsilons)


# ---------------------------------------------------------------- grid sampling

def _bounded_model(eps_slope=0.0, eta_slope=0.0, domain=None, sigma=0.0):
    """eps = 1 - eps_slope*x1, eta = 1 - eta_slope*x2, both declared >= 0.9, and constant sigma."""
    zero = lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape)
    return MaterialModel.scalar_smooth(
        eps=lambda x1, x2, x3: 1.0 - eps_slope * x1 + zero(x1, x2, x3),
        eta=lambda x1, x2, x3: 1.0 - eta_slope * x2 + zero(x1, x2, x3),
        sigma=lambda x1, x2, x3: sigma + zero(x1, x2, x3),
        grad_eps=lambda x1, x2, x3: np.stack([zero(x1, x2, x3) - eps_slope, zero(x1, x2, x3), zero(x1, x2, x3)]),
        grad_eta=lambda x1, x2, x3: np.stack([zero(x1, x2, x3), zero(x1, x2, x3) - eta_slope, zero(x1, x2, x3)]),
        eps_min=0.9,
        eta_min=0.9,
        domain=domain,
    )


@pytest.mark.parametrize(
    "model, error, match, layer_axis",
    [
        (_bounded_model(eps_slope=2.0), ValueError, "eps falls", 0),
        (_bounded_model(eta_slope=2.0), ValueError, "eta falls", 1),
        (_bounded_model(domain=((0.0, 0.0, 0.0), (0.1, 0.2, 0.2))), DomainError, "outside model domain", 0),
        (_bounded_model(sigma=-1.0), ValueError, "sigma falls", 0),
    ],
    ids=["eps_below_min", "eta_below_min", "box_leaves_domain", "sigma_negative"],
)
def test_grid_sampling_enforces_bounds_and_domain(model, error, match, layer_axis):
    # on GRID's box [0, 0.125)^3, 1 - 2x falls to 0.78 < 0.9, and x1 passes 0.1;
    # layered_phase samples [0, 0.125] along the violating axis, where 1 - 2x reaches 0.75,
    # and the system matrices read the one point (0.125, 0.125, 0.125)
    fam = _family()
    phase = linear_phase((0.0, 0.0, 1.0), -1.0)
    x_max = GRID.extents[1 + layer_axis]
    corner = GRID.extents[1:]
    calls = [
        lambda: maxwell_residual(model, fam.fields[fam.finest], GRID),
        lambda: wkb_family(model, GRID, phase, hann_window(GRID, axes=(0, 1)), "trans+1", EPS2),
        lambda: layered_phase(model, axis=layer_axis, x_max=x_max),
        lambda: assemble_system_matrices(model, corner),
    ]
    for call in calls:
        with pytest.raises(error, match=match):
            call()
    in_bounds = _bounded_model(eps_slope=0.5, eta_slope=0.5)  # 1 - x/2 stays above 0.9
    maxwell_residual(in_bounds, fam.fields[fam.finest], GRID)
    layered_phase(in_bounds, axis=layer_axis, x_max=x_max)
    assemble_system_matrices(in_bounds, corner)


@pytest.mark.parametrize(
    "make, match",
    [(lambda: GridSpec(extents=(np.nan, 1.0, 1.0, 1.0), shape=(8,) * 4), "positive and finite"),
     (lambda: GridSpec(extents=(1.0, np.inf, 1.0, 1.0), shape=(8,) * 4), "positive and finite"),
     (lambda: GridSpec(extents=(1.0,) * 4, shape=(16.9, 8, 8, 8)), "integers"),
     (lambda: GridSpec(extents=(1.0,) * 4, shape=(8, np.nan, 8, 8)), r"integers, not \(8, nan, 8, 8\)"),
     (lambda: GridSpec(extents=(1.0,) * 4, shape=(8, 8, 8, np.inf)), r"integers, not \(8, 8, 8, inf\)"),
     (lambda: SphereGrid(10.5, 8, 16), r"sphere cell counts must be integers, not \(10.5, 8, 16\)"),
     (lambda: SphereGrid(10, np.nan, 16), r"sphere cell counts must be integers, not \(10, nan, 16\)"),
     (lambda: SphereGrid(10, 8, np.inf), r"sphere cell counts must be integers, not \(10, 8, inf\)"),
     (lambda: AxisWindow("hann", 0.0, np.inf), "finite ends"),
     (lambda: AxisWindow("hann", -np.inf, 1.0), "finite ends")],
    ids=["nan_extent", "inf_extent", "fractional_shape", "nan_shape", "inf_shape", "fractional_sphere", "nan_sphere",
         "inf_sphere", "hann_inf_hi", "hann_inf_lo"],
)
def test_invalid_grid_or_window_refused_where_it_enters(make, match):
    # a NaN extent would otherwise surface as an IndexError deep in the estimator's binning, a shape of
    # 16.9 would be read as 16, an inf shape raised OverflowError, and a sphere of 10.5 cells gave a
    # float bin count that failed at its first use with a TypeError
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("shape, axes", [((3, 8, 16, 8), (1, 2, 3)), ((8, 16, 32), (0, 1, 2)),
                                         ((2, 4, 8, 8, 16), (4, 3, 2))], ids=["spectra", "evolved", "evolved-inverse"])
def test_fftn_matches_scipy(shape, axes, rng):
    # the axis sets the estimator's spectra and evolved_family transform over, one numpy.fft pass per axis
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for inverse, ref in ((False, scipy.fft.fftn), (True, scipy.fft.ifftn)):
        want = ref(a, axes=axes)
        got = fftn(a, axes, inverse)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        b = a.copy()
        assert fftn(b, axes, inverse, out=b) is b  # in place: the passes write into b
        np.testing.assert_array_equal(b, got)
        np.testing.assert_allclose(fftn(a.real, axes, inverse), ref(a.real, axes=axes), rtol=0,
                                   atol=1e-14 * np.abs(want).max())


# ------------------------------------------------------------------ plane wave

def test_plane_wave_polarization_matches_eigenvector():
    model = MaterialModel.constant()
    fam = _family(model=model)
    b = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)  # trans+1 along e3: (z1, z2)/sqrt(2), z1 = e1, z2 = e2
    u = np.asarray(fam.fields[fam.finest])
    u0 = u[:, 0, 0, 0, 0]
    # at the origin phase = 0 and envelope value scales the eigenvector
    env = hann_window(GRID, axes=(0, 1)).sample(GRID)[0, 0, 0, 0]
    np.testing.assert_allclose(u0, env * b, atol=1e-14)
    flat = u.reshape(6, -1)
    # common scalar profile on the two nonzero polarization slots (E1, H2)
    np.testing.assert_allclose(flat[0] / b[0], flat[4] / b[4], atol=1e-12)


def test_plane_wave_zero_envelope():
    off_box = SeparableWindow((AxisWindow("hann", 2.0, 3.0),) + (AxisWindow("one"),) * 3)
    fam = _family(envelope=off_box)
    for e in fam.epsilons:
        assert np.all(np.asarray(fam.fields[e]) == 0)
        with pytest.raises(TypeError, match="compare np.asarray"):
            fam.fields[e] == 0  # a factored entry would otherwise answer False by identity


def test_plane_wave_norm_eps_independent():
    env = hann_window(GRID, axes=(0, 1))
    fam = _family(envelope=env)
    expected = np.sum(env.sample(GRID) ** 2) * GRID.cell_volume  # |b| = 1 for eps=eta=1
    for e in fam.epsilons:
        got = np.sum(np.abs(fam.fields[e]) ** 2) * GRID.cell_volume
        assert got == pytest.approx(expected, rel=1e-12)


def test_plane_wave_requires_constant_model(smooth_model):
    with pytest.raises(UnsupportedGeneratorError):
        _family(model=smooth_model)


def test_aliasing_guard():
    model = MaterialModel.constant()
    env = hann_window(GRID, axes=(0, 1))
    k, epsilons = (0, 0, 1.0), (2.0**-6,)
    generators = [
        lambda: plane_wave_family(model, GRID, k, "trans+1", env, epsilons),
        lambda: evolved_family(model, GRID, k, "trans+1", epsilons),
        lambda: wkb_family(model, GRID, linear_phase(k, -1.0), env, "trans+1", epsilons),
    ]
    for make in generators:
        with pytest.raises(AliasingError, match="cells/wavelength"):
            make()


WRAP_GRID = GridSpec(extents=(0.25,) * 4, shape=(32, 8, 8, 32))


@pytest.mark.parametrize("generator, refused", [("plane_wave", (0, 1)), ("evolved", (1,)), ("evolved", None)])
def test_wrap_around_guard(generator, refused):
    # k3 = 1.1 puts 2.2 and 4.4 carrier periods along x3 at eps = 2^-3 and 2^-4: refused where the
    # envelope is 'one' along x3 (evolved's None is 'one' on every spatial axis), admitted under a Hann factor;
    # an evolved family's envelope tapers no time axis
    model, k = MaterialModel.constant(), (0.0, 0.0, 1.1)

    def make(axes):
        env = None if axes is None else hann_window(WRAP_GRID, axes=axes)
        if generator == "plane_wave":
            return plane_wave_family(model, WRAP_GRID, k, "trans+1", env, EPS2)
        return evolved_family(model, WRAP_GRID, k, "trans+1", EPS2, env)

    with pytest.raises(AliasingError, match=r"^eps=0\.125: 2\.2 carrier periods along x3"):
        make(refused)
    assert make((0, 1, 3) if generator == "plane_wave" else (1, 3)).min_cells_per_wavelength() == pytest.approx(32 / 4.4)


@pytest.mark.parametrize("medium", [(1.0, 1.0, 0.0), (2.0, 0.5, 0.3), (1.3, 2.7, 1.0)])
def test_plane_wave_modes_solve_the_eikonal_relation(medium, rng):
    # P(c, k) b = 0 for every mode's (k, b, c), which is why the plane-wave source has no (2 pi i/eps) P b term
    model = MaterialModel.constant(*medium)
    for k in rng.normal(size=(20, 3)):
        for mode in MODE_ORDER:
            b, c = _mode_vector(model, k, mode)
            Pb = assemble_P(model, (0.0, 0.0, 0.0), (c, *k)) @ b
            assert np.linalg.norm(Pb) <= 1e-14 * np.linalg.norm(k)


def test_plane_wave_source_is_envelope_commutator():
    # with a constant envelope and sigma=0 the residual vanishes entirely
    fam = _family(envelope=full_window())
    for e in fam.epsilons:
        assert np.max(np.abs(fam.sources[e])) <= 1e-9
    # windowed envelope: source equals the spectrally measured Maxwell residual
    fam = _family()
    model = MaterialModel.constant()
    e = fam.epsilons[-1]
    res = maxwell_residual(model, np.asarray(fam.fields[e], dtype=np.complex128), fam.grid)
    np.testing.assert_allclose(fam.sources[e], res, atol=1e-8)


@pytest.mark.parametrize("data", ["wkb", "random"])
def test_maxwell_residual_matches_tensordot_reference_bit_for_bit(data, smooth_model, rng):
    # each A^j entry is +-1 and each row it writes reads one component, so adding or subtracting that
    # component's derivative rounds exactly as the matrix product does
    if data == "wkb":
        phase = linear_phase((0.3, -0.5, 0.8), -1.0)
        fam = wkb_family(smooth_model, GRID, phase, hann_window(GRID), "trans+1", EPS2)
        u = np.asarray(fam.fields[fam.finest])
    else:
        u = rng.normal(size=(6,) + GRID.shape) + 1j * rng.normal(size=(6,) + GRID.shape)
    assert np.array_equal(maxwell_residual(smooth_model, u, GRID), tensordot_maxwell_residual(smooth_model, u, GRID))


@pytest.mark.parametrize(
    "where, bad",
    [
        ("sources", lambda fam: {e: np.asarray(f)[:3] for e, f in fam.sources.items()}),
        ("sources", lambda fam: {fam.finest: fam.sources[fam.finest]}),
        ("fields", lambda fam: {fam.epsilons[0]: fam.fields[fam.epsilons[0]]}),
    ],
    ids=["wrong_component_count", "missing_scale", "fields_missing_scale"],
)
def test_family_rejects_malformed_sources(where, bad):
    # a family missing a field scale is refused by name, as one missing a source is
    fam = _family()
    entries = {"fields": fam.fields, "sources": fam.sources, where: bad(fam)}
    with pytest.raises(ValueError, match=f"^{where[:-1]} at eps=.* missing or not of shape"):
        OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, **entries)


@pytest.mark.parametrize(
    "where, factored, value",
    [("fields", False, np.nan), ("sources", False, np.inf), ("fields", True, np.nan)],
    ids=["nan_field", "inf_source", "nan_factor"],
)
def test_family_rejects_non_finite_data(where, factored, value):
    # a NaN entry used to pass, and the estimate's mass and every check downstream read NaN or 0
    fam = _family()
    arrays = {name: dict(getattr(fam, name)) for name in ("fields", "sources")}
    u = arrays[where][fam.finest]
    if factored:
        s = u.scalars().copy()
        s[0, 1, 3, 4, 5] = value
        arrays[where][fam.finest] = FactoredField(u.V, s)
    else:
        a = np.array(u)
        a[2, 1, 3, 4, 5] = value
        arrays[where][fam.finest] = a
    with pytest.raises(ValueError, match=f"non-finite field or source entry at eps={fam.finest}"):
        OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, **arrays)


@pytest.mark.parametrize("where", ["fields", "sources"])
@pytest.mark.parametrize("fault", ["non_finite", "wrong_shape", "nan_axis_factor", "nan_R", "nan_C", "overflow"])
def test_produced_entry_refused_on_read(where, fault):
    # a family reads every entry once, when it is built, and refuses a bad one then; a produced entry is
    # checked through V, its coefficients C and its terms' 1-D axis factors, whose product can overflow
    fam = _family()
    u = getattr(fam, where)[fam.finest]
    if fault == "wrong_shape":
        bad = np.asarray(u)[:3]
    elif fault == "non_finite":
        s = u.scalars().copy()
        s[0, 1, 3, 4, 5] = np.nan
        bad = FactoredField(u.V, s)
    elif fault == "nan_R":
        # V = I with one NaN: every Householder step of the QR is the identity, so Q = I and R holds the NaN
        V = np.eye(6)[:, : u.rank]
        V[0, -1] = np.nan
        bad = FactoredField.from_polarization(V, list(zip(*u.terms)))
    elif fault == "nan_C":
        C = u.C.copy()
        C[-1, -1] = np.nan
        bad = FactoredField(u.V, C=C, terms=u.terms)
    else:
        terms = [a.copy() for a in u.terms]
        if fault == "nan_axis_factor":
            terms[2][-1, 3] = np.nan
        else:
            terms = [np.full_like(a, 1e100) for a in terms]
        bad = FactoredField(u.V, C=u.C, terms=tuple(terms))
    entries = {"fields": dict(fam.fields), "sources": dict(fam.sources)}
    entries[where][fam.finest] = bad
    match = (f"^{where[:-1]} at eps={fam.finest} missing or not of shape" if fault == "wrong_shape"
             else f"non-finite field or source entry at eps={fam.finest}")
    with pytest.raises(ValueError, match=match):
        OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, **entries)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda u: FactoredField(u.V, u.scalars(), C=u.C, terms=u.terms), "exactly one"),
        (lambda u: FactoredField(u.V), "exactly one"),
        (lambda u: FactoredField(u.V, C=u.C[:-1], terms=u.terms), "does not match 4 scalars"),
        (lambda u: FactoredField(u.V, C=u.C, terms=u.terms[:3]), "four 2-D axis-factor arrays"),
        (lambda u: FactoredField(u.V, C=u.C, terms=u.terms[:3] + (u.terms[3][:-1],)), "four 2-D axis-factor arrays"),
        (lambda u: FactoredField(u.V, C=u.C[:, :0], terms=tuple(a[:0] for a in u.terms)),
         "four 2-D axis-factor arrays"),
        (lambda u: FactoredField(2 * u.V, C=u.C, terms=u.terms), "not orthonormal"),
        (lambda u: FactoredField(u.V, C=u.C[:, :-1], terms=u.terms), "do not match 5 produced terms"),
        (lambda u: FactoredField(u.V, C=u.C, terms=tuple(a[0] for a in u.terms)), "four 2-D axis-factor arrays"),
        (lambda u: FactoredField(u.V, terms=u.terms), "come together"),
        (lambda u: FactoredField(u.V, C=u.C), "exactly one"),
    ],
    ids=["held_and_produced", "neither", "row_count", "three_factors", "unlike_rows", "empty_row", "not_orthonormal",
         "coefficient_columns", "one_d_factors", "terms_without_C", "C_without_terms"],
)
def test_factored_field_refuses_malformed_factors(make, match):
    u = _family().sources[EPS2[0]]
    assert u.C.shape == (5, 5) and all(a.shape == (5, 8) for a in u.terms)
    with pytest.raises(ValueError, match=match):
        make(u)


def _plane_wave_closed_form(model, grid, k, mode, envelope, e):
    """env b osc and its envelope commutator sum_l A^l b d_l(env) osc + C b env osc, from 4-D arrays."""
    b, c = _mode_vector(model, k, mode)
    *A, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    t, x1, x2, x3 = grid.meshes()
    osc = np.exp((2j * np.pi / e) * (x1 * k[0] + x2 * k[1] + x3 * k[2] + c * t))
    env = envelope.sample(grid)
    u = b[:, None, None, None, None] * (env * osc)
    f = (C @ b)[:, None, None, None, None] * (env * osc)
    for Al, d in zip(A, envelope.sample_gradient(grid)):
        f = f + (Al @ b)[:, None, None, None, None] * (d * osc)
    return u, f


def test_produced_plane_wave_matches_closed_form():
    # each entry is made from 1-D axis factors and oscillations; it is the 4-D closed form, its one (field) or
    # five (source) terms are held once, and its slabs for a few time slabs, and C times its separated terms
    # there, are those slabs of the closed form's scalars V^H u
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    model, k, envelope = MaterialModel.constant(2.0, 0.5, 0.3), (0.3, -0.5, 0.8), hann_window(grid)
    fam = plane_wave_family(model, grid, k, "trans+1", envelope, EPS2)
    assert type(fam.fields) is dict and type(fam.sources) is dict
    for e in EPS2:
        for got, want in zip((fam.fields[e], fam.sources[e]), _plane_wave_closed_form(model, grid, k, "trans+1",
                                                                                      envelope, e)):
            assert np.abs(np.asarray(got) - want).max() <= 1e-14 * np.abs(want).max()
            s = np.tensordot(got.V.conj().T, want, axes=1)
            C, T, (x1, x2, x3) = got.separated(3, 8)
            K = 1 if got is fam.fields[e] else 5
            assert C.shape == (got.rank, K) and T.shape == (5, K) and [len(x1), len(x2), len(x3)] == [K] * 3
            X = x1[:, :, None, None] * x2[:, None, :, None] * x3[:, None, None, :]
            for j in range(got.rank):
                assert np.abs(got.slabs(j, 3, 8) - s[j, 3:8]).max() <= 1e-14 * np.abs(want).max()
                assert np.abs(np.tensordot(T * C[j], X, axes=1) - s[j, 3:8]).max() <= 1e-14 * np.abs(want).max()


# ------------------------------------------------------------- exact evolution

def _exact_evolution(model, initial, grid, support=None):
    """(6,) + spatial initial data stepped by ``_evolve`` on ``support`` (default: where its spectrum is nonzero).

    Every frequency gets its own 6-vector; the result is the (6,) + grid array.
    """
    spectrum = np.moveaxis(np.fft.fftn(initial, axes=(1, 2, 3)), 0, -1)
    support = spectrum.any(axis=-1) if support is None else support
    stepped = _evolve(model, grid, support, spectrum[support])
    s = np.zeros((stepped.rank,) + grid.shape, dtype=np.complex128)
    s[:, :, support] = stepped.s
    return np.tensordot(stepped.V, np.fft.ifftn(s, axes=(2, 3, 4)), axes=1)


def test_evolution_zero_initial():
    model = MaterialModel.constant(1, 1, 0.7)
    out = _exact_evolution(model, np.zeros((6,) + GRID.spatial_shape), GRID)
    assert np.all(out == 0)


def test_evolution_energy_conserved_sigma0():
    model = MaterialModel.constant(2.0, 0.5, 0.0)
    rng = np.random.default_rng(7)
    initial = rng.normal(size=(6,) + GRID.spatial_shape) + 1j * rng.normal(size=(6,) + GRID.spatial_shape)
    out = _exact_evolution(model, initial, GRID)
    w = np.array([2.0] * 3 + [0.5] * 3).reshape(6, 1, 1, 1, 1)
    energy = 0.5 * np.sum(w * np.abs(out) ** 2, axis=(0, 2, 3, 4))
    np.testing.assert_allclose(energy, energy[0], rtol=1e-10)


def test_evolution_single_mode_phase_rotation():
    model = MaterialModel.constant()
    fam_ref = _family(envelope=full_window(), epsilons=(EPS2[1],))
    e = EPS2[1]
    initial = np.asarray(fam_ref.fields[e])[:, 0]
    out = _exact_evolution(model, initial, GRID)
    np.testing.assert_allclose(out, fam_ref.fields[e], atol=1e-10)


def test_evolution_longitudinal_damping():
    # k = 0 uniform electric field with sigma = 1: dE/dt + E = 0
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    initial = np.zeros((6,) + GRID.spatial_shape, dtype=complex)
    initial[2] = 1.0
    out = _exact_evolution(model, initial, GRID)
    t = GRID.axis(0)
    got = out[2, :, 0, 0, 0]
    np.testing.assert_allclose(got, np.exp(-t), rtol=1e-12)
    assert np.max(np.abs(out[[0, 1, 3, 4, 5]])) <= 1e-14


def test_evolved_family_builds_one_propagator(monkeypatch):
    # expm(M dt) and the stepped polarization do not depend on eps: one matrix exponential, at the support's
    # frequencies only (the data are constant along x1 and x2, so the carrier frequency of each scale on the xi3
    # line, 2 in all), and one stepping serve the whole ladder; each scale is the stepped mode times its own
    # scalar spectrum, which stepping that scale's t = 0 data, b exp(2 pi i x3/eps), again reproduces
    expm, calls = synthesis._expm, []
    monkeypatch.setattr(synthesis, "_expm", lambda m: calls.append(m.shape) or expm(m))
    evolve, steps = synthesis._evolve, []
    monkeypatch.setattr(synthesis, "_evolve", lambda *args: steps.append(args) or evolve(*args))
    model = MaterialModel.constant(1.0, 1.0, 0.5)
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2)
    assert calls == [(2, 6, 6)] and len(steps) == 1 and len(fam.epsilons) == 2
    b, _ = _mode_vector(model, (0, 0, 1.0), "trans+1")
    x3 = np.broadcast_to(GRID.spatial_meshes()[2], GRID.spatial_shape)
    for e in fam.epsilons:
        u0 = np.asarray(fam.fields[e])[:, 0]
        np.testing.assert_allclose(u0, b[:, None, None, None] * np.exp((2j * np.pi / e) * x3), rtol=0, atol=1e-13)
        again = _exact_evolution(model, u0, GRID)
        np.testing.assert_allclose(again, fam.fields[e], rtol=0, atol=1e-13)


@pytest.mark.parametrize("grid", [GRID, GridSpec(extents=(0.125, 0.25, 0.125, 0.5), shape=(8, 8, 16, 32))],
                         ids=["cubic", "non-cubic"])
def test_propagator_matches_per_frequency_expm(grid):
    # one exponential per frequency of the support, in np.nonzero order: the same numbers as a loop of
    # single-matrix _expm calls, on the whole lattice and on a partial support
    model = MaterialModel.constant(2.0, 0.5, 0.3)
    A0, *_, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    xi = np.meshgrid(*(grid.freq_axis(1 + j) for j in range(3)), indexing="ij")
    P = assemble_P(model, (0.0, 0.0, 0.0), np.stack([np.zeros_like(xi[0]), *xi], axis=-1))
    M = -np.linalg.inv(A0) @ (2j * np.pi * P + C) * grid.spacing[0]
    want = np.empty_like(M)
    for i in np.ndindex(grid.spatial_shape):
        want[i] = _expm(M[i])
    assert np.array_equal(_propagator(model, grid, np.ones(grid.spatial_shape, bool)), want.reshape(-1, 6, 6))
    support = np.random.default_rng(5).random(grid.spatial_shape) < 0.3
    assert np.array_equal(_propagator(model, grid, support), want[support])


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 5.5, 10.0, 20.0])
def test_expm_matches_scipy(norm, rng):
    # degree-13 Pade with per-matrix scaling and squaring: one squaring from ||A||_1 = 5.37 on, two at 20
    A = rng.normal(size=(40, 6, 6)) + 1j * rng.normal(size=(40, 6, 6))
    A *= norm / np.abs(A).sum(axis=-2).max(axis=-1)[:, None, None]
    got = _expm(A)
    for g, a in zip(got, A):
        want = scipy.linalg.expm(a)
        assert np.linalg.norm(g - want) <= 1e-14 * np.linalg.norm(want)
    # a stack's exponentials are the same bits as one matrix at a time, whatever the other norms
    mixed = A * np.geomspace(1e-3, 20.0 / norm, len(A))[:, None, None]
    assert all(np.array_equal(g, _expm(a)) for g, a in zip(_expm(mixed), mixed))


def test_expm_closed_forms():
    d = np.array([0.5, -1.0, 2.0 + 1j, 0.0, 3.0, -7.0])
    np.testing.assert_allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)
    # the rotation generator [[0, -a], [a, 0]] exponentiates to [[cos a, -sin a], [sin a, cos a]]
    for a in (1e-3, 0.7, 2.5, 12.0):
        c, s = np.cos(a), np.sin(a)
        np.testing.assert_allclose(_expm(np.array([[0.0, -a], [a, 0.0]])), [[c, -s], [s, c]], rtol=0, atol=4e-15)
    # a zero matrix takes no squaring: the approximant's one solve, to a unit in the last place
    np.testing.assert_allclose(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)), rtol=0, atol=2e-16)


def test_evolved_family_refuses_a_time_taper():
    # the envelope shapes the t = 0 data only, so a time taper would be dropped: it is refused, by name
    model, k = MaterialModel.constant(1.0, 1.0, 0.5), (0, 0, 1.0)
    with pytest.raises(ValueError, match=r"time factor must be 'one', not \{'kind': 'hann'"):
        evolved_family(model, GRID, k, "trans+1", EPS2, hann_window(GRID))
    env = hann_window(GRID, axes=(1, 2))
    assert evolved_family(model, GRID, k, "trans+1", EPS2, env).metadata["envelope"] == env.describe()
    assert evolved_family(model, GRID, k, "trans+1", EPS2).metadata["envelope"] == full_window().describe()


LONG_E_GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(32, 8, 8, 16))


def _long_e_family():
    """const-trajectory's family at a small size: long-e along e3, damped, an envelope along x1 only."""
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    return evolved_family(model, LONG_E_GRID, (0, 0, 1.0), "long-e", EPS2, hann_window(LONG_E_GRID, axes=(1,)))


@pytest.mark.parametrize("initial", ["const-trajectory", "random"])
def test_support_evolution_matches_full_support(initial):
    # stepping only where the initial spectrum is nonzero gives the full-support evolution bit for bit
    grid = LONG_E_GRID
    if initial == "random":
        model = MaterialModel.constant(2.0, 0.5, 0.3)
        rng = np.random.default_rng(11)
        u0 = rng.normal(size=(6,) + grid.spatial_shape) + 1j * rng.normal(size=(6,) + grid.spatial_shape)
    else:
        model = MaterialModel.constant(1.0, 1.0, 1.0)
        fam = _long_e_family()
        u0 = np.asarray(fam.fields[fam.finest])[:, 0]
    support = np.fft.fftn(u0, axes=(1, 2, 3)).any(axis=0)
    full = _exact_evolution(model, u0, grid, np.ones(grid.spatial_shape, bool))
    got = _exact_evolution(model, u0, grid)
    assert np.array_equal(got, full)
    # const-trajectory's initial spectrum lies in the xi2 = 0 plane; random data have no exact spectral zero
    assert support.all() if initial == "random" else support[:, 0].any() and not support[:, 1:].any()


def test_evolved_family_drops_zero_components():
    # long-e along e3 with an envelope along x1 moves only E1, E3 and H2; E2, H1 and H3 are exactly zero
    fam = _long_e_family()
    for e in fam.epsilons:
        u = fam.fields[e]
        assert isinstance(u, FactoredField)
        np.testing.assert_array_equal(u.V, np.eye(6)[:, [0, 2, 4]])
        assert np.all(np.asarray(u)[[1, 3, 5]] == 0) and all(np.any(s) for s in u.scalars())


def _oblique_family():
    """An evolved family that oscillates along every spatial axis: its carrier counts along x1 and x3 are not
    integral, so its support takes those axes whole, times 3 xi2 per scale of its Hann factor along x2 (the long-e
    family's is 3 xi1 of its Hann factor at xi2 = 0 and one xi3 per scale)."""
    return evolved_family(MaterialModel.constant(2.0, 0.5, 0.3), GRID, (0.3, -0.5, 0.8), "trans+1", EPS2,
                          hann_window(GRID, axes=(1, 2, 3)))


SUPPORT_HELD = {"long-e": _long_e_family, "oblique-trans+1": _oblique_family}


@pytest.mark.parametrize("name", SUPPORT_HELD)
def test_support_held_fields_match_scatter_ifftn(name):
    # an evolved family holds each scale's spectrum on that scale's own support, so no two scales' supports are
    # equal; every physical read of it is the field that the whole-array scatter and inverse FFT make
    # (reference.scatter_ifftn), bit for bit: materialised, as scalars, and as the slabs of any time range
    fam = SUPPORT_HELD[name]()
    nt = fam.grid.shape[0]
    assert len({u.support.tobytes() for u in fam.fields.values()}) == len(fam.epsilons)
    for e in fam.epsilons:
        u = fam.fields[e]
        assert u.s is None and u.terms is None and u.spectrum.shape == (u.rank, nt, np.count_nonzero(u.support))
        want = scatter_ifftn(u.V, u.spectrum, u.support, fam.grid)
        assert np.array_equal(np.asarray(u), np.asarray(want)) and np.array_equal(u.scalars(), want.s)
        for j in range(u.rank):
            for lo, hi in ((0, nt), (1, 4), (nt - 1, nt)):
                assert np.array_equal(u.slabs(j, lo, hi), want.s[j, lo:hi])
            assert np.array_equal(u.spatial_spectrum(j, 1, 4), u.spectrum[j, 1:4])


@pytest.mark.parametrize("name", SUPPORT_HELD)
def test_charge_of_support_held_field_stays_on_its_support(name):
    # rho^ = sum_j 2 pi i xi_j V_j s^ on the field's own support, against the full-grid spectral divergence of the
    # materialised field (bound fixed at 1e-13 of the maximum before measuring, as for a plane wave's rho)
    fam = SUPPORT_HELD[name]()
    rho = charge_density(fam)
    for e in fam.epsilons:
        u = np.asarray(fam.fields[e])
        want = sum(_spectral_derivative(u[j][None], fam.grid, 1 + j) for j in range(3))
        assert rho[e].support is fam.fields[e].support and rho[e].shape == (1,) + fam.grid.shape
        assert np.abs(np.asarray(rho[e]) - want).max() <= 1e-13 * np.abs(want).max()


# (grid, k, mode, envelope axes); counts of at most 2 periods per axis, as on the benchmark's grids: the reference's
# own carrier rounding grows with the phase 2 pi count (1.03e-15 of the peak at counts 2, 8 and 2 on 16, 32, 16)
CLOSED_FORM_CASES = {
    "long-e": (LONG_E_GRID, (0, 0, 1.0), "long-e", (1,)),
    "plane": (GRID, (0, 0, 1.0), "trans+1", ()),
    "oblique": (GRID, (0.3, -0.5, 0.8), "trans+1", (1, 2, 3)),
    "integral-hann": (GridSpec(extents=(0.25, 0.125, 0.25, 0.125), shape=(32, 16, 16, 16)), (-1.0, 0.5, 1.0), "trans+1",
                      (1, 2, 3)),
}


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_closed_form_support_matches_fftn_of_the_sampled_data(name):
    """Each scale's t = 0 scalar spectrum, read off the envelope's axis factors, against the 3-D FFT of the sampled
    initial data (``reference.initial_spectrum_fftn``), with the bounds fixed before measuring: on the support
    within 1e-15 of the peak, and every frequency off it below 1e-15 of the peak.  A "one" factor is one frequency
    and a Hann factor spanning its axis at an integral count three, so the support is their product; an axis
    whose count is not integral is whole.  Each scale is held on its own support."""
    grid, k, mode, axes = CLOSED_FORM_CASES[name]
    model = MaterialModel.constant(2.0, 0.5, 0.3)
    envelope = hann_window(grid, axes=axes)
    fam = evolved_family(model, grid, k, mode, EPS2, envelope)
    b, _ = _mode_vector(model, k, mode)
    # the oblique family's x2 count is -1/2 at the coarse scale, not integral, so that scale takes x2 whole
    sizes = {"long-e": (3, 3), "plane": (1, 1), "oblique": (8 * 8 * 8, 8 * 3 * 8), "integral-hann": (27, 27)}
    assert tuple(int(u.support.sum()) for u in fam.fields.values()) == sizes[name]
    for e in fam.epsilons:
        u, support = fam.fields[e], fam.fields[e].support
        got = np.tensordot(u.V, u.spectrum[:, 0], axes=1)  # b times the scalar spectrum on the support
        want = initial_spectrum_fftn(grid, k, envelope, e)
        peak = np.abs(want).max()
        assert np.abs(got - b[:, None] * want[support]).max() <= 1e-15 * peak
        assert np.abs(want[~support]).max(initial=0.0) <= 1e-15 * peak
        # no support column is an exact zero: a scale holds no frequency that only another scale reaches
        assert np.any(u.spectrum[:, 0] != 0, axis=0).all()


def test_axis_spectrum_closed_forms_and_fallback():
    # closed forms at an integral count: n at the count for "one", n/2 at the count and -n/4 beside it for a Hann
    # factor spanning the axis (the count's index wraps); a Hann factor on part of the axis, or any count that is
    # not integral, takes the whole axis with the values of its 1-D FFT
    grid = GridSpec(extents=(1.0, 0.5, 0.25, 0.25), shape=(8, 16, 8, 8))
    n = 16
    dft, at = synthesis._axis_spectrum(AxisWindow("one"), grid, 1, -3.0)
    np.testing.assert_array_equal(at, [13])
    np.testing.assert_array_equal(dft, np.where(np.arange(n) == 13, n, 0))
    dft, at = synthesis._axis_spectrum(AxisWindow("hann", 0.0, 0.5), grid, 1, 0.0)
    np.testing.assert_array_equal(at, [15, 0, 1])
    np.testing.assert_array_equal(dft[at], [-n / 4, n / 2, -n / 4])
    assert np.count_nonzero(dft) == 3
    x = grid.axis(1)
    for factor, count in ((AxisWindow("hann", 0.05, 0.45), 2.0), (AxisWindow("hann", 0.0, 0.5), 2.5),
                          (AxisWindow("one"), 2.5)):
        dft, at = synthesis._axis_spectrum(factor, grid, 1, count)
        np.testing.assert_array_equal(at, np.arange(n))
        np.testing.assert_array_equal(dft, np.fft.fft(factor(x) * np.exp((2j * np.pi * count / 0.5) * x)))


def test_evolved_family_forms_no_grid_array_and_no_3d_fft(monkeypatch):
    # the initial spectrum is read off the envelope's axis factors: no transform over more than one axis, and, on
    # const-trajectory's full-size grid, a warm call's tracemalloc peak below one spatial complex array; the
    # boolean supports (one per scale and their union) are its only 3-D arrays.  What it holds is frequency data:
    # the stepped 6-vectors on the union's nt x 6 points, about 0.3 of that array here, and its entries (2 scales x
    # 3 rows of nt x 3)
    def refuse(*args, **kwargs):
        raise AssertionError("a multi-axis transform was made")

    monkeypatch.setattr(synthesis, "fftn", refuse)
    monkeypatch.setattr(np.fft, "fftn", refuse)
    grid = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 16, 16, 32))
    model = MaterialModel.constant(1.0, 1.0, 1.0)

    def make():
        return evolved_family(model, grid, (0, 0, 1.0), "long-e", EPS2, hann_window(grid, axes=(1,)))

    make()  # a first call also makes NumPy's one-time allocations
    tracemalloc.start()
    try:
        fam = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(u.support.sum() == 3 for u in fam.fields.values())
    assert peak < 16 * np.prod(grid.spatial_shape)


def test_support_held_field_refuses_malformed_spectrum():
    fam = _long_e_family()
    u = fam.fields[EPS2[0]]
    V, spectrum, support = u.V, u.spectrum, u.support
    for make, match in [
        (lambda: FactoredField(V, spectrum=spectrum), "come together"),
        (lambda: FactoredField(V, support=support), "exactly one"),
        (lambda: FactoredField(V, u.scalars(), spectrum=spectrum, support=support), "exactly one"),
        (lambda: FactoredField(V, spectrum=spectrum[:, :, 1:], support=support), "one value per time and true entry"),
        (lambda: FactoredField(V, spectrum=spectrum, support=support.astype(int)), "3-D boolean support"),
        (lambda: FactoredField(V[:, :2], spectrum=spectrum, support=support), "does not match"),
    ]:
        with pytest.raises(ValueError, match=match):
            make()
    # the family's one check reads the held spectrum, never the field
    bad = spectrum.copy()
    bad[1, 3, 2] = np.nan
    fields = {EPS2[0]: FactoredField(V, spectrum=bad, support=support), EPS2[1]: fam.fields[EPS2[1]]}
    with pytest.raises(ValueError, match=f"non-finite field or source entry at eps={EPS2[0]}"):
        OscillatingFamily(grid=fam.grid, epsilons=EPS2, fields=fields)


def test_evolved_family_source_free_metadata():
    model = MaterialModel.constant()
    fam = evolved_family(model, GRID, (0, 0, 1.0), "trans+1", EPS2)
    assert fam.sources is None
    assert fam.metadata["generator"] == "evolved"
    assert fam.min_cells_per_wavelength() >= 4.0


# --------------------------------------------------------------------- WKB

def test_wkb_linear_phase_reduces_to_plane_wave():
    model = MaterialModel.constant()
    env = hann_window(GRID, axes=(0, 1))
    k = np.array([0.0, 0.0, 1.0])
    pw = plane_wave_family(model, GRID, k, "trans+1", env, (EPS2[1],))
    ph = linear_phase(k, -1.0)  # c = -v|k| with v = 1
    wk = wkb_family(model, GRID, ph, env, "trans+1", (EPS2[1],))
    e = EPS2[1]
    np.testing.assert_allclose(wk.fields[e], pw.fields[e], atol=1e-12)
    np.testing.assert_allclose(wk.sources[e], pw.sources[e], atol=1e-8)


def _layered_model(b=0.8):
    """eps = (1 + b x1)^2, eta = 1: the speed 1/(1 + b x1) varies along x1 only."""

    def eps_f(x1, x2, x3):
        return (1.0 + b * x1) ** 2 + 0.0 * (x2 + x3)

    def grad_eps(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = np.zeros((3,) + shape)
        g[0] = 2.0 * b * (1.0 + b * x1)
        return g

    return MaterialModel.scalar_smooth(
        eps=eps_f,
        eta=lambda x1, x2, x3: np.ones(np.broadcast(x1, x2, x3).shape),
        sigma=lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape),
        grad_eps=grad_eps,
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=1.0,
        eta_min=1.0,
    )


def test_wkb_residual_bounded_in_eps():
    # layered medium, eikonal-matched phase: no 1/eps growth in the residual
    model = _layered_model()
    grid = GridSpec(extents=(0.25, 0.25, 0.25, 0.25), shape=(16, 32, 8, 8))
    phase = layered_phase(model, axis=0, sign="+", x_max=0.25)
    amp = hann_window(grid, axes=(0, 1))
    eps_pair = (2.0**-3, 2.0**-4)
    fam = wkb_family(model, grid, phase, amp, "trans+1", eps_pair)
    norms = {
        e: float(np.sqrt(np.sum(np.abs(fam.sources[e]) ** 2) * grid.cell_volume))
        for e in eps_pair
    }
    assert norms[eps_pair[1]] <= 1.5 * norms[eps_pair[0]]


def test_layered_phase_fourth_order_between_nodes(linear_speed_model, monkeypatch):
    """The travel-time table on 8 .. 64 cells against q = ln(1 + 0.8 x)/0.8, read between its nodes."""
    x = np.linspace(0.0, 1.0, 4097)
    errs = []
    for cells in (8, 16, 32, 64):
        monkeypatch.setattr(synthesis, "LAYER_QUADRATURE_CELLS", cells)
        phase = layered_phase(linear_speed_model, axis=0, sign="+", x_max=1.0)
        errs.append(np.abs(phase.value(0.0, x, 0.0, 0.0) - np.log1p(0.8 * x) / 0.8).max())
    errs = np.array(errs)
    assert np.all(np.log2(errs[:-1] / errs[1:]) >= 3.5)  # 3.78, 3.88, 3.94; np.interp gave 1.9-2.0


@pytest.mark.parametrize("cells", [64, 4096])
def test_layered_phase_matches_scipy_table_and_spline(linear_speed_model, monkeypatch, cells):
    # the Simpson table and cubic Hermite pieces are SciPy's cumulative_simpson and CubicHermiteSpline
    # on the same nodes and slopes 1/v, at the nodes and between them
    monkeypatch.setattr(synthesis, "LAYER_QUADRATURE_CELLS", cells)
    phase = layered_phase(linear_speed_model, axis=0, sign="+", x_max=1.0)
    s = np.linspace(0.0, 1.0, cells + 1)
    slope = 1.0 / linear_speed_model.speed(s, 0.0 * s, 0.0 * s)[0]
    table = np.concatenate([[0.0], scipy.integrate.cumulative_simpson(slope, x=s)])
    x = np.concatenate([s, np.random.default_rng(3).uniform(0.0, 1.0, 2000)])
    want = scipy.interpolate.CubicHermiteSpline(s, table, slope)(x)
    np.testing.assert_allclose(phase.value(0.0, x, 0.0, 0.0), want, rtol=1e-14, atol=0)


def test_layered_phase_refuses_an_axis_or_x_max_out_of_range():
    # axis=-1 was read as x3 with 1/v written into dS/dt (value 0.6, gradient (2, 0, 0, 0) at (0, .1, .2, .3)),
    # axis=3 failed on a bare IndexError and x_max=0 gave NaN after a divide-by-zero warning
    model = MaterialModel.constant(4.0, 1.0, 0.0)  # v = 1/2
    phase = layered_phase(model, axis=2)
    assert phase.value(0.0, 0.1, 0.2, 0.3) == pytest.approx(0.6, rel=1e-12)
    assert [float(g) for g in phase.grad(0.0, 0.1, 0.2, 0.3)] == pytest.approx([-1.0, 0.0, 0.0, 2.0], rel=1e-12)
    for kwargs in ({"axis": -1}, {"axis": 3}, {"x_max": 0.0}, {"x_max": -1.0}, {"x_max": np.inf}, {"x_max": np.nan}):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=rf"^{name} must be .*not {kwargs[name]!r}$"):
            layered_phase(model, **kwargs)


def test_layered_phase_refuses_coordinates_beyond_its_table():
    # the travel-time table spans [0, x_max]: past it the value would extrapolate the table's last cubic piece
    # while the gradient kept reading 1/v = 1 + 0.8 x1, so a WKB family on a wider grid would not match
    model = _layered_model()
    phase = layered_phase(model, axis=0, sign="+", x_max=0.25)
    wide = GridSpec(extents=(0.25, 1.0, 0.25, 0.25), shape=(16, 64, 8, 8))
    match = r"x1 leaves \[0, 0\.25\]"
    with pytest.raises(ValueError, match=match):
        wkb_family(model, wide, phase, hann_window(wide, axes=(0, 1)), "trans+1", (2.0**-3, 2.0**-4))
    t, x1, x2, x3 = wide.meshes()
    for read in (phase.value, phase.grad):
        with pytest.raises(ValueError, match=match):
            read(t, x1, x2, x3)
        with pytest.raises(ValueError, match=match):
            read(0.0, -0.01, 0.0, 0.0)
    # the table's ends are inside: x1 = x_max reads q(x_max) and 1/v(x_max)
    ends = np.array([0.0, 0.25])
    np.testing.assert_allclose(phase.value(0.0, ends, 0.0, 0.0), [0.0, 0.275], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(phase.grad(0.0, ends, 0.0, 0.0)[1], [1.0, 1.2], rtol=1e-12)


def test_wkb_rejects_vanishing_gradient():
    model = MaterialModel.constant()
    ph = linear_phase((0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        wkb_family(model, GRID, ph, hann_window(GRID, axes=(0, 1)), "trans+1", (EPS2[1],))


# ----------------------------------------------------------------- charge

def test_charge_zero_for_magnetic_mode():
    # E is identically zero (V[:3] exactly zero): rho is the rank-zero entry, with no term to transform
    fam = _family(mode="long-h")
    assert not fam.fields[fam.finest].V[:3].any()
    rho = charge_density(fam)
    for e in fam.epsilons:
        assert rho[e].rank == 0 and rho[e].shape == (1,) + GRID.shape
        assert np.max(np.abs(rho[e])) <= 1e-12


def test_charge_transverse_no_growth():
    fam = _family(mode="trans+1", envelope=hann_window(GRID, axes=(0, 1)))
    rho = charge_density(fam)
    n0 = np.linalg.norm(rho[fam.epsilons[0]])
    n1 = np.linalg.norm(rho[fam.epsilons[1]])
    assert n1 <= 1.2 * n0  # envelope-scale only, no 1/eps factor


@pytest.mark.parametrize("mode, k", [("trans+1", (0.3, -0.5, 0.8)), ("long-e", (0, 0, 1.0))],
                         ids=["oblique-trans+1", "long-e"])
def test_charge_from_line_factors_matches_grid_divergence(mode, k):
    # a plane wave's rho differentiates one 1-D factor per term; against the full-grid spectral divergence
    # of the materialised field, at both scales (bound fixed at 1e-13 of the maximum before measuring)
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    fam = plane_wave_family(MaterialModel.constant(2.0, 0.5, 0.3), grid, k, mode, hann_window(grid), EPS2)
    rho = charge_density(fam)
    for e in fam.epsilons:
        u = np.asarray(fam.fields[e])
        want = sum(_spectral_derivative(u[j][None], grid, 1 + j) for j in range(3))
        assert rho[e].s is None and rho[e].shape == (1,) + grid.shape
        assert np.abs(np.asarray(rho[e]) - want).max() <= 1e-13 * np.abs(want).max()


def test_charge_skips_zero_rows(monkeypatch):
    # a held field's rho is formed on the grid: E2 is identically zero, so two derivative pairs per scale,
    # and the sum over all three rows bit for bit; the held field is the long-e family's, formed on the grid
    evolved = _long_e_family()
    fam = OscillatingFamily(grid=evolved.grid, epsilons=evolved.epsilons,
                            fields={e: FactoredField(u.V, u.scalars()) for e, u in evolved.fields.items()})
    want = {}
    for e in fam.epsilons:
        u = np.asarray(fam.fields[e])
        assert not u[1].any()
        want[e] = np.zeros((1,) + fam.grid.shape, dtype=np.complex128)
        for j in range(3):
            want[e] += _spectral_derivative(u[j][None], fam.grid, 1 + j)
    calls = []
    monkeypatch.setattr(synthesis, "_spectral_derivative",
                        lambda a, g, ax: calls.append(ax) or _spectral_derivative(a, g, ax))
    rho = charge_density(fam)
    assert calls == [1, 3] * len(fam.epsilons)
    for e in fam.epsilons:
        assert np.array_equal(rho[e], want[e])


def test_charge_longitudinal_leading_term():
    env = hann_window(GRID, axes=(0, 1))  # constant along the oscillation axis
    fam = _family(mode="long-e", envelope=env)
    rho = charge_density(fam)
    for e in fam.epsilons:
        lead = 2 * np.pi / e
        got = np.linalg.norm(rho[e])
        want = lead * np.linalg.norm(np.asarray(fam.fields[e])[2])
        assert got == pytest.approx(want, rel=1e-10)


# ------------------------------------------------------------ weak-null proxy

def test_weak_null_proxy_decays():
    # |<u^eps, w>| = sqrt(box_volume * |dc_energy|): the estimate's zero-frequency mass
    grid = GridSpec((0.5,) * 4, (32, 8, 8, 32))
    fam = _family(epsilons=(2.0**-2, 2.0**-3, 2.0**-4), grid=grid, envelope=hann_window(grid, axes=(0, 1)))
    windows = [
        hann_window(grid),
        hann_window(grid, margin=0.1),
        hann_window(grid, axes=(0,)),
        hann_window(grid, axes=(1, 2, 3)),
        hann_window(grid, axes=(0, 1), margin=0.05),
    ]
    eps = np.asarray(fam.epsilons)
    for w in windows:
        dc = estimate_hmeasure(fam, w, sphere=SphereGrid(2, 2, 2)).dc_energy
        col = np.sqrt(grid.box_volume * np.abs([dc[e] for e in fam.epsilons]))
        assert np.all(col[1:] <= col[:-1] + 1e-12)
        assert np.all(col <= 10.0 * eps)
