import numpy as np
import pytest
import scipy.linalg

from hml.estimator import SphereGrid, estimate_hmeasure
from hml.grids import AxisWindow, GridSpec, SeparableWindow, full_window, hann_window
from hml.symbols import DomainError, MaterialModel, UnsupportedGeneratorError, assemble_system_matrices
from hml.synthesis import (
    AliasingError,
    FactoredField,
    OscillatingFamily,
    charge_density,
    evolved_family,
    exact_constant_evolution,
    ladder_epsilons,
    linear_phase,
    layered_phase,
    maxwell_residual,
    plane_wave_family,
    wkb_family,
)

GRID = GridSpec(extents=(0.125, 0.125, 0.125, 0.125), shape=(8, 8, 8, 8))
EPS2 = (2.0**-3, 2.0**-4)  # carrier indices 1 and 2 on this box


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
        s = u.s.copy()
        s[0, 1, 3, 4, 5] = value
        arrays[where][fam.finest] = FactoredField(u.V, s)
    else:
        a = np.array(u)
        a[2, 1, 3, 4, 5] = value
        arrays[where][fam.finest] = a
    with pytest.raises(ValueError, match=f"non-finite field or source entry at eps={fam.finest}"):
        OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, **arrays)


# ------------------------------------------------------------- exact evolution

def test_evolution_zero_initial():
    model = MaterialModel.constant(1, 1, 0.7)
    out = exact_constant_evolution(model, np.zeros((6,) + GRID.spatial_shape), GRID)
    assert np.all(out == 0)


def test_evolution_energy_conserved_sigma0():
    model = MaterialModel.constant(2.0, 0.5, 0.0)
    rng = np.random.default_rng(7)
    initial = rng.normal(size=(6,) + GRID.spatial_shape) + 1j * rng.normal(size=(6,) + GRID.spatial_shape)
    out = exact_constant_evolution(model, initial, GRID)
    w = np.array([2.0] * 3 + [0.5] * 3).reshape(6, 1, 1, 1, 1)
    energy = 0.5 * np.sum(w * np.abs(out) ** 2, axis=(0, 2, 3, 4))
    np.testing.assert_allclose(energy, energy[0], rtol=1e-10)


def test_evolution_single_mode_phase_rotation():
    model = MaterialModel.constant()
    fam_ref = _family(envelope=full_window(), epsilons=(EPS2[1],))
    e = EPS2[1]
    initial = np.asarray(fam_ref.fields[e])[:, 0]
    out = exact_constant_evolution(model, initial, GRID)
    np.testing.assert_allclose(out, fam_ref.fields[e], atol=1e-10)


def test_evolution_longitudinal_damping():
    # k = 0 uniform electric field with sigma = 1: dE/dt + E = 0
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    initial = np.zeros((6,) + GRID.spatial_shape, dtype=complex)
    initial[2] = 1.0
    out = exact_constant_evolution(model, initial, GRID)
    t = GRID.axis(0)
    got = out[2, :, 0, 0, 0]
    np.testing.assert_allclose(got, np.exp(-t), rtol=1e-12)
    assert np.max(np.abs(out[[0, 1, 3, 4, 5]])) <= 1e-14


def test_evolved_family_builds_one_propagator(monkeypatch):
    # expm(M dt) does not depend on eps: one matrix exponential serves the whole ladder
    expm, calls = scipy.linalg.expm, []
    monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(m.shape) or expm(m))
    fam = evolved_family(MaterialModel.constant(1.0, 1.0, 0.5), GRID, (0, 0, 1.0), "trans+1", EPS2)
    assert len(calls) == 1 and len(fam.epsilons) == 2
    u0 = fam.fields[fam.finest][:, 0]
    again = exact_constant_evolution(MaterialModel.constant(1.0, 1.0, 0.5), u0, GRID)
    np.testing.assert_allclose(again, fam.fields[fam.finest], rtol=0, atol=1e-13)


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


def test_wkb_residual_bounded_in_eps():
    # layered medium, eikonal-matched phase: no 1/eps growth in the residual
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
    eps_pair = (2.0**-3, 2.0**-4)
    fam = wkb_family(model, grid, phase, amp, "trans+1", eps_pair)
    norms = {
        e: float(np.sqrt(np.sum(np.abs(fam.sources[e]) ** 2) * grid.cell_volume))
        for e in eps_pair
    }
    assert norms[eps_pair[1]] <= 1.5 * norms[eps_pair[0]]


def test_wkb_rejects_vanishing_gradient():
    model = MaterialModel.constant()
    ph = linear_phase((0.0, 0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        wkb_family(model, GRID, ph, hann_window(GRID, axes=(0, 1)), "trans+1", (EPS2[1],))


# ----------------------------------------------------------------- charge

def test_charge_zero_for_magnetic_mode():
    fam = _family(mode="long-h")
    rho = charge_density(fam)
    for e in fam.epsilons:
        assert np.max(np.abs(rho[e])) <= 1e-12


def test_charge_transverse_no_growth():
    fam = _family(mode="trans+1", envelope=hann_window(GRID, axes=(0, 1)))
    rho = charge_density(fam)
    n0 = np.linalg.norm(rho[fam.epsilons[0]])
    n1 = np.linalg.norm(rho[fam.epsilons[1]])
    assert n1 <= 1.2 * n0  # envelope-scale only, no 1/eps factor


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
    fam = _family(epsilons=ladder_epsilons(2, 4), grid=grid, envelope=hann_window(grid, axes=(0, 1)))
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
