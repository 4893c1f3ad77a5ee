import dataclasses
import json

import numpy as np
import pytest

from hml.estimator import SphereGrid, estimate_hmeasure
from hml.grids import GridSpec, hann_window
from hml.symbols import DomainError, MaterialModel
from hml import transport
from hml.synthesis import evolved_family, linear_phase, wkb_family
from hml.transport import (
    DensityTrajectory,
    constant_transport_residual,
    divergence_constraint_residual,
    integrate_rays,
    predict_then_compare,
    sphere_gradient,
    time_subwindow,
    variable_transport_residual,
)
from hml.verifier import fit_constant_decomposition, localisation_residual, support_check


def quadratic_speed_model(c1=1.0):
    """eps(x) = 1 + c1*x1^2, eta = 1; v decreases with |x1|."""

    def eps(x1, x2, x3):
        return 1.0 + c1 * x1**2 + 0.0 * (x2 + x3)

    def grad_eps(x1, x2, x3):
        shape = np.broadcast(x1, x2, x3).shape
        g = np.zeros((3,) + shape)
        g[0] = 2.0 * c1 * np.asarray(x1)
        return g

    return MaterialModel.scalar_smooth(
        eps=eps,
        eta=lambda x1, x2, x3: np.ones(np.broadcast(x1, x2, x3).shape),
        sigma=lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape),
        grad_eps=grad_eps,
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=0.9,
        eta_min=0.9,
    )


def layered_model():
    """eps(x) = (1 + 0.8*x1)^2, eta = 1, sigma = 0: the smooth-rays medium without damping."""
    b = 0.8

    def grad_eps(x1, x2, x3):
        g = np.zeros((3,) + np.broadcast(x1, x2, x3).shape)
        g[0] = 2.0 * b * (1.0 + b * x1)
        return g

    return MaterialModel.scalar_smooth(
        eps=lambda x1, x2, x3: (1.0 + b * x1) ** 2 + 0.0 * (x2 + x3),
        eta=lambda x1, x2, x3: np.ones(np.broadcast(x1, x2, x3).shape),
        sigma=lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape),
        grad_eps=grad_eps,
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=1.0,
        eta_min=1.0,
    )


def seeded_directions(n, seed=0):
    """(n, 4) seeded unit 4-directions (zeta0, zeta')."""
    dirs = np.random.default_rng(seed).normal(size=(n, 4))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


# ----------------------------------------------------------------------- rays

def test_rays_straight_for_constant_model():
    model = MaterialModel.constant(2.0, 0.5, 0.0)
    x = np.array([0.1, 0.2, 0.3])
    path = integrate_rays(model, x, [0.0, 0.6, 0.8], (0.0, 1.0))[0]
    np.testing.assert_allclose(path.zetaPs, np.broadcast_to(path.zetaPs[0], path.zetaPs.shape), atol=1e-14)
    v = model.speed_at(x)
    np.testing.assert_allclose(path.xs[-1], x + v * np.array([0.0, 0.6, 0.8]), atol=1e-12)


def test_rays_bend_and_conserve_hamiltonian():
    model = quadratic_speed_model()
    path = integrate_rays(model, [0.2, 0.0, 0.0], [0.0, 1.0, 0.0], (0.0, 1.0))[0]
    # v decreases away from x1 = 0, rays bend toward decreasing v: x1 grows
    drift = np.max(np.abs(path.hamiltonian - path.hamiltonian[0]))
    assert drift <= 1e-8
    assert path.status == "ok"
    assert np.abs(path.zetaPs[-1, 0]) > 1e-3  # direction rotated


def test_rays_reversible():
    model = quadratic_speed_model()
    x = np.array([0.15, -0.1, 0.05])
    dirs = np.vstack([[0.0, 0.3, 0.9, -0.2], seeded_directions(8)])
    fwd = integrate_rays(model, x, dirs[:, 1:], (0.0, 0.7), zeta0=dirs[:, 0])
    ends = np.array([np.concatenate([p.xs[-1], p.zetaPs[-1]]) for p in fwd])
    back = integrate_rays(model, ends[:, :3], ends[:, 3:], (0.7, 0.0), zeta0=dirs[:, 0])
    for zp, path in zip(dirs[:, 1:], back):
        assert np.linalg.norm(path.xs[-1] - x) <= 1e-7
        assert np.linalg.norm(path.zetaPs[-1] - zp) <= 1e-7


def test_ray_leaving_model_domain_raises():
    # the ray moves one unit along x1 from the centre of a box of side 0.1
    model = dataclasses.replace(MaterialModel.constant(), domain=((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))
    x, zp = np.full(3, 0.05), np.array([1.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="outside model domain"):
        integrate_rays(model, x, zp, (0.0, 1.0))
    assert integrate_rays(model, x, zp, (0.0, 0.04))[0].status == "ok"


def test_rays_terminate_near_zero_direction():
    model = MaterialModel.constant()
    path = integrate_rays(model, np.zeros(3), [1e-8, 0, 0], (0.0, 1.0))[0]
    assert path.status == "terminated_small_zetaP"


@pytest.mark.parametrize("branch", ["+", "-"])
def test_ray_batch_matches_single_rays(branch):
    """Rays in one batch step as they do alone; a small-zeta' ray stops without stopping the rest."""
    model = quadratic_speed_model()
    x = np.vstack([np.zeros(3), np.tile([0.1, -0.2, 0.05], (20, 1))])
    dirs = np.vstack([[0.0, 1e-8, 0.0, 0.0], seeded_directions(20)])
    paths = integrate_rays(model, x, dirs[:, 1:], (0.0, 0.5), branch=branch, zeta0=dirs[:, 0])
    assert paths[0].status == "terminated_small_zetaP" and paths[0].times.size == 1
    for xi, d, path in zip(x[1:], dirs[1:], paths[1:]):
        alone = integrate_rays(model, xi, d[1:], (0.0, 0.5), branch=branch, zeta0=d[0])[0]
        assert path.status == alone.status == "ok"
        for name in ("times", "xs", "zetaPs", "hamiltonian"):
            np.testing.assert_array_equal(getattr(path, name), getattr(alone, name))
    assert integrate_rays(model, np.zeros(3), np.empty((0, 3)), (0.0, 0.5), branch=branch) == []


@pytest.mark.parametrize("branch", ["+", "-"])
def test_ray_hamiltonian_drift_in_layered_medium(branch):
    """64 rays from the window centre of the smooth-rays medium keep omega within 1e-8."""
    dirs = seeded_directions(64)
    paths = integrate_rays(layered_model(), (0.125,) * 3, dirs[:, 1:], (1 / 16, 3 / 16), branch=branch,
                           zeta0=dirs[:, 0])
    assert all(p.status == "ok" for p in paths)
    assert max(np.max(np.abs(p.hamiltonian - p.hamiltonian[0])) for p in paths) <= 1e-8


def test_rk4_rays_fourth_order(linear_speed_model, monkeypatch):
    """Successive differences of the end states at RAY_DT = 2^-3 .. 2^-6 over [0, 0.5] shrink 16-fold."""
    zp = np.random.default_rng(0).normal(size=(16, 3))
    ends = []
    for dt in 2.0 ** -np.arange(3, 7):
        monkeypatch.setattr(transport, "RAY_DT", dt)
        paths = integrate_rays(linear_speed_model, (0.2, 0.0, 0.0), zp, (0.0, 0.5))
        ends.append(np.array([np.concatenate([p.xs[-1], p.zetaPs[-1]]) for p in paths]))
    diffs = np.array([np.abs(a - b).max() for a, b in zip(ends, ends[1:])])
    assert np.all(np.log2(diffs[:-1] / diffs[1:]) >= 3.5)  # 4.05 and 4.03


def test_shared_start_broadcasts_bit_for_bit():
    """A shared (3,) position or scalar zeta0 gives the paths of its (n, 3) or (n,) repeat, bit for bit."""
    model = quadratic_speed_model()
    x, dirs = np.array([0.1, -0.2, 0.05]), seeded_directions(12)
    runs = [integrate_rays(model, xs, dirs[:, 1:], (0.0, 0.5), zeta0=z0)
            for xs in (x, np.tile(x, (12, 1))) for z0 in (0.3, np.full(12, 0.3))]
    for paths in runs[1:]:
        for got, want in zip(paths, runs[0], strict=True):
            assert got.status == want.status
            for name in ("times", "xs", "zetaPs", "hamiltonian"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError):  # 4-vectors are refused, not read as 3-vectors
        integrate_rays(model, x, dirs, (0.0, 0.5))


# --------------------------------------------------------- sphere derivatives

def _stacked_gradient(f_bins, sphere):
    """The full zeta'-gradient (3, B): ``sphere_gradient`` along each coordinate axis."""
    parts = [sphere_gradient(f_bins, sphere, e) for e in np.eye(3)]
    return np.stack([g for g, _ in parts]), parts[0][1]


def test_sphere_gradient_matches_analytic():
    sphere = SphereGrid(24, 24, 24)
    centers = sphere.centers()

    def q(v):
        return v[:, 1] * v[:, 3] + 0.5 * v[:, 2] ** 2

    def exact_grad(v):
        # gradient of the 0-homogeneous extension of a degree-2 form
        g = np.stack([v[:, 3], v[:, 2], v[:, 1]], axis=0)
        return g - 2.0 * q(v)[None, :] * v[:, 1:].T

    vals = q(centers)
    grad, valid = _stacked_gradient(vals, sphere)
    err = np.abs(grad - exact_grad(centers))[:, valid].max()
    assert err <= 5e-3
    sphere2 = SphereGrid(48, 48, 48)
    centers2 = sphere2.centers()
    grad2, valid2 = _stacked_gradient(q(centers2), sphere2)
    err2 = np.abs(grad2 - exact_grad(centers2))[:, valid2].max()
    assert err2 <= err / 12.0  # fourth order: 2^4 = 16 at full rate


def test_sphere_gradient_few_phi_cells_keep_three_point_stencil():
    # f = cos(phi) = z1 / rho with rho = |(z1, z2)|; its exact gradient is
    # -sin(phi) (-sin(phi), cos(phi), 0) / rho.  On the pure mode a centred
    # stencil returns the exact derivative times its symbol: sin(h)/h for
    # 3 points, (8 sin h - sin 2h) / (6h) for 5.  With four cells a periodic
    # 5-point rule would return 2/3 of the 3-point value.
    for n_phi in (3, 4, 5, 8):
        sphere = SphereGrid(6, 6, n_phi)
        phi = sphere.centers_angles()[:, 2]
        z = sphere.centers()
        rho = np.hypot(z[:, 1], z[:, 2])
        exact = -np.sin(phi) * np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)]) / rho
        h = sphere.widths[2]
        symbol = np.sin(h) / h if n_phi < 5 else (8 * np.sin(h) - np.sin(2 * h)) / (6 * h)
        grad, valid = _stacked_gradient(np.cos(phi), sphere)
        np.testing.assert_allclose(grad[:, valid], symbol * exact[:, valid], atol=1e-12)


# ----------------------------------------------------- constant-case residuals

def _const_traj(times, sphere, a_fun, b_fun=None, c_fun=None, d_fun=None):
    zero = lambda t, z: np.zeros(z.shape[0])
    funcs = {
        "a": a_fun,
        "b": b_fun or zero,
        "c": c_fun or zero,
        "d": d_fun or zero,
    }
    return DensityTrajectory.from_callables("constant", times, sphere, funcs)


def test_constant_rows_damped_profile():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(8, 8, 8)
    times = np.linspace(0.0, 0.5, 33)
    traj = _const_traj(times, sphere, lambda t, z: np.exp(-2 * t) * np.ones(z.shape[0]))
    rep = constant_transport_residual(traj, model)
    assert rep.max_relative <= 2e-3


def test_constant_rows_all_zero():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(6, 6, 6)
    times = np.linspace(0.0, 0.5, 9)
    traj = _const_traj(times, sphere, lambda t, z: np.zeros(z.shape[0]))
    rep = constant_transport_residual(traj, model)
    assert rep.max_relative == 0.0


@pytest.mark.parametrize("scale", [1e-6, 1e-12, 1e-20])
def test_constant_rows_relative_at_any_data_scale(scale):
    # a row whose largest term was below an absolute 1e-14 read its absolute residual as relative, so the
    # same densities scaled by 1e-20 passed with a max_relative of about 2e-25; the negligible floor now
    # comes from the densities, and the rows read the same at every scale
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(6, 6, 6)
    times = np.linspace(0.0, 0.5, 9)
    a = lambda t, z: np.exp(-2 * t) * (1.0 + z[:, 3] ** 2)
    want = constant_transport_residual(_const_traj(times, sphere, a), model).max_relative
    got = constant_transport_residual(_const_traj(times, sphere, lambda t, z: scale * a(t, z)), model).max_relative
    assert 0 < want < 1e-3 and got == pytest.approx(want, rel=1e-9)


def test_nan_row_makes_max_relative_nan():
    # Python's max skipped a NaN row, so one NaN datum read as a finite max_relative
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(6, 6, 6)
    traj = _const_traj(np.linspace(0.0, 0.5, 9), sphere, lambda t, z: np.exp(-2 * t) * (1.0 + z[:, 3]))
    traj.data["a"][4, 10] = np.nan
    rep = constant_transport_residual(traj, model)
    nan_rows = {r["row"] for r in rep.rows if np.isnan(r["relative"])}
    assert nan_rows == {"1"} and np.isnan(rep.max_relative)


@pytest.mark.parametrize(
    "times",
    [[0.0, np.nan, 0.2, 0.3], [0.0, 0.1, 0.2, np.inf], [0.0, 0.1, 0.1, 0.3], [0.0, 0.2, 0.1, 0.3]],
    ids=["nan", "inf", "duplicate", "decreasing"],
)
def test_trajectory_refuses_bad_times(times):
    # a duplicate time raised a bare LinAlgError from the stencil weights, and a NaN time gave rows of NaN
    with pytest.raises(ValueError, match=r"times must be finite and strictly increasing, not \[0\.0, "):
        DensityTrajectory(times, SphereGrid(6, 6, 6), "constant", {})


def test_trajectory_refuses_valid_bins_off_the_sphere():
    # [-1] was read as bin B - 1 through negative indexing, and [B] and [1.5] failed later on bare IndexErrors
    sphere = SphereGrid(6, 6, 6)
    times = np.linspace(0.0, 0.5, 5)
    data = {"a": np.zeros((times.size, sphere.num_bins))}
    B = sphere.num_bins
    assert DensityTrajectory(times, sphere, "constant", data, valid_bins=[0, B - 1]).valid_bins == [0, B - 1]
    for bins, match in (([-1], r"valid_bins \[-1\] lie outside the sphere's bins 0\.\.215"),
                        ([3, B], rf"valid_bins \[{B}\] lie outside"),
                        ([1.5], r"valid_bins must be integer bin indices, not the float64 entries \[1\.5\]")):
        with pytest.raises(ValueError, match=match):
            DensityTrajectory(times, sphere, "constant", data, valid_bins=bins)


def test_rows_refuse_trajectories_with_no_kept_bin(rng):
    # with no bin kept every weight is 0 and a row would read 0 from no data
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(6, 6, 6)
    times = np.linspace(0.0, 0.5, 9)
    const = {name: rng.normal(size=(times.size, sphere.num_bins)) for name in "abcd"}
    smooth = {name: rng.normal(size=(times.size, sphere.num_bins, 3, 3)) for name in ("s11", "s12", "s21", "s22")}
    pole_bin = sphere.flat_index(0, 2, 3)  # a chi1-pole bin, masked by the smooth rows
    cases = [
        (constant_transport_residual, "constant", const, []),
        (variable_transport_residual, "scalar_smooth", smooth, []),
        (variable_transport_residual, "scalar_smooth", smooth, [pole_bin]),
    ]
    for residual, case, data, valid in cases:
        traj = DensityTrajectory(times, sphere, case, data, valid_bins=np.array(valid, dtype=int))
        with pytest.raises(ValueError, match="no bin is kept"):
            residual(traj, model)


def test_constant_rows_negative_control_static_a():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(8, 8, 8)
    times = np.linspace(0.0, 0.5, 17)
    traj = _const_traj(times, sphere, lambda t, z: np.ones(z.shape[0]))
    rep = constant_transport_residual(traj, model)
    row1 = [r for r in rep.rows if r["row"] == "1" and r["psi"] == "one"][0]
    assert row1["relative"] == pytest.approx(1.0, abs=1e-10)  # -2a is the whole row


def test_constant_rows_few_time_levels_exact_for_quadratic():
    # 3 or 4 (non-uniform) levels: one stencil over all levels, exact for t^2
    model = MaterialModel.constant(1.0, 1.0, 0.0)
    sphere = SphereGrid(6, 6, 6)
    zp2 = np.sum(sphere.centers()[:, 1:] ** 2, axis=1)
    for times in (np.array([0.0, 0.1, 0.35]), np.array([0.0, 0.1, 0.35, 0.5])):
        traj = _const_traj(times, sphere, lambda t, z: t**2 * np.ones(z.shape[0]))
        zero = np.zeros((times.size, sphere.num_bins))
        rhs = {"11": np.stack([-2.0 * t * zp2 for t in times]), "12": zero, "21": zero, "22": zero}
        rep = constant_transport_residual(traj, model, mu_uf_rhs=rhs)
        assert rep.max_relative <= 1e-12


def test_constant_rows_manufactured_convergence():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(8, 8, 8)
    centers = sphere.centers()

    def a_fun(t, z):
        return np.exp(-1.3 * t) * (1.0 + 0.5 * z[:, 3] ** 2)

    def c_fun(t, z):
        return (0.3 + 0.1j) * np.cos(t) * (1.0 + z[:, 1])

    zp2 = np.sum(centers[:, 1:] ** 2, axis=1)
    errs = []
    for nt in (9, 17, 33):
        times = np.linspace(0.0, 0.5, nt)
        traj = _const_traj(times, sphere, a_fun, c_fun=c_fun)
        rhs = {
            "11": np.stack([zp2 * (1.3 - 2.0) * a_fun(t, centers) for t in times]),
            "12": np.stack([zp2 * np.sin(t) * (0.3 + 0.1j) * (1.0 + centers[:, 1]) for t in times]),
            "22": np.stack([np.zeros(sphere.num_bins) for _ in times]),
            "21": np.stack([-2.0 * np.conj(c_fun(t, centers)) * 0.0 for t in times]),
        }
        rep = constant_transport_residual(traj, model, mu_uf_rhs=rhs)
        worst = max(r["weak_residual"] for r in rep.rows if r["row"] in ("1", "2"))
        errs.append(worst)
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_weak_rows_match_per_psi_loop():
    rng = np.random.default_rng(7)
    levels = np.linspace(0.1, 0.9, 5)
    points = rng.normal(size=(40, 4))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.5, 40)
    dts = rng.uniform(0.05, 0.15, 5)

    def cnormal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    rows_spec = [("scalar", [cnormal(5, 40) for _ in range(3)]), ("matrix", [cnormal(5, 40, 3, 3) for _ in range(2)])]
    rows, max_rel = transport._weak_rows(rows_spec, levels, points, weights, dts, [np.ones(1)])
    want = []
    for name, terms in rows_spec:
        for label, psi in transport.PSI_BATTERY:
            factor = np.stack([psi(t, points) for t in levels]) * weights[None, :] * dts[:, None]
            pairs = [np.linalg.norm(np.tensordot(factor, term, axes=([0, 1], [0, 1]))) for term in terms + [sum(terms)]]
            want.append((name, label, pairs[-1], max(pairs[:-1])))
    assert [(r["row"], r["psi"]) for r in rows] == [w[:2] for w in want]
    for r, (_, _, res, dominant) in zip(rows, want):
        assert r["weak_residual"] == pytest.approx(res, rel=1e-12)
        assert r["dominant"] == pytest.approx(dominant, rel=1e-12)
        assert r["relative"] == pytest.approx(res / dominant, rel=1e-12)
    assert max_rel == max(r["relative"] for r in rows)


# ----------------------------------------------------- variable-case residuals

def _sigma_traj(times, sphere, model, x0, funcs):
    return DensityTrajectory.from_callables("scalar_smooth", times, sphere, funcs, x_center=x0)


def test_variable_rows_reduce_to_constant():
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    sphere = SphereGrid(8, 8, 8)
    times = np.linspace(0.0, 0.5, 33)
    M = np.eye(3)

    def s11(t, z):
        return np.exp(-2 * t) * np.ones(z.shape[0])[:, None, None] * M

    zero = lambda t, z: np.zeros((z.shape[0], 3, 3))
    traj = _sigma_traj(times, sphere, model, (0, 0, 0), {"s11": s11, "s12": zero, "s21": zero, "s22": zero})
    rep = variable_transport_residual(traj, model)
    row1 = max(r["relative"] for r in rep.rows if r["row"] == "1")
    assert row1 <= 2e-3


def test_variable_rows_manufactured_convergence_t_and_zeta():
    model = quadratic_speed_model()
    x0 = np.array([0.25, 0.0, 0.0])
    ge, _ = model.sample_gradients(*x0)
    epsv, etav, sigv = model.sample_fields(*x0)
    M1 = np.outer([1.0, 0.5, 0.0], [0.2, 1.0, -0.3]) + np.eye(3)

    def q(z):
        return z[:, 1] * z[:, 3] + 0.5 * z[:, 2] ** 2

    def gq(z):
        g = np.stack([z[:, 3], z[:, 2], z[:, 1]], axis=0)
        return g - 2.0 * q(z)[None, :] * z[:, 1:].T

    def s11(t, z):
        return np.exp(-0.8 * t) * q(z)[:, None, None] * M1

    zero = lambda t, z: np.zeros((z.shape[0], 3, 3))

    errs = []
    for nt, nang in ((9, 8), (17, 16), (33, 32)):
        sphere = SphereGrid(nang, nang, nang)
        centers = sphere.centers()
        times = np.linspace(0.0, 0.5, nt)
        traj = _sigma_traj(times, sphere, model, x0, {"s11": s11, "s12": zero, "s21": zero, "s22": zero})
        # exact row 1: -eps dt s11 + zeta0 sum_l d_l eps d^l s11 - 2 sigma s11
        rhs11 = []
        for t in times:
            dt_part = -epsv * (-0.8) * np.exp(-0.8 * t) * q(centers)[:, None, None] * M1
            bend_scal = centers[:, 0] * (ge @ gq(centers))
            bend_part = np.exp(-0.8 * t) * bend_scal[:, None, None] * M1
            rhs11.append(dt_part + bend_part - 2 * sigv * s11(t, centers))
        zmat = np.zeros((len(times), sphere.num_bins, 3, 3))
        rhs = {"11": np.stack(rhs11), "12": zmat, "21": np.stack(rhs11) * 0.0, "22": zmat}
        # row 3 verbatim bends with d^l s11 but differentiates s21 = 0 in time
        rhs3 = []
        for t in times:
            bend_scal = centers[:, 0] * (ge @ gq(centers))
            rhs3.append(np.exp(-0.8 * t) * bend_scal[:, None, None] * M1)
        rhs["21"] = np.stack(rhs3)
        rep = variable_transport_residual(traj, model, mu_uf_rhs=rhs, variant="verbatim")
        worst = max(r["weak_residual"] for r in rep.rows if r["row"] in ("1", "3"))
        errs.append(worst)
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 >= 1.9 and order2 >= 1.9


def test_variable_variants_differ_for_time_varying_s12():
    model = quadratic_speed_model()
    sphere = SphereGrid(8, 8, 8)
    times = np.linspace(0.0, 0.5, 17)
    M = np.eye(3)

    # not exp(-t): then dt s12 = -s12, and the verbatim row 2 (-eta s12) and
    # the symmetrized one (-eta dt s12) are exact negatives with equal norms
    def s12(t, z):
        return np.exp(-2 * t) * np.ones(z.shape[0])[:, None, None] * M

    zero = lambda t, z: np.zeros((z.shape[0], 3, 3))
    traj = _sigma_traj(times, sphere, model, (0.25, 0, 0), {"s11": zero, "s12": s12, "s21": zero, "s22": zero})
    rep_v = variable_transport_residual(traj, model, variant="verbatim")
    rep_s = variable_transport_residual(traj, model, variant="symmetrized")
    r2v = max(r["weak_residual"] for r in rep_v.rows if r["row"] == "2")
    r2s = max(r["weak_residual"] for r in rep_s.rows if r["row"] == "2")
    assert r2v != pytest.approx(r2s, rel=1e-3)
    # -eta dt s12 = 2 eta s12 = -2 (-eta s12): the symmetrized row is twice the verbatim one
    assert r2s == pytest.approx(2.0 * r2v, rel=1e-3)


def test_variable_rows_skip_zero_bend_terms(monkeypatch):
    """A block whose gradient at x0 is zero gets no sphere_gradient call and no bend term."""
    real = transport.sphere_gradient
    calls = []
    monkeypatch.setattr(transport, "sphere_gradient", lambda *args: calls.append(args) or real(*args))
    sphere = SphereGrid(6, 6, 6)
    poles = int((~real(np.zeros(sphere.num_bins), sphere, np.ones(3))[1]).sum())
    times = np.linspace(0.0, 0.5, 9)
    s = lambda t, z: np.exp(-2 * t) * (1.0 + z[:, 1] * z[:, 3])[:, None, None] * np.eye(3)
    funcs = {"s11": s, "s12": s, "s21": s, "s22": s}
    # a nonzero grad eta; the rows read eta only at x0, so it need not match the model's eta = 1
    tilted = dataclasses.replace(quadratic_speed_model(), grad_eta=lambda x1, x2, x3: np.array([0.2, 0.0, 0.0]))
    # (model, x0, blocks with a zero gradient); quadratic_speed_model has grad eta = 0 and grad eps = 0 at x1 = 0
    cases = ((tilted, (0.25, 0, 0), []), (quadratic_speed_model(), (0.25, 0, 0), ["s12", "s22"]),
             (quadratic_speed_model(), (0.0, 0, 0), None))
    for model, x0, zero in cases:
        traj = _sigma_traj(times, sphere, model, x0, funcs)
        for variant, blocks in (("verbatim", ["s11", "s12", "s22"]), ("symmetrized", ["s11", "s12", "s21", "s22"])):
            skip = blocks if zero is None else zero
            calls.clear()
            rep = variable_transport_residual(traj, model, variant=variant)
            assert len(calls) == len(blocks) - len(skip)
            assert rep.skipped.get("zero_bend", []) == skip
            assert rep.skipped["masked_bins"] == poles
    # leaving an all-zero term out of a row leaves its weak pairing bit-identical
    rng = np.random.default_rng(3)
    terms = [rng.normal(size=(7, sphere.num_bins, 3, 3)) + 1j * rng.normal(size=(7, sphere.num_bins, 3, 3))
             for _ in range(2)]
    args = (times[1:-1], sphere.centers(), sphere.weights(), np.full(7, 1 / 16), terms)
    with_zero = transport._weak_rows([("1", [terms[0], np.zeros_like(terms[0]), terms[1]])], *args)
    assert with_zero == transport._weak_rows([("1", terms)], *args)


def test_explicit_zero_rhs_matches_no_rhs():
    """An all-zero mu_uf_rhs adds only zero terms: every row equals the rows without one."""
    sphere = SphereGrid(6, 6, 6)
    times = np.linspace(0.0, 0.5, 9)
    model = MaterialModel.constant(2.0, 0.5, 1.0)
    traj = _const_traj(times, sphere, lambda t, z: np.exp(-t) * (1.0 + z[:, 3] ** 2),
                       c_fun=lambda t, z: (0.3 + 0.1j) * np.cos(t) * (1.0 + z[:, 1]))
    zero = {k: np.zeros((times.size, sphere.num_bins)) for k in ("11", "12", "21", "22")}
    assert (constant_transport_residual(traj, model, mu_uf_rhs=zero).rows
            == constant_transport_residual(traj, model).rows)
    model = quadratic_speed_model()
    s = lambda t, z: np.exp(-2 * t) * (1.0 + z[:, 1] * z[:, 3])[:, None, None] * np.eye(3)
    traj = _sigma_traj(times, sphere, model, (0.25, 0, 0), {"s11": s, "s12": s, "s21": s, "s22": s})
    zero = {k: np.zeros((times.size, sphere.num_bins, 3, 3)) for k in ("11", "12", "21", "22")}
    for variant in ("verbatim", "symmetrized"):
        assert (variable_transport_residual(traj, model, mu_uf_rhs=zero, variant=variant).rows
                == variable_transport_residual(traj, model, variant=variant).rows)


# ------------------------------------------------------- divergence constraint

def test_divergence_constraint_skipped_single_window():
    out = divergence_constraint_residual(np.array([0.5]), [], axis=0)
    assert out["skipped"] is True


def _synthetic_fit(sphere, bin_idx, a_val):
    from hml.verifier import DensityDecomposition

    coeffs = {n: np.zeros(1, dtype=complex) for n in ("a", "b", "c", "d")}
    coeffs["a"][0] = a_val
    return DensityDecomposition(
        case="constant",
        bin_indices=np.array([bin_idx]),
        coefficients=coeffs,
        residuals=np.zeros(1),
        excluded_bins=np.array([], dtype=int),
        sphere=sphere,
    )


def test_divergence_constraint_homogeneous_zero():
    sphere = SphereGrid(8, 8, 8)
    b = sphere.flat_index(4, 4, 4)
    positions = np.linspace(0.1, 0.9, 5)
    fits = [_synthetic_fit(sphere, b, 2.0) for _ in positions]
    out = divergence_constraint_residual(positions, fits, axis=0)
    assert out["skipped"] is False
    assert out["densities"]["a"]["max_relative"] <= 1e-12


@pytest.mark.parametrize("reader", ["divergence_constraint", "from_constant_fits"])
def test_fits_from_another_sphere_refused(reader):
    # a fit's bin indices name bins of the sphere it was made on; read through the default 8192-bin sphere,
    # fits made on a 288-bin one gave skipped False, a max_relative of 1e-28 or less, and no error
    sphere, other = SphereGrid(6, 6, 8), SphereGrid(8, 8, 8)
    positions = np.linspace(0.1, 0.9, 5)
    fits = [_synthetic_fit(sphere, sphere.flat_index(3, 3, 3), 2.0) for _ in positions]
    fits[2] = _synthetic_fit(other, other.flat_index(3, 3, 3), 2.0)
    with pytest.raises(ValueError, match=r"^a fit made on SphereGrid\(n_zeta0=8, n_theta=8, n_phi=8\) cannot be read "
                                         r"on SphereGrid\(n_zeta0=6, n_theta=6, n_phi=8\)"):
        if reader == "divergence_constraint":
            divergence_constraint_residual(positions, fits, axis=0)
        else:
            DensityTrajectory.from_constant_fits(positions, sphere, fits)


def test_divergence_constraint_rejects_axis_outside_0_1_2():
    # axis=-1 would pair zeta0^2 and axis=3 would index past zeta'
    sphere = SphereGrid(8, 8, 8)
    positions = np.linspace(0.1, 0.9, 5)
    fits = [_synthetic_fit(sphere, sphere.flat_index(4, 4, 4), 2.0) for _ in positions]
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="axis must be 0, 1 or 2"):
            divergence_constraint_residual(positions, fits, axis=axis)


@pytest.mark.parametrize(
    "short, match",
    [("trajectory_data", r"^data\['a'\] of shape \(4, 512\) does not start with the 5 time levels of times$"),
     ("fits", "^5 positions but 4 fits"), ("mu_urho_rhs", "^5 positions but 4 mu_urho_rhs rows")],
    ids=["trajectory_data", "fits", "mu_urho_rhs"],
)
def test_mismatched_lengths_refused_where_they_enter(short, match):
    # each used to fail deep inside, as a shape mismatch of a sum or a broadcast error
    sphere = SphereGrid(8, 8, 8)
    positions = np.linspace(0.1, 0.9, 5)
    fits = [_synthetic_fit(sphere, sphere.flat_index(4, 4, 4), 2.0) for _ in positions]
    rhs = [np.zeros(sphere.num_bins) for _ in positions]
    with pytest.raises(ValueError, match=match):
        if short == "trajectory_data":
            DensityTrajectory(positions, sphere, "constant", {"a": np.zeros((4, 512)), "b": np.zeros((5, 512))})
        else:
            divergence_constraint_residual(positions, fits[:-1] if short == "fits" else fits, axis=0,
                                           mu_urho_rhs=rhs[:-1] if short == "mu_urho_rhs" else rhs)


@pytest.mark.parametrize("positions", [[0.0, 0.1, 0.1], [0.0, np.nan, 0.2], [0.0, 0.2, 0.1]],
                         ids=["repeated", "nan", "decreasing"])
def test_divergence_constraint_refuses_bad_positions(positions):
    # a repeated window made the stencil solve singular, a NaN one made every max_relative NaN, and a
    # decreasing one was paired as if its end window were interior
    sphere = SphereGrid(8, 8, 8)
    fits = [_synthetic_fit(sphere, sphere.flat_index(4, 4, 4), 2.0) for _ in positions]
    with pytest.raises(ValueError, match="^positions must be finite and strictly increasing"):
        divergence_constraint_residual(positions, fits, axis=0)


def test_divergence_constraint_envelope_derivative():
    sphere = SphereGrid(8, 8, 8)
    b = sphere.flat_index(4, 4, 4)
    zeta1 = sphere.centers()[b, 1]
    positions = np.linspace(0.1, 0.9, 9)
    prof = lambda x: np.sin(np.pi * x) ** 2
    dprof = lambda x: np.pi * np.sin(2 * np.pi * x)
    fits = [_synthetic_fit(sphere, b, prof(x)) for x in positions]
    # rhs := analytic zeta1^2 d/dx profile at the window centroids
    rhs = [np.full(sphere.num_bins, zeta1**2 * dprof(x)) for x in positions]
    out = divergence_constraint_residual(positions, fits, axis=0, mu_urho_rhs=rhs)
    assert out["densities"]["a"]["max_relative"] <= 5e-2  # fourth-order FD error only


# ---------------------------------------------------------- predict & compare

EVOL_GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 8, 8, 16))
EPS_PAIR = (2.0**-3, 2.0**-4)


def _check_predict_damping(eps, sigma):
    """Electric mass of an exact long-e solution decays like exp(-2 sigma dt / eps)."""
    model = MaterialModel.constant(eps, 1.0, sigma)
    fam = evolved_family(model, EVOL_GRID, (0, 0, 1.0), "long-e", EPS_PAIR, hann_window(EVOL_GRID, axes=(1,)))
    rep = predict_then_compare(fam, model, 0.25, 0.75, sphere=SphereGrid(10, 8, 16), window_width=0.25)
    expected = np.exp(-2 * sigma * 0.5 / eps)
    assert rep.mass_ratio == pytest.approx(expected, rel=0.1)
    assert rep.predicted_ratio == pytest.approx(rep.mass_ratio, rel=0.1)
    assert rep.per_bin_l1_discrepancy <= 0.1


def test_predict_damping_longitudinal():
    _check_predict_damping(1.0, 1.0)


def test_predict_damping_longitudinal_scales_with_permittivity():
    _check_predict_damping(2.0, 1.0)


def test_predict_conservation_sigma0():
    model = MaterialModel.constant()
    fam = evolved_family(model, EVOL_GRID, (0, 0, 1.0), "trans+1", EPS_PAIR, hann_window(EVOL_GRID, axes=(1,)))
    rep = predict_then_compare(fam, model, 0.25, 0.75, sphere=SphereGrid(10, 8, 16), window_width=0.25)
    assert rep.mass_ratio == pytest.approx(1.0, abs=0.05)
    assert rep.predicted_ratio == pytest.approx(rep.mass_ratio, abs=0.05)


def test_predict_zero_field():
    model = MaterialModel.constant()
    fam = evolved_family(model, EVOL_GRID, (0, 0, 1.0), "trans+1", EPS_PAIR)
    zfields = {e: np.zeros_like(np.asarray(fam.fields[e])) for e in fam.epsilons}
    from hml.synthesis import OscillatingFamily

    zfam = OscillatingFamily(grid=fam.grid, epsilons=fam.epsilons, fields=zfields, metadata=fam.metadata)
    rep = predict_then_compare(zfam, model, 0.25, 0.75, window_width=0.25)
    assert rep.total_mass_t0 == 0.0 and rep.total_mass_t1 == 0.0
    assert rep.predicted_total_mass_t1 == 0.0


def test_predict_smooth_rebins_every_bin_once(monkeypatch):
    """With sigma = 0 each fitted bin's mass is moved, not created or lost."""
    model = layered_model()
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    k = 0.9 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    c = -model.speed_at(np.asarray(grid.extents[1:]) / 2.0) * 0.9  # on the + cone at the window centre
    fam = wkb_family(model, grid, linear_phase(k, c), hann_window(grid), "trans+1", EPS_PAIR)
    paths = []

    def recording_integrate_rays(*args, **kwargs):
        out = integrate_rays(*args, **kwargs)
        paths.extend(out)
        return out

    monkeypatch.setattr(transport, "integrate_rays", recording_integrate_rays)
    rep = predict_then_compare(fam, model, 1 / 16, 3 / 16, sphere=SphereGrid(6, 6, 8))
    assert rep.predicted_ratio == pytest.approx(1.0, abs=1e-12)
    assert paths and all(p.status == "ok" for p in paths)


@pytest.mark.parametrize("end, match", [(0.0, "^1 rays end at the zero direction"), (np.nan, "^1 of .* not finite")],
                         ids=["zero-end-direction", "non-finite-end-direction"])
def test_predict_smooth_refuses_a_ray_without_a_bin(monkeypatch, end, match):
    """A ray whose end direction (zeta0, zeta') is zero or not finite has no bin to carry its mass to."""
    model = layered_model()
    grid = GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
    k = 0.9 * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    c = -model.speed_at(np.asarray(grid.extents[1:]) / 2.0) * 0.9
    fam = wkb_family(model, grid, linear_phase(k, c), hann_window(grid), "trans+1", EPS_PAIR)
    centers = SphereGrid.centers

    def rays_with_one_bad_end(*args, **kwargs):
        out = integrate_rays(*args, **kwargs)
        out[0].zetaPs[-1] = end
        return out

    # the start directions have zeta0 = 0, so a zeta' of zero ends the ray at the zero 4-vector
    monkeypatch.setattr(SphereGrid, "centers", lambda self: centers(self) * [0.0, 1.0, 1.0, 1.0])
    monkeypatch.setattr(transport, "integrate_rays", rays_with_one_bad_end)
    with pytest.raises(ValueError, match=match):
        predict_then_compare(fam, model, 1 / 16, 3 / 16, sphere=SphereGrid(6, 6, 8))


def test_time_subwindow_guards():
    with pytest.raises(ValueError):
        time_subwindow(EVOL_GRID, 0.5, 2 * EVOL_GRID.spacing[0])
    with pytest.raises(ValueError):
        time_subwindow(EVOL_GRID, 0.05, 0.2)


# ---------------------------------------------------- end-to-end constant rows

def _check_constant_rows_from_estimates(eps, sigma):
    """Exact damped longitudinal solutions satisfy row 1 within discretization."""
    model = MaterialModel.constant(eps, 1.0, sigma)
    fam = evolved_family(model, EVOL_GRID, (0, 0, 1.0), "long-e", EPS_PAIR, hann_window(EVOL_GRID, axes=(1,)))
    sphere = SphereGrid(10, 8, 16)
    t_levels = np.linspace(0.25, 0.75, 5)
    fits = []
    for tc in t_levels:
        est = estimate_hmeasure(fam, time_subwindow(EVOL_GRID, tc, 0.25), sphere=sphere)
        fits.append(fit_constant_decomposition(est))
    traj = DensityTrajectory.from_constant_fits(t_levels, sphere, fits)
    rep = constant_transport_residual(traj, model)
    assert rep.max_relative <= 0.15


def test_constant_rows_from_estimated_densities():
    _check_constant_rows_from_estimates(1.0, 1.0)


def test_constant_rows_from_estimated_densities_scale_with_permittivity():
    _check_constant_rows_from_estimates(2.0, 1.0)


def test_report_dicts_serialise_to_json():
    """Every report of a small constant-case pass turns into plain JSON."""
    model = MaterialModel.constant(1.0, 1.0, 1.0)
    fam = evolved_family(model, EVOL_GRID, (0, 0, 1.0), "long-e", EPS_PAIR, hann_window(EVOL_GRID, axes=(1,)))
    sphere = SphereGrid(10, 8, 16)
    t_levels = np.linspace(0.25, 0.75, 5)
    ests = [estimate_hmeasure(fam, time_subwindow(EVOL_GRID, tc, 0.25), sphere=sphere) for tc in t_levels]
    fits = [fit_constant_decomposition(est) for est in ests]
    traj = DensityTrajectory.from_constant_fits(t_levels, sphere, fits)
    reports = [
        localisation_residual(ests[0], "P", model),
        support_check(ests[0], "constant"),
        fits[0],
        constant_transport_residual(traj, model),
        predict_then_compare(fam, model, 0.25, 0.75, sphere=sphere, window_width=0.25),
    ]
    for rep in reports:
        out = json.loads(json.dumps(rep.to_dict()))
        assert isinstance(out, dict) and out
