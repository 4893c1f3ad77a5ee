"""Transport machinery: rays, transport-system residuals, predictions.

The propagation theorems are checked in weak form: densities sampled on a
(time level) x (sphere bin) lattice are differenced with fourth-order
5-point stencils (centred in the interior, biased at the lattice ends,
periodic in the azimuth; below five samples a non-periodic axis uses one
stencil over all of them and a periodic one the 3-point rule) and the
four transport rows are paired against a battery of test functions.  Characteristic rays of the two propagating
Hamiltonians omega = zeta0 +- v(x)|zeta'| are integrated from arrays of
start points with a fixed-step RK4 scheme; the rays of one call advance
together as one (n, 6) array of positions and zeta', and each ray
terminates on its own when |zeta'| falls below ``RAY_ZP_FLOOR``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .estimator import SphereGrid, estimate_hmeasure
from .grids import AxisWindow, GridSpec, SeparableWindow
from .symbols import MaterialModel, propagation_basis
from .synthesis import OscillatingFamily
from .verifier import DensityDecomposition, fit_modal_decomposition

__all__ = [
    "RayPath",
    "integrate_rays",
    "DensityTrajectory",
    "TransportResidualReport",
    "PSI_BATTERY",
    "sphere_gradient",
    "constant_transport_residual",
    "variable_transport_residual",
    "divergence_constraint_residual",
    "predict_then_compare",
    "time_subwindow",
]


# ----------------------------------------------------------------------- rays

# RK4 step of the rays that carry the smooth-case prediction.
RAY_DT = 2.0**-8
# A ray stops where |zeta'| falls below this: omega is not differentiable at zeta' = 0.
RAY_ZP_FLOOR = 1e-6


@dataclass
class RayPath:
    """One ray of ``integrate_rays``: m ``times``, (m, 3) ``xs`` and ``zetaPs``, and omega as ``hamiltonian``.

    ``status`` is "ok", or "terminated_small_zetaP" for a ray stopped early at |zeta'| < ``RAY_ZP_FLOOR``.
    """

    times: np.ndarray
    xs: np.ndarray
    zetaPs: np.ndarray
    hamiltonian: np.ndarray
    status: str


def integrate_rays(model: MaterialModel, x, zetaP, t_span: tuple, branch: str = "+", zeta0=0.0) -> list:
    """RK4 integration of xdot = grad_zeta omega, zetadot = -grad_x omega.

    omega = zeta0 + s v(x)|zeta'| with s = +1 or -1 per ``branch``; zeta0
    rides along unchanged, and v comes from the checked ``MaterialModel.speed``.
    ``x`` and ``zetaP`` broadcast to (n, 3) start positions and zeta' (one
    shared position is allowed), and ``zeta0`` to (n,); a (0, 3) ``zetaP`` gives [].
    The step is the one nearest ``RAY_DT`` that divides ``t_span``.  All
    rays advance together as one (n, 6) array of positions and zeta'.
    Before each step a ray whose |zeta'| is below ``RAY_ZP_FLOOR`` drops
    out: its path ends there with status ``terminated_small_zetaP`` and the
    other rays keep stepping.
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    x, zetaP = np.broadcast_arrays(np.atleast_2d(np.asarray(x, float)), np.atleast_2d(np.asarray(zetaP, float)))
    n = len(zetaP)
    if not n:
        return []
    zeta0 = np.broadcast_to(np.asarray(zeta0, float), (n,))
    s = 1.0 if branch == "+" else -1.0
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, int(round(abs(t1 - t0) / RAY_DT)))
    h = (t1 - t0) / n_steps

    def rhs(y):
        zp = y[:, 3:]
        r = np.linalg.norm(zp, axis=1)[:, None]
        v, gv = model.speed(*y[:, :3].T)
        return np.concatenate([s * v[:, None] * zp / r, -s * r * gv.T], axis=1)

    # (step, ray, x|zeta'); a terminated ray's last state fills its remaining steps
    hist = np.empty((n_steps + 1, n, 6))
    hist[0, :, :3], hist[0, :, 3:] = x, zetaP
    lengths = np.full(n, n_steps + 1)
    live = np.arange(n)
    for k in range(n_steps):
        small = np.linalg.norm(hist[k, live, 3:], axis=1) < RAY_ZP_FLOOR
        if small.any():
            dead = live[small]
            lengths[dead] = k + 1
            hist[k + 1:, dead] = hist[k, dead]
            live = live[~small]
            if not live.size:
                break
        y = hist[k, live]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        hist[k + 1, live] = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    v, _ = model.speed(*hist[..., :3].reshape(-1, 3).T)
    ham = zeta0 + s * v.reshape(n_steps + 1, n) * np.linalg.norm(hist[..., 3:], axis=-1)
    times = t0 + np.arange(n_steps + 1) * h
    return [
        RayPath(times=times[:m], xs=hist[:m, i, :3], zetaPs=hist[:m, i, 3:], hamiltonian=ham[:m, i],
                status="ok" if m == n_steps + 1 else "terminated_small_zetaP")
        for i, m in enumerate(lengths)
    ]


# ------------------------------------------------------------- density lattices

@dataclass
class DensityTrajectory:
    """Densities sampled on (time level) x (sphere bin).

    ``data[name]`` has shape (n_times, B) for scalar densities or
    (n_times, B, 3, 3) for the smooth-case matrix blocks; an array whose
    first axis is not the time levels is refused, and so are times that
    are not finite and strictly increasing.  ``x_center`` is the spatial
    window centroid the densities belong to: three finite coordinates,
    held as a float array, or ValueError naming it.  ``valid_bins``, when
    given, are the bins the transport rows read: integers in [0, B), or
    ValueError naming the entries that are not.
    """

    times: np.ndarray
    sphere: SphereGrid
    case: str
    data: dict
    x_center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    valid_bins: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size < 3:
            raise ValueError("need at least three time levels for time differencing")
        if not (np.isfinite(self.times).all() and (np.diff(self.times) > 0).all()):
            raise ValueError(f"times must be finite and strictly increasing, not {self.times.tolist()}")
        for name, values in self.data.items():
            if np.shape(values)[:1] != (self.times.size,):
                raise ValueError(f"data[{name!r}] of shape {np.shape(values)} does not start with the "
                                 f"{self.times.size} time levels of times")
        x_center = np.asarray(self.x_center, dtype=float)
        if x_center.shape != (3,) or not np.isfinite(x_center).all():
            raise ValueError(f"x_center must be three finite coordinates, not {x_center.tolist()}")
        self.x_center = x_center
        if self.valid_bins is not None:
            bins = np.asarray(self.valid_bins)
            if bins.size and bins.dtype.kind not in "iu":
                raise ValueError(f"valid_bins must be integer bin indices, not the {bins.dtype} entries "
                                 f"{bins.tolist()}")
            B = self.sphere.num_bins
            outside = bins[(bins < 0) | (bins >= B)]
            if outside.size:
                raise ValueError(f"valid_bins {outside.tolist()} lie outside the sphere's bins 0..{B - 1}")

    @classmethod
    def from_callables(cls, case, times, sphere, funcs, x_center=(0.0, 0.0, 0.0)):
        centers = sphere.centers()
        data = {}
        for name, f in funcs.items():
            rows = [np.asarray(f(t, centers)) for t in times]
            data[name] = np.stack(rows)
        return cls(times=np.asarray(times, float), sphere=sphere, case=case, data=data, x_center=x_center)

    @classmethod
    def from_constant_fits(cls, times, sphere, fits: Sequence[DensityDecomposition], x_center=(0.0, 0.0, 0.0)):
        """The trajectory of constant-case fits, one per time level, all made on ``sphere`` (else ValueError)."""
        data, valid = _scatter_fits(fits, sphere)
        return cls(times=np.asarray(times, float), sphere=sphere, case="constant", data=data,
                   x_center=x_center, valid_bins=valid)


def _scatter_fits(fits: Sequence[DensityDecomposition], sphere: SphereGrid) -> tuple:
    """Constant-case fits on a (fit, bin) lattice of ``sphere``, and the bins every fit kept.

    Returns ({name: (len(fits), B) complex array} for a, b, c, d, zero
    outside each fit's bins; sorted common bin indices).  A fit made on
    another sphere is refused: its bin indices name none of these bins.
    """
    other = [fit.sphere for fit in fits if fit.sphere != sphere]
    if other:
        raise ValueError(f"a fit made on {other[0]} cannot be read on {sphere}, whose bins its indices do not name")
    data = {n: np.zeros((len(fits), sphere.num_bins), dtype=complex) for n in ("a", "b", "c", "d")}
    kept = np.zeros((len(fits), sphere.num_bins), dtype=bool)
    for i, fit in enumerate(fits):
        kept[i, fit.bin_indices] = True
        for n in data:
            data[n][i, fit.bin_indices] = fit.coefficients[n]
    return data, np.flatnonzero(kept.all(axis=0))


def _fd_weights(x: np.ndarray, x0: float) -> np.ndarray:
    """First-derivative weights at ``x0`` on the nodes ``x``.

    These are the weights of Fornberg (Math. Comp. 51, 1988), exact for
    polynomials of degree < len(x).  They solve the moment system on
    offsets scaled to [-1, 1], which is well conditioned for the at most
    five nodes used here.
    """
    scale = np.max(np.abs(x - x0))
    d = (x - x0) / scale
    moments = np.zeros(d.size)
    moments[1] = 1.0
    return np.linalg.solve(d[None, :] ** np.arange(d.size)[:, None], moments) / scale


def _derivative(f: np.ndarray, coords: np.ndarray, axis: int = 0, periodic: bool = False) -> np.ndarray:
    """Fourth-order d/dx of ``f`` along ``axis``, sampled at ``coords``.

    Non-periodic axes use 5-point weights from the (possibly non-uniform)
    coordinates, centred in the interior and biased at the two lattice
    ends; with fewer than five samples one stencil spans them all.  A
    periodic axis (uniform ``coords``) uses the centred 5-point rule, or the
    3-point rule below five cells: with four, the +-2 neighbours coincide
    and the 5-point rule would return 2/3 of the 3-point value.
    """
    n = f.shape[axis]
    x = np.asarray(coords, float)
    D = np.zeros((n, n))
    if periodic:
        offsets = np.arange(-2, 3) if n >= 5 else np.arange(-1, 2)
        w = _fd_weights(offsets.astype(float), 0.0) / (x[1] - x[0])
        for i in range(n):
            np.add.at(D[i], (i + offsets) % n, w)
    else:
        width = min(5, n)
        for i in range(n):
            lo = min(max(i - width // 2, 0), n - width)
            D[i, lo:lo + width] = _fd_weights(x[lo:lo + width], x[i])
    return np.moveaxis(np.tensordot(D, f, axes=(1, axis)), 0, axis)


def _time_derivative(arr: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Fourth-order d/dt (``_derivative``) on the interior levels.

    Returns shape (n_t-2,) + arr.shape[1:].
    """
    return _derivative(arr, times)[1:-1]


def sphere_gradient(f_bins: np.ndarray, sphere: SphereGrid, direction):
    """Derivative of the 0-homogeneous extension along ``direction``, per bin.

    ``f_bins`` has shape (B,) + extra and ``direction`` is a 3-vector in
    zeta'-space; returns (direction . grad f of shape (B,) + extra, valid
    mask (B,)) with theta-pole and chi1-pole rings masked out (the chain
    rule coefficients blow up there).  The angle derivatives are fourth
    order (``_derivative``): 5-point, biased at the chi1/theta chart edges,
    periodic in phi, with narrower stencils on axes of fewer than 5 cells.
    """
    n1, n2, n3 = sphere.n_zeta0, sphere.n_theta, sphere.n_phi
    extra = f_bins.shape[1:]
    lat = f_bins.reshape((n1, n2, n3) + extra)
    ang = sphere.centers_angles().reshape(n1, n2, n3, 3)
    chi1, theta = ang[..., 0], ang[..., 1]
    s1, c1 = np.sin(chi1), np.cos(chi1)
    stheta = np.sin(theta)
    # (zhat, z1, z2) of every center's zeta', each of shape (3, n1, n2, n3)
    nvec, z1, z2 = propagation_basis(np.moveaxis(sphere.centers()[:, 1:].reshape(n1, n2, n3, 3), -1, 0))
    # chain-rule coefficient of each angle derivative: a scalar factor times
    # direction . (zhat, z1 or z2), formed before it meets the (possibly
    # large) derivative array, so no (3, B) + extra gradient is ever built
    shape = (n1, n2, n3) + (1,) * len(extra)
    coeffs = ((c1, nvec), (1.0 / s1, z1), (1.0 / (s1 * stheta), z2))
    out = None
    for axis, (n, h, (c, v)) in enumerate(zip((n1, n2, n3), sphere.widths, coeffs)):
        d = _derivative(lat, h * np.arange(n), axis, periodic=(axis == 2))
        d *= np.reshape(c * np.tensordot(np.asarray(direction, float), v, axes=1), shape)
        if out is None:
            out = d
        else:
            out += d
    return out.reshape((sphere.num_bins,) + extra), _off_pole_bins(sphere)


def _off_pole_bins(sphere: SphereGrid) -> np.ndarray:
    """(B,) mask of the bins off the theta-pole and chi1-pole rings, where the chain rule is finite."""
    i1, i2, _ = sphere.unflatten(np.arange(sphere.num_bins))
    return (i1 > 0) & (i1 < sphere.n_zeta0 - 1) & (i2 > 0) & (i2 < sphere.n_theta - 1)


# Test functions psi(t, zeta4) of the weak-form pairings.
PSI_BATTERY = (
    ("one", lambda t, z: np.ones(z.shape[:-1])),
    ("t", lambda t, z: np.full(z.shape[:-1], t)),
    ("t^2", lambda t, z: np.full(z.shape[:-1], t * t)),
    ("zeta0", lambda t, z: z[..., 0]),
    ("zeta3", lambda t, z: z[..., 3]),
    ("t*zeta1", lambda t, z: t * z[..., 1]),
)


@dataclass
class TransportResidualReport:
    case: str
    variant: str
    rows: list  # dicts: row, psi, weak_residual, dominant, relative
    skipped: dict
    max_relative: float

    def to_dict(self) -> dict:
        return asdict(self)


def _weak_rows(rows_spec: list, levels, points: np.ndarray, weights: np.ndarray, dts: np.ndarray,
               densities) -> tuple:
    """Pair every row's terms against every psi of ``PSI_BATTERY``.

    ``rows_spec`` is a list of (row name, terms), each term shaped (level,
    point) + entries.  Each term is paired against the stacked (psi, level,
    point) battery psi * weight * dt in one contraction; the pairing is
    linear, so a row's residual is the sum of its paired terms.  Pairings
    are reduced by the Frobenius norm over the entries, so cancellation is
    respected, and each row's residual is relative to its largest single
    term.  ``densities`` are the arrays the rows are made of: their largest
    |value| (NaN skipped) times the largest battery sum of |psi * weight *
    dt| bounds what a density pairs to.  A row whose largest term is at most
    1e-14 of that bound is negligible, and its residual is read relative to
    the bound, so no verdict depends on the data's units.  Returns (rows,
    max_relative); a NaN row makes max_relative NaN.
    """
    psi_vals = np.stack([np.stack([psi(t, points) for t in levels]) for _, psi in PSI_BATTERY])
    factor = psi_vals * weights[None, None, :] * dts[None, :, None]
    scale = max((float(np.nanmax(np.abs(d), initial=0.0)) for d in densities), default=0.0)
    bound = max(scale * float(np.abs(factor).sum(axis=(1, 2)).max()), 1e-300)
    rows = []
    for name, terms in rows_spec:
        paired = np.stack([np.tensordot(factor, term, axes=([1, 2], [0, 1])) for term in terms])
        paired = paired.reshape(len(terms), len(PSI_BATTERY), -1)
        residuals = np.linalg.norm(paired.sum(axis=0), axis=1)
        dominants = np.linalg.norm(paired, axis=2).max(axis=0)
        for (label, _), res, dominant in zip(PSI_BATTERY, residuals.tolist(), dominants.tolist()):
            rel = res / dominant if dominant > 1e-14 * bound else res / bound
            rows.append({"row": name, "psi": label, "weak_residual": res, "dominant": dominant, "relative": rel})
    return rows, float(np.max([r["relative"] for r in rows], initial=0.0))


def _kept_weights(traj: DensityTrajectory, keep: np.ndarray) -> tuple:
    """Restrict ``keep`` to the trajectory's valid bins; (keep, solid-angle weights); ValueError if none is left."""
    if traj.valid_bins is not None:
        mask = np.zeros_like(keep)
        mask[traj.valid_bins] = True
        keep = keep & mask
    if not keep.any():
        raise ValueError("no bin is kept for the transport rows (valid_bins empty or all on the poles)")
    return keep, traj.sphere.weights() * keep


def _interior_times(times: np.ndarray) -> tuple:
    """Interior levels and their quadrature weights (uniform trapezoid-ish)."""
    tin = times[1:-1]
    dts = np.gradient(times)[1:-1]
    return tin, dts


def _subtract_rhs(rows_spec: list, mu_uf_rhs: dict | None, blocks: tuple) -> None:
    """Append -mu_uf_rhs[block] on the interior levels to each row's terms; none without a rhs.

    Every residual row (transport and divergence) takes its right-hand side here.
    """
    if mu_uf_rhs is not None:
        for (_, terms), block in zip(rows_spec, blocks):
            terms.append(-np.asarray(mu_uf_rhs[block])[1:-1])


def constant_transport_residual(
    traj: DensityTrajectory,
    model: MaterialModel,
    mu_uf_rhs: dict | None = None,
) -> TransportResidualReport:
    """Residuals of the four constant-case transport rows.

    Row 1: |z'|^2(-eps da/dt - 2 sigma a) - sum_l d_l[T_l c] = 2 Re Tr mu_uf_11
    Row 2: sum_l d_l[T_l a] - |z'|^2 dc/dt                   = 2 Re Tr mu_uf_12
    Row 3: |z'|^2(-eta db/dt) + sum_l d_l[T_l d]             = 2 Re Tr mu_uf_22
    Row 4: -sum_l d_l[T_l b] + |z'|^2(dd/dt - 2 sigma d)     = 2 Re Tr mu_uf_21

    with T_l = Tr((z' (x) z') Q_l).  Rows 1 and 3 weight the time
    derivatives by A0's blocks eps and eta, as the variable rows 1 and 4
    do, so exact solutions with eps, eta != 1 satisfy them; rows 2 and 4
    keep their printed form.  The time-derivative and damping
    contributions are separate terms, so each row's residual is relative
    to its largest single term.  ``mu_uf_rhs`` maps block names
    '11','12','21','22' to (n_times, B) arrays of 2 Re Tr mu values.
    """
    if traj.case != "constant":
        raise ValueError("constant rows need a constant-case trajectory")
    sphere = traj.sphere
    centers = sphere.centers()
    zp = centers[:, 1:]
    zp2 = np.sum(zp * zp, axis=1)[None, :]
    x0 = traj.x_center
    epsv, etav, sig = (float(f) for f in model.sample_fields(*x0))
    a, b = traj.data["a"], traj.data["b"]
    c, d = traj.data["c"], traj.data["d"]
    tin, dts = _interior_times(traj.times)
    da, db = _time_derivative(a, traj.times), _time_derivative(b, traj.times)
    dc, dd = _time_derivative(c, traj.times), _time_derivative(d, traj.times)
    ai, di = a[1:-1], d[1:-1]
    # The d_l[T_l .] terms are dropped: T_l = Tr((z' (x) z') Q_l) vanishes
    # identically because every curl generator Q_l is antisymmetric.
    rows_spec = [
        ("1", [zp2 * (-epsv * da), zp2 * (-2 * sig * ai)]),
        ("2", [-zp2 * dc]),
        ("3", [zp2 * (-etav * db)]),
        ("4", [zp2 * dd, zp2 * (-2 * sig * di)]),
    ]
    _subtract_rhs(rows_spec, mu_uf_rhs, ("11", "12", "22", "21"))
    _, weights = _kept_weights(traj, np.ones(sphere.num_bins, dtype=bool))
    rows, max_rel = _weak_rows(rows_spec, tin, centers, weights, dts, traj.data.values())
    return TransportResidualReport(
        case="constant",
        variant="verbatim",
        rows=rows,
        skipped={"x_derivatives": "single spatial window; curl-trace coefficient is exactly zero"},
        max_relative=max_rel,
    )


def variable_transport_residual(
    traj: DensityTrajectory,
    model: MaterialModel,
    mu_uf_rhs: dict | None = None,
    variant: str = "verbatim",
) -> TransportResidualReport:
    """Residuals of the smooth-scalar-case block transport rows.

    Verbatim rows (sigma_ij are 3x3 densities, upper index = zeta derivative):
      1: -eps dt s11 + zeta0 sum_l d_l eps d^l s11 - 2 sigma s11 - sum_l Q_l dx_l s12 = 2 Re mu_11
      2: -eta s12   + zeta0 sum_l d_l eta d^l s12 + sum_l Q_l dx_l s11              = 2 Re mu_12
      3: -eps dt s21 + zeta0 sum_l d_l eps d^l s11 - 2 sigma s21 - sum_l Q_l dx_l s22 = 2 Re mu_21
      4: -eta s22   + zeta0 sum_l d_l eta d^l s22 + sum_l Q_l dx_l s21              = 2 Re mu_22

    The ``symmetrized`` variant inserts the missing time derivatives in
    rows 2/4 (-eta dt sigma) and replaces row 3's d^l sigma_11 with
    d^l sigma_21.  Spatial derivatives are dropped for single-window data
    (noted in ``skipped``), and so is the bend term of a block whose
    gradient (grad eps or grad eta at x0) is exactly zero (its blocks named
    in ``skipped["zero_bend"]``); mu_uf_rhs maps '11'.. to (n_t, B, 3, 3)
    arrays of 2 Re mu blocks.
    """
    if traj.case != "scalar_smooth":
        raise ValueError("variable rows need a scalar_smooth trajectory")
    if variant not in ("verbatim", "symmetrized"):
        raise ValueError("variant must be 'verbatim' or 'symmetrized'")
    sphere = traj.sphere
    centers = sphere.centers()
    x0 = traj.x_center
    epsv, etav, sigv = (float(f) for f in model.sample_fields(*x0))
    ge, gh = model.sample_gradients(*x0)
    zeta0 = centers[:, 0]
    s11, s12 = traj.data["s11"], traj.data["s12"]
    s21, s22 = traj.data["s21"], traj.data["s22"]
    tin, dts = _interior_times(traj.times)
    dt11, dt21 = _time_derivative(s11, traj.times), _time_derivative(s21, traj.times)
    verbatim = variant == "verbatim"
    row3_block = "s11" if verbatim else "s21"
    # bend[name] = zeta0 sum_l d_l(eps or eta) d^l sigma on the interior levels, (n_int, B, 3, 3),
    # for the blocks the variant's rows use; the levels ride along as a trailing axis of one
    # gradient call per block, taken along grad eps or grad eta.  The terms are made contiguous
    # once, or every weak pairing would copy them again.  A block whose coefficient vector is
    # exactly zero has an all-zero bend term; leaving it out changes no row, as adding 0.0 changes no sum.
    coeff = {"s11": ge, "s12": gh, "s21": ge, "s22": gh}
    bend, zero_bend = {}, []
    for name in dict.fromkeys(("s11", "s12", row3_block, "s22")):
        if not np.any(coeff[name]):
            zero_bend.append(name)
            continue
        g, _ = sphere_gradient(np.moveaxis(traj.data[name][1:-1], 0, -1), sphere, coeff[name])
        bend[name] = np.ascontiguousarray(np.moveaxis(zeta0[:, None, None, None] * g, -1, 0))

    i11, i12, i21, i22 = s11[1:-1], s12[1:-1], s21[1:-1], s22[1:-1]
    rows_spec = [
        ("1", [-epsv * dt11, bend.get("s11"), -2 * sigv * i11]),
        ("2", [-etav * (i12 if verbatim else _time_derivative(s12, traj.times)), bend.get("s12")]),
        ("3", [-epsv * dt21, bend.get(row3_block), -2 * sigv * i21]),
        ("4", [-etav * (i22 if verbatim else _time_derivative(s22, traj.times)), bend.get("s22")]),
    ]
    rows_spec = [(row, [t for t in terms if t is not None]) for row, terms in rows_spec]
    _subtract_rhs(rows_spec, mu_uf_rhs, ("11", "12", "21", "22"))
    keep, weights = _kept_weights(traj, _off_pole_bins(sphere))
    rows, max_rel = _weak_rows(rows_spec, tin, centers, weights, dts, traj.data.values())
    skipped = {"x_derivatives": "single spatial window: sum_l Q_l dx_l sigma terms dropped",
               "masked_bins": int((~keep).sum())}
    if zero_bend:
        skipped["zero_bend"] = zero_bend
    return TransportResidualReport(
        case="scalar_smooth",
        variant=variant,
        rows=rows,
        skipped=skipped,
        max_relative=max_rel,
    )


# ------------------------------------------------------- divergence constraint

def divergence_constraint_residual(
    positions: np.ndarray,
    fits: Sequence[DensityDecomposition],
    axis: int,
    mu_urho_rhs: Sequence[np.ndarray] | None = None,
) -> dict:
    """Weak residual of zeta_i^2 d_i(density) = 2 Re Tr mu_urho_11.

    ``fits`` are constant-case decompositions at window centroids spaced
    along one spatial axis (``positions``); derivatives along the other
    axes are unresolved and treated as zero (documented).  The derivative
    along ``axis`` is fourth order (``_derivative``: 5-point, biased at the
    end windows, one 3- or 4-point stencil for 3 or 4 windows) and is paired
    on the interior windows.  With fewer than three windows the constraint
    is skipped with a notice.  ``positions`` must be finite and strictly
    increasing, ``axis`` 0, 1 or 2, and ``fits`` and ``mu_urho_rhs`` hold one
    entry per position.  The bins are those of the fits' sphere, and fits
    made on different spheres are refused.
    """
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2: the spatial axis the windows are spaced along")
    positions = np.asarray(positions, float)
    if not (np.isfinite(positions).all() and (np.diff(positions) > 0).all()):
        raise ValueError(f"positions must be finite and strictly increasing, not {positions.tolist()}")
    if positions.size < 3:
        return {"skipped": True, "reason": "need >= 3 spatial windows for the divergence stencil"}
    if len(fits) != positions.size:
        raise ValueError(f"{positions.size} positions but {len(fits)} fits: one fit per window")
    if mu_urho_rhs is not None and len(mu_urho_rhs) != positions.size:
        raise ValueError(f"{positions.size} positions but {len(mu_urho_rhs)} mu_urho_rhs rows: one per window")
    sphere = fits[0].sphere
    centers = sphere.centers()
    data, common = _scatter_fits(fits, sphere)
    if common.size == 0:
        return {"skipped": True, "reason": "no common mass-carrying bins across windows"}
    interior = positions[1:-1]
    rows_spec = []
    for name, vals in data.items():
        lhs = (centers[None, :, 1 + axis] ** 2) * _derivative(vals, positions)[1:-1]
        rows_spec.append((name, [lhs[:, common]]))
    rhs = None if mu_urho_rhs is None else {"11": np.stack([np.asarray(m) for m in mu_urho_rhs])[:, common]}
    _subtract_rhs(rows_spec, rhs, ("11",) * len(rows_spec))
    rows, _ = _weak_rows(rows_spec, interior, centers[common], sphere.weights()[common], np.ones(interior.size),
                         data.values())
    densities = {name: {"max_relative": float(np.max([r["relative"] for r in rows if r["row"] == name]))}
                 for name, _ in rows_spec}
    return {"skipped": False, "densities": densities}


# -------------------------------------------------------------- predict/compare

def time_subwindow(grid: GridSpec, center: float, width: float) -> SeparableWindow:
    """Hann window in time centered at ``center``; identity in space."""
    if width < 4 * grid.spacing[0]:
        raise ValueError("time sub-window narrower than four grid steps")
    lo, hi = center - width / 2, center + width / 2
    if lo < 0 or hi > grid.extents[0]:
        raise ValueError("time sub-window leaves the sampled interval")
    return SeparableWindow((AxisWindow("hann", lo, hi),) + (AxisWindow("one"),) * 3)


@dataclass
class ComparisonReport:
    case: str
    t0: float
    t1: float
    total_mass_t0: float
    total_mass_t1: float
    predicted_total_mass_t1: float
    mass_ratio: float
    predicted_ratio: float
    per_bin_l1_discrepancy: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def predict_then_compare(
    family: OscillatingFamily,
    model: MaterialModel,
    t0: float,
    t1: float,
    sphere: SphereGrid | None = None,
    window_width: float | None = None,
) -> ComparisonReport:
    """Estimate at t0, evolve densities by the transport law, re-estimate at t1.

    Constant case: the electric trace mass damps like exp(-2 sigma dt / eps)
    while the magnetic trace mass rides along (the curl-trace transport
    coefficients vanish identically, so bins do not move).  Smooth-scalar
    case: each fitted bin's branch shares ride the rays (RK4 step
    ``RAY_DT``, one ``integrate_rays`` call per branch from the box centre)
    and are re-binned by their end 4-vector (zeta0, zeta') as it is, with
    the electric fraction damped by exp(-2 sigma dt / eps).  A ray that ends at
    the zero direction or at a non-finite one has no bin to carry its mass
    to, and is refused (ValueError).  The estimates at t0 and t1 are the
    caller's own objects when the caller holds estimates of this family for
    equal windows and sphere (``estimate_hmeasure`` returns a live estimate
    again).
    """
    sphere = sphere or SphereGrid()
    grid = family.grid
    if window_width is None:
        window_width = max(abs(t1 - t0) / 2.0, 8 * grid.spacing[0])
    w0 = time_subwindow(grid, t0, window_width)
    w1 = time_subwindow(grid, t1, window_width)
    est0 = estimate_hmeasure(family, w0, sphere=sphere)
    est1 = estimate_hmeasure(family, w1, sphere=sphere)
    dt = t1 - t0
    bins0, bins1 = est0.bins, est1.bins
    massE0 = np.trace(bins0[:, :3, :3], axis1=1, axis2=2).real
    massH0 = np.trace(bins0[:, 3:, 3:], axis1=1, axis2=2).real
    if model.is_constant:
        epsv, _, sig = (float(f) for f in model.sample_fields(0.0, 0.0, 0.0))
        pred = massE0 * np.exp(-2 * sig * dt / epsv) + massH0
        details = {"law": "electric x exp(-2 sigma dt/eps); magnetic constant; stationary bins"}
    else:
        x_bar = np.asarray(grid.extents[1:]) / 2.0
        fit = fit_modal_decomposition(est0, model, x_bar)
        epsv, _, sig = (float(f) for f in model.sample_fields(*x_bar))
        damp = np.exp(-2 * sig * dt / epsv)
        pred = np.zeros(sphere.num_bins)
        masses0 = est0.masses()
        idx = fit.bin_indices
        c = {name: np.abs(v) for name, v in fit.coefficients.items()}
        cp, cm = c["ap"] + c["bp"], c["am"] + c["bm"]
        tot = np.maximum(cp + cm + c["a0"] + c["b0"], 1e-300)
        m = masses0[idx]
        vecs = sphere.centers()[idx]
        # static bins keep their direction; each bin's branch shares ride rays and are re-binned
        for weight, branch in ((cp / tot, "+"), (cm / tot, "-")):
            live = weight >= 1e-12
            paths = integrate_rays(model, x_bar, vecs[live, 1:], (t0, t1), branch=branch, zeta0=vecs[live, 0])
            new_vecs = np.column_stack([vecs[live, 0], np.reshape([p.zetaPs[-1] for p in paths], (-1, 3))])
            targets = sphere.locate(new_vecs)
            if np.any(targets < 0):
                raise ValueError(f"{np.count_nonzero(targets < 0)} rays end at the zero direction, which has no bin")
            np.add.at(pred, targets, weight[live] * m[live] * (0.5 * damp + 0.5))  # transverse: half electric
        pred[idx] += (c["a0"] * damp + c["b0"]) / tot * m  # static longitudinal split
        leftover = np.ones(sphere.num_bins, dtype=bool)
        leftover[idx] = False
        pred[leftover] += masses0[leftover]
        details = {"law": "modal-branch rays + exp(-2 sigma dt/eps) on the electric half"}
    mass1 = est1.masses()
    total0 = float(massE0.sum() + massH0.sum())
    total1 = float(mass1.sum())
    pred_total = float(pred.sum())
    l1 = float(np.abs(pred - mass1).sum() / max(total1, 1e-300))
    return ComparisonReport(
        case=model.kind,
        t0=t0,
        t1=t1,
        total_mass_t0=total0,
        total_mass_t1=total1,
        predicted_total_mass_t1=pred_total,
        mass_ratio=total1 / max(total0, 1e-300),
        predicted_ratio=pred_total / max(total0, 1e-300),
        per_bin_l1_discrepancy=l1,
        details=details,
    )
