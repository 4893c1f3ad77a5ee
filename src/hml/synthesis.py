"""Synthetic oscillating field families with known microlocal content.

Families are sampled 6-component complex fields u = (E, H) on a periodic
spacetime grid, one array per scale in a decreasing epsilon ladder,
optionally with the Maxwell residual recorded as a source term f and the
electric charge rho = div E.  Generators:

* plane_wave_family: constant-coefficient modulated plane waves polarized
  along one of the six eigenmodes, with the envelope commutator recorded
  as the source.
* evolved_family / exact_constant_evolution: spectral matrix-exponential
  solution of the constant-coefficient system (the source is exactly zero).
* wkb_family: variable-coefficient phase/amplitude fields aligned with a
  local eigenmode; the Maxwell residual is measured spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .grids import GridSpec, SeparableWindow
from .symbols import (
    EigenStructure,
    FrequencyDirection,
    MaterialModel,
    UnsupportedGeneratorError,
    _mode_vectors,
    assemble_system_matrices,
    dispersion_matrix,
    eigen_structure,
)

__all__ = [
    "OscillatingFamily",
    "PhaseField",
    "ladder_epsilons",
    "plane_wave_family",
    "exact_constant_evolution",
    "evolved_family",
    "wkb_family",
    "charge_density",
    "linear_phase",
    "layered_phase",
]


# |grad_x S| below this inside a WKB amplitude's support has no direction.
GRAD_FLOOR = 1e-8
# Simpson cells of the travel-time table of ``layered_phase``.
LAYER_QUADRATURE_CELLS = 4096


class AliasingError(ValueError):
    """Raised when an oscillation would fall under four samples per cycle."""


@dataclass
class OscillatingFamily:
    """Fields u^eps = (E, H), optional sources f^eps and charge rho^eps.

    ``fields[eps]`` has shape (6,) + grid.shape, complex; sources match;
    charge has shape grid.shape.  Epsilons are strictly decreasing.
    """

    grid: GridSpec
    epsilons: tuple
    fields: dict
    sources: dict | None = None
    charge: dict | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        self.epsilons = eps
        for e in eps:
            if self.fields[e].shape != (6,) + self.grid.shape:
                raise ValueError("field array shape mismatch with grid")

    @property
    def finest(self) -> float:
        return self.epsilons[-1]

    def min_cells_per_wavelength(self) -> float:
        return float(self.metadata.get("min_cells_per_wavelength", np.inf))


def ladder_epsilons(j_start: int = 4, j_stop: int = 8) -> tuple:
    """Default dyadic ladder 2^-j, j = j_start .. j_stop."""
    return tuple(2.0 ** (-j) for j in range(j_start, j_stop + 1))


def _aliasing_guard(grid: GridSpec, epsilons: Sequence[float], rates: Sequence[float]) -> float:
    """Worst samples per oscillation cycle over the ladder; inf if static.

    ``rates`` are the per-axis maximal phase rates (t, x1, x2, x3); at scale
    eps the carrier index along an axis is rate * extent / eps.  Raises
    AliasingError when any scale falls under four cells per wavelength.
    """
    worst = np.inf
    for e in epsilons:
        cells = np.inf
        for n, rate, extent in zip(grid.shape, rates, grid.extents):
            m = rate * extent / e
            if abs(m) > 1e-12:
                cells = min(cells, n / abs(m))
        worst = min(worst, cells)
        if cells < 4.0:
            raise AliasingError(
                f"eps={e}: oscillation resolved by {cells:.2f} cells/wavelength (< 4)"
            )
    return worst


def _mode_frequency(model: MaterialModel, k: np.ndarray, mode: str) -> float:
    """Temporal rate c so that b_mode * exp(2 pi i (x.k + c t)/eps) solves Maxwell."""
    v = model.speed_at((0.0, 0.0, 0.0))
    r = float(np.linalg.norm(k))
    if mode.startswith("long"):
        return 0.0
    if "+" in mode:
        return -v * r
    return v * r


def plane_wave_family(
    model: MaterialModel,
    grid: GridSpec,
    k: Sequence[float],
    mode: str,
    envelope: SeparableWindow,
    epsilons: Sequence[float],
) -> OscillatingFamily:
    """Modulated plane wave polarized along one eigenmode of the symbol.

    u^eps(t,x) = envelope(t,x) * b_mode * exp(2 pi i (x.k + c t)/eps) where
    c matches the mode's eigenvalue relation, so the oscillatory part of
    the Maxwell residual cancels; what remains (envelope commutator plus
    conduction) is recorded in the sources.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError("plane_wave_family requires a constant model")
    if mode not in EigenStructure.MODE_ORDER:
        raise ValueError(f"unknown mode {mode!r}")
    k = np.asarray(k, dtype=float).reshape(3)
    if np.linalg.norm(k) == 0:
        raise ValueError("wavevector must be nonzero")
    c = _mode_frequency(model, k, mode)
    b = eigen_structure(model, (0.0, 0.0, 0.0), FrequencyDirection(0.0, k)).vector(mode)
    A0, A1, A2, A3, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    P4 = c * A0 + k[0] * A1 + k[1] * A2 + k[2] * A3
    Pb = P4 @ b  # zero to rounding by the eikonal relation

    t, x1, x2, x3 = grid.meshes()
    sphase = x1 * k[0] + x2 * k[1] + x3 * k[2] + c * t
    env = envelope.sample(grid)
    genv = envelope.sample_gradient(grid)

    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    worst_cells = _aliasing_guard(grid, eps_list, (c, *k))

    Acoef = (A0, A1, A2, A3)
    fields, sources = {}, {}
    for e in eps_list:
        osc = np.exp((2j * np.pi / e) * sphase)
        u = (env * osc)[None, ...] * b.reshape(6, 1, 1, 1, 1)
        fields[e] = u
        # residual: sum_l A^l b d_l(env) * osc + C b env * osc + (2 pi i/eps) env osc P b
        res = np.zeros((6,) + grid.shape, dtype=np.complex128)
        for l in range(4):
            coeff = Acoef[l] @ b
            res += coeff.reshape(6, 1, 1, 1, 1) * (genv[l] * osc)[None, ...]
        res += (C @ b).reshape(6, 1, 1, 1, 1) * (env * osc)[None, ...]
        res += (2j * np.pi / e) * Pb.reshape(6, 1, 1, 1, 1) * (env * osc)[None, ...]
        sources[e] = res

    meta = {
        "generator": "plane_wave",
        "k": k.tolist(),
        "mode": mode,
        "temporal_rate": c,
        "min_cells_per_wavelength": worst_cells,
        "envelope": envelope.describe(),
    }
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=sources, metadata=meta)


def _spatial_ode_matrices(model: MaterialModel, grid: GridSpec) -> np.ndarray:
    """M(xi) = -2 pi i L(xi) - A0^{-1} C on the spatial frequency lattice."""
    A0, *_, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    xi = np.stack(np.meshgrid(*(grid.freq_axis(1 + j) for j in range(3)), indexing="ij"), axis=-1)
    return -2j * np.pi * dispersion_matrix(model, (0.0, 0.0, 0.0), xi) - np.linalg.inv(A0) @ C


def exact_constant_evolution(
    model: MaterialModel, initial: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Exact spectral solution of A0 du/dt + sum_j A^j d_j u + C u = 0.

    ``initial`` has shape (6,) + spatial shape; the result covers all grid
    times via one matrix exponential per spatial frequency, applied as a
    one-step propagator on the uniform time axis.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError("exact evolution requires a constant model")
    initial = np.asarray(initial)
    if initial.shape != (6,) + grid.spatial_shape:
        raise ValueError("initial data shape mismatch")
    dt = grid.spacing[0]
    M = _spatial_ode_matrices(model, grid)
    prop = scipy.linalg.expm(M * dt)
    uhat = np.fft.fftn(initial, axes=(1, 2, 3))
    uhat = np.moveaxis(uhat, 0, -1)  # (..., 6)
    nt = grid.shape[0]
    out = np.empty((nt,) + grid.spatial_shape + (6,), dtype=np.complex128)
    cur = uhat
    for n in range(nt):
        out[n] = cur
        if n + 1 < nt:
            cur = np.einsum("...ij,...j->...i", prop, cur)
    out = np.moveaxis(out, -1, 0)  # (6, nt, ...)
    return np.fft.ifftn(out, axes=(2, 3, 4))


def evolved_family(
    model: MaterialModel,
    grid: GridSpec,
    k: Sequence[float],
    mode: str,
    epsilons: Sequence[float],
    spatial_envelope: SeparableWindow | None = None,
) -> OscillatingFamily:
    """Exact constant-coefficient solutions seeded with a polarized oscillation.

    Initial data b_mode * env(x) * exp(2 pi i x.k/eps) evolved exactly; the
    source term is identically zero, so these families satisfy every
    hypothesis of the propagation theorems at the discrete level.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError("evolved_family requires a constant model")
    k = np.asarray(k, dtype=float).reshape(3)
    b = eigen_structure(model, (0.0, 0.0, 0.0), FrequencyDirection(0.0, k)).vector(mode)
    c = _mode_frequency(model, k, mode)
    x1, x2, x3 = grid.spatial_meshes()
    sphase = x1 * k[0] + x2 * k[1] + x3 * k[2]
    if spatial_envelope is None:
        env = np.ones(grid.spatial_shape)
    else:
        tf = spatial_envelope.factors
        env = tf[1](x1) * tf[2](x2) * tf[3](x3)

    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    worst_cells = _aliasing_guard(grid, eps_list, (c, *k))
    fields = {}
    for e in eps_list:
        u0 = (env * np.exp((2j * np.pi / e) * sphase))[None, ...] * b.reshape(6, 1, 1, 1)
        fields[e] = exact_constant_evolution(model, u0, grid)

    meta = {
        "generator": "evolved",
        "k": k.tolist(),
        "mode": mode,
        "temporal_rate": c,
        "min_cells_per_wavelength": worst_cells,
    }
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=None, metadata=meta)


@dataclass(frozen=True)
class PhaseField:
    """Smooth phase S(t, x) with analytic 4-gradient, for WKB synthesis."""

    value: Callable
    grad: Callable  # returns (dS/dt, dS/dx1, dS/dx2, dS/dx3)
    label: str = "phase"


def linear_phase(k: Sequence[float], c: float) -> PhaseField:
    """S(t, x) = x.k + c t."""
    k = np.asarray(k, dtype=float).reshape(3)

    def value(t, x1, x2, x3):
        return c * t + k[0] * x1 + k[1] * x2 + k[2] * x3

    def grad(t, x1, x2, x3):
        shape = np.broadcast(t, x1, x2, x3).shape
        return (
            np.full(shape, c),
            np.full(shape, k[0]),
            np.full(shape, k[1]),
            np.full(shape, k[2]),
        )

    return PhaseField(value=value, grad=grad, label=f"linear(k={k.tolist()},c={c})")


def layered_phase(model: MaterialModel, axis: int = 0, sign: str = "+", x_max: float = 1.0) -> PhaseField:
    """Eikonal phase for a medium layered along one spatial axis.

    S(t, x) = q(x_axis) - t for the '+' transverse branch (dS/dt = -v|grad S|)
    or q(x_axis) + t for '-', with q' = 1/v along the axis.  q is tabulated
    by composite Simpson quadrature on ``LAYER_QUADRATURE_CELLS`` cells of
    [0, x_max] and interpolated.  eps and eta are sampled on the axis line
    through the origin by ``MaterialModel.sample_fields``, for the table and
    for the gradient, so its bound and domain checks apply to both.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    from scipy.integrate import cumulative_simpson  # local: the import adds ~20 MB resident to every run

    def speed(xs):
        xs = np.asarray(xs, dtype=float)
        coords = [np.zeros_like(xs)] * 3
        coords[axis] = xs
        eps, eta, _ = model.sample_fields(*coords)
        return 1.0 / np.sqrt(eps * eta)

    s = np.linspace(0.0, x_max, LAYER_QUADRATURE_CELLS + 1)
    q_tab = np.concatenate([[0.0], cumulative_simpson(1.0 / speed(s), x=s)])
    tsign = -1.0 if sign == "+" else 1.0

    def value(t, x1, x2, x3):
        xs = (x1, x2, x3)[axis]
        return np.interp(xs, s, q_tab) + tsign * t

    def grad(t, x1, x2, x3):
        shape = np.broadcast(t, x1, x2, x3).shape
        g = [np.broadcast_to(np.float64(tsign), shape).copy(), np.zeros(shape), np.zeros(shape), np.zeros(shape)]
        g[1 + axis] = np.broadcast_to(1.0 / speed((x1, x2, x3)[axis]), shape).copy()
        return tuple(g)

    return PhaseField(value=value, grad=grad, label=f"layered(axis={axis},{sign})")


def _spectral_derivative(arr: np.ndarray, grid: GridSpec, axis_of_grid: int) -> np.ndarray:
    """d/d(axis) via the periodic DFT; arr has a leading component axis."""
    ax = 1 + axis_of_grid
    freq = grid.freq_axis(axis_of_grid)
    shape = [1] * arr.ndim
    shape[ax] = -1
    ahat = np.fft.fft(arr, axis=ax)
    ahat *= 2j * np.pi * freq.reshape(shape)
    return np.fft.ifft(ahat, axis=ax)


def maxwell_residual(model: MaterialModel, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """f = A0(x) du/dt + sum_j A^j d_j u + C(x) u, derivatives spectral."""
    epsf, etaf, sigf = (f[None, ...] for f in model.sample_fields(*grid.spatial_meshes()))
    dt_u = _spectral_derivative(u, grid, 0)
    res = np.empty_like(u)
    res[:3] = epsf * dt_u[:3] + sigf * u[:3]
    res[3:] = etaf * dt_u[3:]
    # curl terms: top -= curl(H), bottom += curl(E)
    d = [_spectral_derivative(u, grid, 1 + j) for j in range(3)]
    curlE = np.stack([
        d[1][2] - d[2][1],
        d[2][0] - d[0][2],
        d[0][1] - d[1][0],
    ])
    curlH = np.stack([
        d[1][5] - d[2][4],
        d[2][3] - d[0][5],
        d[0][4] - d[1][3],
    ])
    res[:3] -= curlH
    res[3:] += curlE
    return res


def wkb_family(
    model: MaterialModel,
    grid: GridSpec,
    phase: PhaseField,
    amplitude: SeparableWindow,
    mode: str,
    epsilons: Sequence[float],
) -> OscillatingFamily:
    """Variable-coefficient WKB fields a(t,x) b_mode(x, grad S) e^{2 pi i S/eps}.

    The Maxwell residual is evaluated spectrally per scale and recorded as
    the source; when the phase satisfies the mode's eikonal relation the
    residual stays O(1) in L2 as eps decreases.  Raises ValueError where
    |grad_x S| < ``GRAD_FLOOR`` inside the amplitude support.
    """
    t, x1, x2, x3 = grid.meshes()
    S = np.asarray(phase.value(t, x1, x2, x3)) + 0.0 * (t + x1 + x2 + x3)
    g = phase.grad(t, x1, x2, x3)
    gx = np.stack([np.broadcast_to(np.asarray(g[1 + j], dtype=float), grid.shape) for j in range(3)])
    amp = amplitude.sample(grid)
    gnorm = np.sqrt(np.sum(gx**2, axis=0))
    support = np.abs(amp) > 1e-13
    if np.any(gnorm[support] < GRAD_FLOOR):
        raise ValueError("grad_x S vanishes inside the amplitude support")

    # off-support points get a dummy direction so the basis stays defined
    filler = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1, 1, 1)
    zp_safe = np.where((gnorm < GRAD_FLOOR)[None, ...], filler, gx)
    eps, eta, _ = model.sample_fields(x1, x2, x3)
    pol = _mode_vectors(zp_safe, eps, eta, (mode,))[:, 0]
    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    gt = np.broadcast_to(np.asarray(g[0], dtype=float), grid.shape)
    rates = [np.max(np.abs(gr[support]), initial=0.0) for gr in (gt, *gx)]
    worst_cells = _aliasing_guard(grid, eps_list, rates)

    fields, sources = {}, {}
    for e in eps_list:
        u = (amp * np.exp((2j * np.pi / e) * S))[None, ...] * pol
        fields[e] = u
        sources[e] = maxwell_residual(model, u, grid)

    meta = {
        "generator": "wkb",
        "mode": mode,
        "phase": phase.label,
        "min_cells_per_wavelength": worst_cells,
    }
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=sources, metadata=meta)


def charge_density(family: OscillatingFamily) -> dict:
    """rho^eps = div E^eps via the spectral divergence, one array per scale."""
    out = {}
    for e in family.epsilons:
        u = np.asarray(family.fields[e], dtype=np.complex128)
        rho = np.zeros(family.grid.shape, dtype=np.complex128)
        for j in range(3):
            rho += _spectral_derivative(u[j : j + 1], family.grid, 1 + j)[0]
        out[e] = rho
    return out

