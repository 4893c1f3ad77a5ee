"""Synthetic oscillating field families with known microlocal content.

Families are sampled 6-component complex fields u = (E, H) on a periodic
spacetime grid, one entry per scale in a decreasing epsilon ladder,
optionally with the Maxwell residual recorded as a source term f.  The
electric charge rho = div E is computed on demand (``charge_density``).

An entry is either a (6,) + grid array or a ``FactoredField``: a constant
polarization factor V (6, r) with orthonormal columns and r scalar fields
s, with u = V s.  An H-measure moves with a constant matrix, mu_{Vs} =
V mu_s V^H (Tartar 1990), so the estimator and ``charge_density`` work on
the r scalars; a plain array is the r = 6, V = I case.  The full array of
a factored entry is formed only by ``FactoredField.materialise``, which
``np.asarray`` calls.
Generators:

* plane_wave_family: constant-coefficient modulated plane waves polarized
  along one of the six eigenmodes (rank-one fields), with the envelope
  commutator recorded as the source (rank five).
* evolved_family / exact_constant_evolution: spectral matrix-exponential
  solution of the constant-coefficient system (the source is exactly zero).
* wkb_family: variable-coefficient phase/amplitude fields aligned with a
  local eigenmode; the Maxwell residual is measured spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from .grids import GridSpec, SeparableWindow, fft_workers
from .symbols import (
    A_MATRICES,
    MaterialModel,
    UnsupportedGeneratorError,
    assemble_P,
    assemble_system_matrices,
    mode_vectors,
)

__all__ = [
    "FactoredField",
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


@dataclass(frozen=True, eq=False)
class FactoredField:
    """A field u = V s held as its factors.

    ``V`` (p, r) has orthonormal columns and ``s`` (r,) + grid holds the r
    scalar fields, so |u|^2 = |s|^2 pointwise and in every Fourier mode.
    ``shape`` is the shape of u; ``materialise`` (and so ``np.asarray``)
    is the one method that forms it.
    """

    V: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        V = self.V
        if V.ndim != 2 or V.shape[1] != self.s.shape[0]:
            raise ValueError(f"polarization factor of shape {V.shape} does not match {self.s.shape[0]} scalars")
        if not np.allclose(V.conj().T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12):
            raise ValueError("polarization factor columns are not orthonormal")

    @classmethod
    def from_polarization(cls, V, s) -> FactoredField:
        """The factors of u = V s, V's columns made orthonormal by one QR (s <- R s)."""
        Q, R = np.linalg.qr(np.asarray(V, dtype=np.complex128))
        return cls(Q, np.tensordot(R, s, axes=1))

    @classmethod
    def of(cls, u) -> FactoredField:
        """``u`` if it is factored, else the (p,) + grid array u as V = I, s = u."""
        if isinstance(u, cls):
            return u
        u = np.asarray(u)
        return cls(np.eye(u.shape[0]), u)

    @property
    def shape(self) -> tuple:
        return self.V.shape[:1] + self.s.shape[1:]

    @property
    def rank(self) -> int:
        return self.V.shape[1]

    def materialise(self) -> np.ndarray:
        """The full (p,) + grid array V s."""
        return np.tensordot(self.V, self.s, axes=1)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a factored field has no array to view without a copy")
        u = self.materialise()
        return u if dtype is None else u.astype(dtype, copy=False)

    def __eq__(self, other):
        # Python's fallback would compare identities and answer one bool for every entry
        raise TypeError("a factored field has no elementwise comparison; compare np.asarray(field)")

    __ne__ = __eq__
    __hash__ = object.__hash__


@dataclass
class OscillatingFamily:
    """Fields u^eps = (E, H) and optional sources f^eps.

    ``fields[eps]`` and ``sources[eps]`` are (6,) + grid.shape complex
    arrays or ``FactoredField`` entries of that shape; ``np.asarray`` gives
    the full array of either.  Epsilons are strictly decreasing, every scale
    has a field (and a source when there are sources), and every entry is
    finite.  The checks read the factors V and s, never the full array.
    """

    grid: GridSpec
    epsilons: tuple
    fields: dict
    sources: dict | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 1 or any(e <= 0 for e in eps):
            raise ValueError("epsilons must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        self.epsilons = eps
        shape = (6,) + self.grid.shape
        for e in eps:
            entries = []
            for name, held in (("field", self.fields), ("source", self.sources)):
                if held is None:
                    continue
                u = FactoredField.of(held[e]) if e in held else None
                if u is None or u.shape != shape:
                    raise ValueError(f"{name} at eps={e} missing or not of shape {shape}")
                entries.append(u)
            if not all(np.isfinite(a).all() for u in entries for a in (u.V, u.s)):
                raise ValueError(f"non-finite field or source entry at eps={e}")

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


def _constant_mode(model: MaterialModel, k, mode: str, generator: str) -> tuple:
    """(k, b, c) of a constant model's mode: b * exp(2 pi i (x.k + c t)/eps) solves Maxwell.

    Reads eps and eta at the origin once.  Raises UnsupportedGeneratorError,
    naming ``generator``, for a non-constant model and
    DegenerateDirectionError where k = 0.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError(f"{generator} requires a constant model")
    k = np.asarray(k, dtype=float).reshape(3)
    eps, eta, _ = (float(f) for f in model.sample_fields(0.0, 0.0, 0.0))
    b = mode_vectors(k, eps, eta, (mode,))[:, 0]
    vr = 1.0 / np.sqrt(eps * eta) * float(np.linalg.norm(k))
    c = 0.0 if mode.startswith("long") else -vr if "+" in mode else vr
    return k, b, c


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
    conduction) is recorded in the sources.  Both are ``FactoredField``
    entries: the field is b times one scalar, the source the 6 x 5 matrix
    [A0 b, A1 b, A2 b, A3 b, C b + (2 pi i/eps) P b] times
    [d_t env, d_1 env, d_2 env, d_3 env, env] * osc.
    """
    k, b, c = _constant_mode(model, k, mode, "plane_wave_family")
    A0, A1, A2, A3, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    Ab = np.stack((A0, A1, A2, A3)) @ b
    Pb = np.array((c, *k)) @ Ab  # zero to rounding by the eikonal relation

    t, x1, x2, x3 = grid.meshes()
    sphase = x1 * k[0] + x2 * k[1] + x3 * k[2] + c * t
    # (d_t env, d_1 env, d_2 env, d_3 env, env)
    envs = np.concatenate([envelope.sample_gradient(grid), envelope.sample(grid)[None, ...]])

    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    worst_cells = _aliasing_guard(grid, eps_list, (c, *k))

    fields, sources = {}, {}
    for e in eps_list:
        S = envs * np.exp((2j * np.pi / e) * sphase)
        fields[e] = FactoredField.from_polarization(b[:, None], S[4:])
        # residual: sum_l A^l b d_l(env) osc + (C b + (2 pi i/eps) P b) env osc
        V = np.column_stack([*Ab, C @ b + (2j * np.pi / e) * Pb])
        sources[e] = FactoredField.from_polarization(V, S)

    meta = {
        "generator": "plane_wave",
        "k": k.tolist(),
        "mode": mode,
        "temporal_rate": c,
        "min_cells_per_wavelength": worst_cells,
        "envelope": envelope.describe(),
    }
    return OscillatingFamily(grid=grid, epsilons=eps_list, fields=fields, sources=sources, metadata=meta)


def _propagator(model: MaterialModel, grid: GridSpec) -> np.ndarray:
    """One time step expm(M dt) of u^ = M u^, M(xi) = -A0^{-1}(2 pi i P(0, xi) + C), per spatial frequency."""
    A0, *_, C = assemble_system_matrices(model, (0.0, 0.0, 0.0))
    xi = np.meshgrid(*(grid.freq_axis(1 + j) for j in range(3)), indexing="ij")
    P = assemble_P(model, (0.0, 0.0, 0.0), np.stack([np.zeros_like(xi[0]), *xi], axis=-1))
    return scipy.linalg.expm(-np.linalg.inv(A0) @ (2j * np.pi * P + C) * grid.spacing[0])


def _evolve(prop: np.ndarray, initial: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Step spatial data (6,) + spatial shape through every grid time with ``prop``."""
    out = np.empty((grid.shape[0],) + grid.spatial_shape + (6,), dtype=np.complex128)
    # axes last to first, the order np.fft takes them, so the result matches it bit for bit
    out[0] = np.moveaxis(scipy.fft.fftn(initial, axes=(3, 2, 1), workers=fft_workers()), 0, -1)
    for n in range(1, grid.shape[0]):
        out[n] = np.einsum("...ij,...j->...i", prop, out[n - 1])
    return scipy.fft.ifftn(np.moveaxis(out, -1, 0), axes=(4, 3, 2), workers=fft_workers())  # (6, nt, ...)


def exact_constant_evolution(
    model: MaterialModel, initial: np.ndarray, grid: GridSpec
) -> np.ndarray:
    """Exact spectral solution of A0 du/dt + sum_j A^j d_j u + C u = 0.

    ``initial`` has shape (6,) + spatial shape; the result covers all grid
    times via one matrix exponential per spatial frequency, the propagator
    expm(M dt) with M(xi) = -A0^{-1}(2 pi i P(0, xi) + C), applied as a
    one-step map on the uniform time axis.
    """
    if not model.is_constant:
        raise UnsupportedGeneratorError("exact evolution requires a constant model")
    initial = np.asarray(initial)
    if initial.shape != (6,) + grid.spatial_shape:
        raise ValueError("initial data shape mismatch")
    return _evolve(_propagator(model, grid), initial, grid)


def evolved_family(
    model: MaterialModel,
    grid: GridSpec,
    k: Sequence[float],
    mode: str,
    epsilons: Sequence[float],
    spatial_envelope: SeparableWindow | None = None,
) -> OscillatingFamily:
    """Exact constant-coefficient solutions seeded with a polarized oscillation.

    Initial data b_mode * env(x) * exp(2 pi i x.k/eps) evolved exactly, as
    in ``exact_constant_evolution``, with one propagator for the whole
    ladder (it does not depend on eps); the source term is identically
    zero, so these families satisfy every hypothesis of the propagation
    theorems at the discrete level.
    """
    k, b, c = _constant_mode(model, k, mode, "evolved_family")
    x1, x2, x3 = grid.spatial_meshes()
    sphase = x1 * k[0] + x2 * k[1] + x3 * k[2]
    if spatial_envelope is None:
        env = np.ones(grid.spatial_shape)
    else:
        tf = spatial_envelope.factors
        env = tf[1](x1) * tf[2](x2) * tf[3](x3)

    eps_list = tuple(sorted((float(e) for e in epsilons), reverse=True))
    worst_cells = _aliasing_guard(grid, eps_list, (c, *k))
    prop = _propagator(model, grid)
    fields = {}
    for e in eps_list:
        u0 = (env * np.exp((2j * np.pi / e) * sphase))[None, ...] * b.reshape(6, 1, 1, 1)
        fields[e] = _evolve(prop, u0, grid)

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
    [0, x_max] and interpolated.  v is read on the axis line through the
    origin by ``MaterialModel.speed``, for the table and for the gradient,
    so its bound and domain checks apply to both.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    from scipy.integrate import cumulative_simpson  # local: the import adds ~20 MB resident to every run

    def speed(xs):
        xs = np.asarray(xs, dtype=float)
        coords = [np.zeros_like(xs)] * 3
        coords[axis] = xs
        return model.speed(*coords)[0]

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
    ahat = scipy.fft.fft(arr, axis=ax, workers=fft_workers())
    ahat *= 2j * np.pi * freq.reshape(shape)
    return scipy.fft.ifft(ahat, axis=ax, workers=fft_workers())


def maxwell_residual(model: MaterialModel, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """f = A0(x) du/dt + sum_j A^j d_j u + C(x) u, derivatives spectral.

    The curl part is added one axis at a time from ``A_MATRICES``, each A^j
    differentiating only the four components it reads.
    """
    u = np.asarray(u)
    epsf, etaf, sigf = (f[None, ...] for f in model.sample_fields(*grid.spatial_meshes()))
    res = _spectral_derivative(u, grid, 0)
    res[:3] *= epsf
    res[:3] += sigf * u[:3]
    res[3:] *= etaf
    for j, A in enumerate(A_MATRICES):
        c = np.flatnonzero(A.any(axis=0))  # the four components A^j reads
        res += np.tensordot(A[:, c], _spectral_derivative(u[c], grid, 1 + j), axes=1)
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
    pol = mode_vectors(zp_safe, eps, eta, (mode,))[:, 0]
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
    """rho^eps = div E^eps via the spectral divergence, one array per scale.

    Each E_j = sum_k V_jk s_k is formed from the factors and differentiated
    along x_j, so a rank-one field costs three scalar derivative pairs and
    the full field is never formed.
    """
    out = {}
    for e in family.epsilons:
        u = FactoredField.of(family.fields[e])
        rho = np.zeros(family.grid.shape, dtype=np.complex128)
        for j in range(3):
            rho += _spectral_derivative(np.tensordot(u.V[j], u.s, axes=1)[None], family.grid, 1 + j)[0]
        out[e] = rho
    return out
