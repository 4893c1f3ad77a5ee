"""Discretized H-measures from windowed 4-D cross-spectra.

The defining quadratic limit is approximated at each scale of a family's
epsilon ladder: window the fields, take the full spacetime DFT, and
accumulate the component-pair outer products into direction bins on the
unit sphere of R^4, weighting every frequency shell equally (the radial
integral of the defining formula).  The finest-scale value is reported
together with the per-scale history.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft

from .grids import GridSpec, SeparableWindow
from .synthesis import AliasingError, OscillatingFamily

__all__ = [
    "SphereGrid",
    "HMeasureEstimate",
    "fourier_multiplier",
    "cutoff_multiply",
    "estimate_hmeasure",
    "correlation_measure",
    "source_fields",
    "charge_tilde_fields",
    "set_workers",
]

_WORKERS = None


def set_workers(n: int | None) -> None:
    """FFT worker threads; None (the default) means the CPU count."""
    global _WORKERS
    _WORKERS = n


def _workers() -> int:
    return _WORKERS if _WORKERS is not None else os.cpu_count() or 1


@dataclass(frozen=True)
class SphereGrid:
    """Product hyperspherical grid on S^3 with exact per-cell solid angles.

    Angles: chi1 in [0, pi] with zeta0 = cos(chi1); (theta, phi) polar
    coordinates of the spatial direction zeta' with zeta3 = |zeta'| cos(theta).
    Cell weights integrate sin^2(chi1) sin(theta) d(chi1) d(theta) d(phi)
    exactly, so they sum to the measure 2 pi^2 of S^3.
    """

    n_zeta0: int = 16
    n_theta: int = 16
    n_phi: int = 32

    def __post_init__(self):
        if min(self.n_zeta0, self.n_theta, self.n_phi) < 2:
            raise ValueError("need at least two cells per angle")

    @property
    def num_bins(self) -> int:
        return self.n_zeta0 * self.n_theta * self.n_phi

    @property
    def widths(self) -> tuple:
        return (np.pi / self.n_zeta0, np.pi / self.n_theta, 2 * np.pi / self.n_phi)

    @property
    def max_polar_width(self) -> float:
        return max(self.widths[0], self.widths[1])

    def angle_edges(self) -> tuple:
        e1 = np.linspace(0.0, np.pi, self.n_zeta0 + 1)
        e2 = np.linspace(0.0, np.pi, self.n_theta + 1)
        e3 = np.linspace(0.0, 2 * np.pi, self.n_phi + 1)
        return e1, e2, e3

    def centers_angles(self) -> np.ndarray:
        """(B, 3) array of cell-center angles (chi1, theta, phi)."""
        e1, e2, e3 = self.angle_edges()
        c1 = 0.5 * (e1[:-1] + e1[1:])
        c2 = 0.5 * (e2[:-1] + e2[1:])
        c3 = 0.5 * (e3[:-1] + e3[1:])
        grid = np.stack(np.meshgrid(c1, c2, c3, indexing="ij"), axis=-1)
        return grid.reshape(-1, 3)

    def centers(self) -> np.ndarray:
        """(B, 4) unit vectors at the cell-center angles."""
        ang = self.centers_angles()
        return self.angles_to_vec(ang)

    @staticmethod
    def angles_to_vec(ang: np.ndarray) -> np.ndarray:
        chi1, theta, phi = ang[..., 0], ang[..., 1], ang[..., 2]
        s1 = np.sin(chi1)
        return np.stack(
            [
                np.cos(chi1),
                s1 * np.sin(theta) * np.cos(phi),
                s1 * np.sin(theta) * np.sin(phi),
                s1 * np.cos(theta),
            ],
            axis=-1,
        )

    def weights(self) -> np.ndarray:
        """(B,) exact solid angles; sums to 2 pi^2."""
        e1, e2, e3 = self.angle_edges()
        w1 = 0.5 * (np.diff(e1) - 0.5 * (np.sin(2 * e1[1:]) - np.sin(2 * e1[:-1])))
        w2 = np.cos(e2[:-1]) - np.cos(e2[1:])
        w3 = np.diff(e3)
        return (w1[:, None, None] * w2[None, :, None] * w3[None, None, :]).reshape(-1)

    def flat_index(self, i1, i2, i3):
        return (np.asarray(i1) * self.n_theta + np.asarray(i2)) * self.n_phi + np.asarray(i3)

    def unflatten(self, b) -> tuple:
        """(chi1, theta, phi) cell indices of flat bin indices ``b`` (int or array)."""
        i3 = b % self.n_phi
        i2 = (b // self.n_phi) % self.n_theta
        i1 = b // (self.n_phi * self.n_theta)
        return i1, i2, i3

    def locate(self, vec4) -> np.ndarray:
        """Bin index of unit 4-vectors, shape-preserving; -1 for zero vectors."""
        v = np.asarray(vec4, dtype=float)
        single = v.ndim == 1
        v = np.atleast_2d(v)
        r = np.linalg.norm(v, axis=-1)
        ok = r > 0
        rs = np.where(ok, r, 1.0)
        z0 = v[..., 0] / rs
        chi1 = np.arccos(np.clip(z0, -1, 1))
        rp = np.linalg.norm(v[..., 1:], axis=-1)
        rp_safe = np.where(rp > 0, rp, 1.0)
        theta = np.arccos(np.clip(v[..., 3] / rp_safe, -1, 1))
        phi = np.mod(np.arctan2(v[..., 2], v[..., 1]), 2 * np.pi)
        i1 = np.clip((chi1 / np.pi * self.n_zeta0).astype(np.int64), 0, self.n_zeta0 - 1)
        i2 = np.clip((theta / np.pi * self.n_theta).astype(np.int64), 0, self.n_theta - 1)
        i3 = np.clip((phi / (2 * np.pi) * self.n_phi).astype(np.int64), 0, self.n_phi - 1)
        idx = np.where(ok, self.flat_index(i1, i2, i3), -1)
        return int(idx[0]) if single else idx

    def neighborhood(self, b: int) -> np.ndarray:
        """Flat indices of b and every cell whose closure touches b's.

        Box adjacency (phi wraps), plus pole sharing: all cells in a
        theta-pole ring (theta index 0 or n_theta-1, chi1 index within one)
        touch the polar curve, and all cells at a chi1 pole (index 0 or
        n_zeta0-1) share the corresponding point of S^3.
        """
        i1, i2, i3 = self.unflatten(b)
        out = set()
        for d1 in (-1, 0, 1):
            j1 = i1 + d1
            if not (0 <= j1 < self.n_zeta0):
                continue
            for d2 in (-1, 0, 1):
                j2 = i2 + d2
                if not (0 <= j2 < self.n_theta):
                    continue
                for d3 in (-1, 0, 1):
                    j3 = (i3 + d3) % self.n_phi
                    out.add(int(self.flat_index(j1, j2, j3)))
            # theta-pole rings: the whole phi circle is adjacent
            if i2 == 0:
                for j3 in range(self.n_phi):
                    out.add(int(self.flat_index(j1, 0, j3)))
                    out.add(int(self.flat_index(j1, min(1, self.n_theta - 1), j3)))
            if i2 == self.n_theta - 1:
                for j3 in range(self.n_phi):
                    out.add(int(self.flat_index(j1, self.n_theta - 1, j3)))
                    out.add(int(self.flat_index(j1, max(self.n_theta - 2, 0), j3)))
        if i1 == 0 or i1 == self.n_zeta0 - 1:
            ring = i1
            for j2 in range(self.n_theta):
                for j3 in range(self.n_phi):
                    out.add(int(self.flat_index(ring, j2, j3)))
        return np.array(sorted(out), dtype=np.int64)


# ------------------------------------------------------------------ binning

@functools.lru_cache(maxsize=4)
def _lattice_bins(grid: GridSpec, sphere: SphereGrid):
    """Flat bin index and unit direction of every DFT lattice frequency.

    Returns (idx, dirs): idx maps each flattened frequency to a sphere bin,
    with the DC frequency sent to the overflow slot B; dirs is a float32
    (4, Npts) array of unit directions (zeros at DC).  Grids and spheres are
    frozen, so the last few lattices are cached by value.
    """
    f0, f1, f2, f3 = grid.freq_meshes()
    r2 = (f0**2 + f1**2 + f2**2 + f3**2).ravel()
    r = np.sqrt(r2)
    ok = r > 0
    rs = np.where(ok, r, 1.0)
    units = np.stack([np.broadcast_to(f, grid.shape).ravel() / rs for f in (f0, f1, f2, f3)], axis=-1)
    # bins come from the float64 directions, as in fourier_multiplier; only the centroids use float32
    idx = sphere.locate(units)
    idx = np.where(ok, idx, sphere.num_bins).astype(np.int64)
    dirs = units.T.astype(np.float32, order="C")
    dirs[:, ~ok] = 0.0
    return idx, dirs


@dataclass
class HMeasureEstimate:
    """Binned matrix-valued spectral masses, with per-scale history.

    ``history[eps]`` has shape (B, p, q); the finest scale is exposed as
    ``bins``.  ``centroids[eps]`` holds per-bin mass-weighted mean
    directions (rows of NaN where a bin is empty), and ``dc_energy`` the
    separately-reported zero-frequency mass.
    """

    sphere: SphereGrid
    grid: GridSpec
    testpair: tuple
    epsilons: tuple
    history: dict
    centroids: dict
    dc_energy: dict
    metadata: dict = field(default_factory=dict)

    @property
    def bins(self) -> np.ndarray:
        return self.history[self.epsilons[-1]]

    @property
    def finest(self) -> float:
        return self.epsilons[-1]

    def masses(self, eps: float | None = None) -> np.ndarray:
        """Per-bin real trace mass at one scale (finest by default)."""
        h = self.history[self.finest if eps is None else eps]
        return np.trace(h, axis1=1, axis2=2).real

    def total_mass(self, eps: float | None = None) -> float:
        return float(self.masses(eps).sum())

    def hermitian_defect(self, eps: float | None = None) -> float:
        h = self.history[self.finest if eps is None else eps]
        denom = max(self.total_mass(eps), 1e-300)
        return float(np.max(np.abs(h - np.conj(np.transpose(h, (0, 2, 1))))) / denom)

    def min_eigen_ratio(self, eps: float | None = None) -> float:
        """min over bins of (smallest eigenvalue)/trace; >= -1e-10 when PSD."""
        h = self.history[self.finest if eps is None else eps]
        tr = np.trace(h, axis1=1, axis2=2).real
        keep = tr > 1e-300
        if not np.any(keep):
            return 0.0
        herm = 0.5 * (h[keep] + np.conj(np.transpose(h[keep], (0, 2, 1))))
        vals = np.linalg.eigvalsh(herm)
        return float(np.min(vals[:, 0] / tr[keep]))


def _window_array(grid: GridSpec, phi) -> np.ndarray:
    if isinstance(phi, SeparableWindow):
        return phi.sample(grid)
    arr = np.asarray(phi)
    if arr.shape != grid.shape:
        raise ValueError("window array shape mismatch with grid")
    return arr


def _window_label(phi) -> str:
    if isinstance(phi, SeparableWindow):
        return str(phi.describe())
    return f"array(id={id(phi)})"


def _cross_bins(F1, F2, idx, dirs, sphere, scale, hermitian):
    """Accumulate component-pair masses into sphere bins.

    F1: (p, Npts) spectra, F2: (q, Npts); returns (bins (B,p,q), centroid
    (B,4) or NaN, dc (complex), total mass proxy).
    """
    B = sphere.num_bins
    p, q = F1.shape[0], F2.shape[0]
    bins = np.zeros((B, p, q), dtype=np.complex128)
    mass_f = np.zeros(F1.shape[1])
    for i in range(p):
        a = F1[i]
        mass_f += 0.5 * (np.abs(a) ** 2)
        jstart = i if hermitian else 0
        for j in range(jstart, q):
            w = a * np.conj(F2[j])
            re = np.bincount(idx, weights=w.real, minlength=B + 1)[:B]
            im = np.bincount(idx, weights=w.imag, minlength=B + 1)[:B]
            bins[:, i, j] = (re + 1j * im) * scale
            if hermitian and j > i:
                bins[:, j, i] = np.conj(bins[:, i, j])
    for j in range(q):
        mass_f += 0.5 * (np.abs(F2[j]) ** 2)
    num = np.zeros((B, 4))
    for beta in range(4):
        num[:, beta] = np.bincount(idx, weights=mass_f * dirs[beta], minlength=B + 1)[:B]
    den = np.bincount(idx, weights=mass_f, minlength=B + 1)[:B]
    with np.errstate(invalid="ignore"):
        cent = num / den[:, None]
    norms = np.linalg.norm(cent, axis=1)
    good = norms > 0
    cent[good] /= norms[good, None]
    cent[~good] = np.nan
    dc = 0.0
    dcpos = np.flatnonzero(idx == B)
    if dcpos.size:
        k = dcpos[0]
        m = min(p, q)
        dc = complex(np.sum(F1[:m, k] * np.conj(F2[:m, k])) * scale)
    return bins, cent, dc


def _spectra(fields: np.ndarray, window: np.ndarray) -> np.ndarray:
    w = (fields * window[None]).astype(np.complex128, copy=False)
    F = scipy.fft.fftn(w, axes=(1, 2, 3, 4), workers=_workers())
    return F.reshape(F.shape[0], -1)


def _cross_spectral_measure(family: OscillatingFamily, g_fields, phi1, phi2, sphere, kind: str) -> HMeasureEstimate:
    """Per-scale window -> spectra -> bins loop behind both public measures.

    ``g_fields`` None pairs the family with itself.  The first spectra are
    reused as the second ones only when both the second sequence and the
    second window are the first ones; that case fills the Hermitian half.
    """
    sphere = sphere or SphereGrid()
    grid = family.grid
    same_window = phi2 is None or phi2 is phi1
    hermitian = same_window and g_fields is None
    w1 = _window_array(grid, phi1)
    w2 = w1 if same_window else _window_array(grid, phi2)
    idx, dirs = _lattice_bins(grid, sphere)
    scale = grid.cell_volume**2 / grid.box_volume
    history, centroids, dc_energy = {}, {}, {}
    for e in family.epsilons:
        u = np.asarray(family.fields[e])
        F1 = _spectra(u, w1)
        F2 = F1 if hermitian else _spectra(u if g_fields is None else np.asarray(g_fields[e]), w2)
        history[e], centroids[e], dc_energy[e] = _cross_bins(F1, F2, idx, dirs, sphere, scale, hermitian)
    return HMeasureEstimate(
        sphere=sphere,
        grid=grid,
        testpair=(_window_label(phi1), _window_label(phi1 if same_window else phi2)),
        epsilons=family.epsilons,
        history=history,
        centroids=centroids,
        dc_energy=dc_energy,
        metadata={"kind": kind, "family": dict(family.metadata)},
    )


def estimate_hmeasure(
    family: OscillatingFamily,
    phi1,
    phi2=None,
    sphere: SphereGrid | None = None,
) -> HMeasureEstimate:
    """Discretized H-measure of a family against a window pair.

    Requires at least two scales in the ladder; the zero-frequency mass is
    excluded from direction binning and reported in ``dc_energy``.
    """
    if len(family.epsilons) < 2:
        raise ValueError("need at least two epsilon values for a limit surrogate")
    if family.min_cells_per_wavelength() < 4.0:
        raise AliasingError("family oscillations are under-resolved (< 4 cells/wavelength)")
    return _cross_spectral_measure(family, None, phi1, phi2, sphere, "auto")


def source_fields(family: OscillatingFamily) -> dict:
    """The recorded Maxwell residual f^eps per scale (zero arrays if absent)."""
    if family.sources is not None:
        return {e: np.asarray(family.sources[e]) for e in family.epsilons}
    return {e: np.zeros((6,) + family.grid.shape, dtype=complex) for e in family.epsilons}


def charge_tilde_fields(family: OscillatingFamily, charge: dict | None = None) -> dict:
    """rho-tilde^eps = (rho, 0, 0, 0, 0, 0) built from the family's charge."""
    from .synthesis import charge_density

    rho = charge if charge is not None else (family.charge or charge_density(family))
    out = {}
    for e in family.epsilons:
        arr = np.zeros((6,) + family.grid.shape, dtype=complex)
        arr[0] = rho[e]
        out[e] = arr
    return out


def correlation_measure(
    family_u: OscillatingFamily,
    g_fields: dict,
    phi1,
    phi2=None,
    sphere: SphereGrid | None = None,
) -> HMeasureEstimate:
    """Cross measure between u^eps and a second sequence g^eps (6 x m bins)."""
    if set(float(e) for e in g_fields.keys()) != set(family_u.epsilons):
        raise ValueError("mismatched epsilon ladders between u and g")
    if any(np.shape(g)[1:] != family_u.grid.shape for g in g_fields.values()):
        raise ValueError("secondary sequence grid mismatch")
    return _cross_spectral_measure(family_u, g_fields, phi1, phi2, sphere, "cross")


def fourier_multiplier(a: Callable, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Apply the direction multiplier a(zeta/|zeta|): Fbar(a * F(u)).

    ``a`` takes four broadcastable arrays (z0, z1, z2, z3) of unit-direction
    components; the zero frequency passes through unchanged.
    """
    u = np.asarray(u)
    lead = u.shape[: u.ndim - 4]
    f0, f1, f2, f3 = grid.freq_meshes()
    r = np.sqrt(f0**2 + f1**2 + f2**2 + f3**2)
    ok = r > 0
    rs = np.where(ok, r, 1.0)
    vals = a(f0 / rs, f1 / rs, f2 / rs, f3 / rs)
    vals = np.where(ok, vals, 1.0)
    axes = tuple(range(u.ndim - 4, u.ndim))
    U = scipy.fft.fftn(u.astype(np.complex128, copy=False), axes=axes, workers=_workers())
    U *= vals.reshape((1,) * len(lead) + grid.shape)
    return scipy.fft.ifftn(U, axes=axes, workers=_workers())


def cutoff_multiply(b, u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pointwise spatial cutoff (B u)(x) = b(x) u(x)."""
    arr = _window_array(grid, b)
    return np.asarray(u) * arr
