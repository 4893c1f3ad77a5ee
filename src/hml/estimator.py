"""Discretized H-measures from windowed 4-D cross-spectra.

The defining quadratic limit is approximated at each scale of a family's
epsilon ladder: window the fields, take the full spacetime DFT, and
accumulate the component-pair outer products into direction bins on the
unit sphere of R^4, weighting every frequency shell equally (the radial
integral of the defining formula).  The finest-scale value is reported
together with the per-scale history.

Fields arrive factored, u = V s (``synthesis.FactoredField``; a plain
array is V = the columns of I at its components that are not identically
zero), and an H-measure moves with a constant matrix, so the estimator
FFTs the r scalars s, bins an r x r' Gram matrix G, and returns V G V'^H.
It reads an entry only through V, its rank and ``separated``, so only
``synthesis`` knows how an entry's rows are held or made.  A plane wave
is r = 1 and its source r = 5, where the full fields have six components
each; an exact constant-coefficient evolution keeps only its nonzero
components, and a family without sources pairs with r' = 0
(zero bins).  Each scalar's spectrum is one row of an (r, Npts) array in
the DFT's own flat (t, x1, x2, x3) order.  Only the binning knows the bin
order: the lattice is sorted by bin once per (grid, sphere) and cached,
the points of each run of bins are gathered from all rows at once, and
each non-empty bin of G is one small real GEMM over its points.

The window is read only through its four axis factors.  A time-windowed
estimate pays only for the time slabs where the time factor is nonzero,
each row read there as time factors times spatial factors T @ X
(``separated``).  X times the spatial factors is FFT'd over (x1, x2, x3),
and the time DFT, with the time factor folded into its matrix W, is one
GEMM (W T) @ X.

Memory contract: one scale is resident at a time.  The loop reads a
scale's entries from the family (and the second sequence), transforms
them, bins them and releases its spectra before it reads the next scale;
no two full-rank copies are alive at once.  Each row's time DFT writes
straight into its output row.  A rank-r transform of a held entry holds
its r output rows and one row's slabs (r + 1 grid scalars, where a grid
scalar is 16 Npts bytes).  A produced entry (a plane wave's field, source
and rho) holds no grid-sized array, and its transform holds its r output
rows and one row's K spatial arrays, so its scalars are never formed.
The bin loop reads the lattice in runs of about ``_CHUNK`` points, so its
temporaries, the gathered copies among them, are run-sized.  The lattice
build, once per (grid, sphere), works one time-frequency plane at a time
and peaks at 36 B per lattice point.  A cross measure of a rank-1
plane-wave field against its rank-5 source so peaks near its 1 + 5
spectra.

An auto estimate is made once per (family, window, sphere) while it is
alive: ``estimate_hmeasure`` returns the estimate it already made for the
same family object and an equal window and sphere, for as long as some
caller still holds that estimate.  The memo holds its families and its
estimates weakly, so it keeps no estimate alive and forgets a family when
the family dies.  This rests on two contracts: a family is fixed once it
is built (``OscillatingFamily``), and an estimate is a read-only value
that two callers may share (``HMeasureEstimate``).  Cross measures are
not memoized.
"""

from __future__ import annotations

import functools
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .grids import GridSpec, SeparableWindow, fftn, integral_counts, set_workers
from .synthesis import (
    MIN_CELLS_PER_WAVELENGTH,
    AliasingError,
    FactoredField,
    OscillatingFamily,
    charge_density,
)

__all__ = [
    "MIN_MEDIAN_POINTS_PER_BIN",
    "SphereGrid",
    "HMeasureEstimate",
    "estimate_hmeasure",
    "correlation_measure",
    "source_fields",
    "charge_tilde_fields",
    "set_workers",
]

# Fewest median lattice points per sphere bin; below it an estimate is flagged as finer in angle than
# its lattice (``bin_occupancy["below_floor"]``).  The default sphere on a 16^4 lattice has a median of 3
MIN_MEDIAN_POINTS_PER_BIN = 8


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
        counts = integral_counts("sphere cell counts", (self.n_zeta0, self.n_theta, self.n_phi))
        for name, n in zip(("n_zeta0", "n_theta", "n_phi"), counts):
            object.__setattr__(self, name, n)
        if min(counts) < 2:
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
        """Bin index of 4-vectors, shape-preserving; -1 for zero vectors.  Non-finite vectors are refused."""
        v = np.atleast_2d(np.asarray(vec4, dtype=float))
        finite = np.isfinite(v).all(axis=-1)
        if not finite.all():
            raise ValueError(f"{np.count_nonzero(~finite)} of {finite.size} vectors are not finite: they have no bin")
        polar, ok = self._polar_cells(*np.moveaxis(v, -1, 0))
        idx = np.where(ok, polar * self.n_phi + self._azimuth_cells(v[..., 1], v[..., 2]), -1)
        return int(idx[0]) if np.ndim(vec4) == 1 else idx

    def _polar_cells(self, v0, v1, v2, v3) -> tuple:
        """Polar cells i1 * n_theta + i2 of the vectors with components v0 .. v3, and the mask |v| > 0.

        chi1 is read from v0 / |v| and theta from v3 / |v'|, so the vectors
        need not be unit.  Both are per vector: on the lattice a tie such as
        3 zeta0^2 = |zeta'|^2 lands on either side of an edge as |v| rounds.
        """
        r = np.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3)
        ok = r > 0
        chi1 = np.arccos(np.clip(v0 / np.where(ok, r, 1.0), -1, 1))
        rp = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
        theta = np.arccos(np.clip(v3 / np.where(rp > 0, rp, 1.0), -1, 1))
        i1 = np.clip((chi1 / np.pi * self.n_zeta0).astype(np.int64), 0, self.n_zeta0 - 1)
        i2 = np.clip((theta / np.pi * self.n_theta).astype(np.int64), 0, self.n_theta - 1)
        return i1 * self.n_theta + i2, ok

    def _azimuth_cells(self, v1, v2) -> np.ndarray:
        """Azimuth cells of the vectors whose first two spatial components are v1 and v2."""
        phi = np.arctan2(v2, v1)
        phi = np.where(phi < 0, phi + 2 * np.pi, phi)
        return np.clip((phi / (2 * np.pi) * self.n_phi).astype(np.int64), 0, self.n_phi - 1)


# ------------------------------------------------------------------ binning

class _Lattice(NamedTuple):
    order: np.ndarray
    bounds: np.ndarray
    dirs: np.ndarray


# lattice points per run of the bin loop and of the lattice build's permutation, so a run's temporaries, the bin
# loop's gathered copies among them, stay in cache and below one grid scalar from 16^4 up (a rank-5 run copy is 0.04
# of one at 32^4); runs of 2^12 to 2^16 points measured alike in time at 32^4
_CHUNK = 1 << 13


@functools.lru_cache(maxsize=4)
def _lattice_bins(grid: GridSpec, sphere: SphereGrid) -> _Lattice:
    """The DFT lattice sorted by sphere bin.

    ``order`` is the stable permutation that sorts the flat lattice by bin,
    so bin b holds the frequencies ``order[bounds[b]:bounds[b + 1]]``;
    ``bounds`` has B + 2 entries and the DC frequency sits alone in the
    overflow segment B, last.  ``order`` is int32 while the lattice has
    fewer than 2^31 points.  ``dirs`` is the float32 (Npts, 4) array of
    unit directions in sorted order (zeros at DC).  Bins come from the
    float64 unit directions zeta/|zeta|; only the centroids use the float32
    copy.  One pass over the lattice, one time-frequency plane at a time,
    writes the bin ids and the float32 directions in flat order, and the
    directions are then permuted once by ``order``.  The polar cells are
    read per point (``SphereGrid._polar_cells``), but the azimuth cell once
    per spatial frequency, from (zeta1, zeta2): the only lattice points on
    an azimuth edge are the exact ties zeta1 = +-zeta2 and zeta1 or
    zeta2 = 0, which the common factor 1/|zeta| keeps tied.  The build
    peaks at 36 B per point while it permutes: the result (20 B) and the
    flat-order directions (16 B), with run-sized temporaries; the bin ids,
    the sort's int64 output and the planes' temporaries are freed by then.
    Grids and spheres are frozen, so the last few lattices are cached by
    value.
    """
    idx, flat = _flat_lattice_bins(grid, sphere)
    n = grid.num_points
    order = np.argsort(idx, kind="stable").astype(np.int32 if n < 2**31 else np.int64)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=sphere.num_bins + 1))])
    del idx
    dirs = np.empty_like(flat)
    # a run of ``order`` at a time: take widens its indices to intp, which for the whole lattice would be 8 B per point
    for lo in range(0, n, _CHUNK):
        np.take(flat, order[lo : lo + _CHUNK], axis=0, out=dirs[lo : lo + _CHUNK], mode="clip")
    return _Lattice(order, bounds, dirs)


def _flat_lattice_bins(grid: GridSpec, sphere: SphereGrid) -> tuple:
    """Bin ids (B at DC) and float32 unit directions of the lattice in flat order, one time-frequency plane at a time."""
    f1, f2, f3 = (f.ravel() for f in np.meshgrid(*(grid.freq_axis(i) for i in (1, 2, 3)), indexing="ij"))
    q1, q2, q3 = f1 * f1, f2 * f2, f3 * f3
    azimuth = sphere._azimuth_cells(f1, f2)
    n, m, B = grid.num_points, f1.size, sphere.num_bins
    # the narrowest integer type that holds every bin id sorts fastest, to the same stable order
    idx = np.empty(n, dtype=np.min_scalar_type(B))
    flat = np.empty((n, 4), dtype=np.float32)
    for lo, ft in zip(range(0, n, m), grid.freq_axis(0)):
        r = np.sqrt(ft * ft + q1 + q2 + q3)
        ok = r > 0
        rs = np.where(ok, r, 1.0)
        units = (ft / rs, f1 / rs, f2 / rs, f3 / rs)
        idx[lo : lo + m] = np.where(ok, sphere._polar_cells(*units)[0] * sphere.n_phi + azimuth, B)
        for c, u in enumerate(units):
            flat[lo : lo + m, c] = u
    return idx, flat


@dataclass
class HMeasureEstimate:
    """Binned matrix-valued spectral masses, with per-scale history.

    An estimate is a read-only value: ``estimate_hmeasure`` may hand the
    same object to two callers, so no reader writes to its arrays, dicts or
    metadata.

    ``history[eps]`` has shape (B, p, q); the finest scale is exposed as
    ``bins`` and is the one every reader reads, here and in the verifier;
    ``at(eps)`` cuts the ladder at a coarser scale.  ``centroids[eps]``
    holds per-bin mass-weighted mean directions (rows of NaN where a bin is
    empty), and ``dc_energy`` the separately-reported zero-frequency mass.
    ``metadata["window"]`` describes the window, and
    ``metadata["bin_occupancy"]`` the number of empty bins, the median
    lattice points per bin, and ``below_floor``, true when that median is
    below ``MIN_MEDIAN_POINTS_PER_BIN`` (a sphere finer than the lattice
    leaves bins empty or nearly so).  ``metadata["factor_rank"]`` is
    (r, r'), the number of scalar factors transformed per sequence:
    components that are exactly zero (no tolerance) are not counted, and r
    or r' is 0 for an all-zero sequence, whose bins are zero.
    """

    sphere: SphereGrid
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

    def at(self, eps: float) -> "HMeasureEstimate":
        """The estimate with its ladder cut at ``eps`` (finest there), sharing the per-scale dicts."""
        if eps not in self.epsilons:
            raise ValueError(f"eps={eps} is not on the ladder {self.epsilons}")
        return replace(self, epsilons=self.epsilons[: self.epsilons.index(eps) + 1])

    def masses(self) -> np.ndarray:
        """Per-bin real trace mass; refused (``_square_bins``) unless the bins are square."""
        return np.trace(self._square_bins(), axis1=1, axis2=2).real

    def total_mass(self) -> float:
        return float(self.masses().sum())

    def _square_bins(self) -> np.ndarray:
        """``bins``, refused unless each is square: a (B, 6, 1) column has no trace, transpose or spectrum."""
        h = self.bins
        if h.shape[1] != h.shape[2]:
            raise ValueError(f"bins of shape {h.shape} are not square: they have no mass, Hermitian or eigenvalue test")
        return h

    def hermitian_defect(self) -> float:
        h = self._square_bins()
        denom = max(self.total_mass(), 1e-300)
        return float(np.max(np.abs(h - np.conj(np.transpose(h, (0, 2, 1))))) / denom)

    def min_eigen_ratio(self) -> float:
        """min over bins of (smallest eigenvalue)/trace; >= -1e-10 when PSD."""
        h, tr = self._square_bins(), self.masses()
        keep = tr > 1e-300
        if not np.any(keep):
            return 0.0
        herm = 0.5 * (h[keep] + np.conj(np.transpose(h[keep], (0, 2, 1))))
        vals = np.linalg.eigvalsh(herm)
        return float(np.min(vals[:, 0] / tr[keep]))


def _cross_bins(F1, F2, V1, V2, lattice: _Lattice, sphere, scale):
    """Bin the r x r' Gram of two sets of spectra, return V G V'^H.

    F1: (r, Npts) and F2: (r', Npts) are the spectra of the scalar factors,
    one row per scalar in the DFT's flat order, F2 is F1 for an auto
    measure, and V1 (p, r) and V2 (q, r') the orthonormal polarization
    factors.  Returns (bins (B,p,q), unit centroid (B,4) with NaN rows for
    massless bins, dc (complex)).  The non-empty bins are read in runs of
    about ``_CHUNK`` lattice points: a run's points, ``lattice.order[p0:p1]``,
    are gathered from all rows at once and copied point-major, (n, r) (the
    gather itself when r is 1), and each of its bins is one real GEMM over
    the float64 views (n_b, 2r) and (n_b, 2r'), with the complex sum read
    off the interleaved real and imaginary parts.  A real GEMM, not a
    complex ``@``: NumPy sends a one-column complex product to gemv, whose
    rounding would part a q = 1 measure from column 0 of a padded one,
    while the real view always has at least two columns.  When F2 is F1,
    NumPy forms X.T @ X by one triangle and its mirror (syrk), so G is
    exactly Hermitian.  The bins are always V1 G V2^H; where a factor is
    I (a plain array with no zero component) the product gives G back bit
    for bit.  Orthonormal factors keep each lattice point's mass |u^|^2 =
    |s^|^2, so the centroids need no expansion of the spectra: a run's
    per-point masses are one product (X * X) @ 1 per sequence, and each
    bin's mass-weighted direction sum is one product ``mass @ dirs`` next
    to its GEMM.  The DC term is
    the sum over the first min(p, q) components of the expanded DC
    vectors, read at flat index 0.  r or r' may be 0: the bins and the DC
    term are then zero, and the centroids are those of the other
    sequence's mass.
    """
    B = sphere.num_bins
    r1, r2 = len(F1), len(F2)
    bounds = lattice.bounds
    M = np.zeros((B, 2 * r1, 2 * r2))
    sums = np.zeros((B, 4))
    nonempty = np.flatnonzero(bounds[1 : B + 1] > bounds[:B])
    for run in np.split(nonempty, np.flatnonzero(np.diff(bounds[nonempty] // _CHUNK)) + 1):
        p0, p1 = bounds[run[0]], bounds[run[-1] + 1]
        # the points are lattice indices, so "clip" moves none and only skips the bounds check of "raise"
        points = lattice.order[p0:p1]
        X = np.ascontiguousarray(np.take(F1, points, axis=1, mode="clip").T).view(np.float64)
        Y = X if F2 is F1 else np.ascontiguousarray(np.take(F2, points, axis=1, mode="clip").T).view(np.float64)
        # the centroid is normalised, so the mass-weighted sums need no division by the bin mass
        mass = (X * X) @ np.ones(2 * r1)
        if F2 is not F1:
            mass += (Y * Y) @ np.ones(2 * r2)
        dirs = lattice.dirs[p0:p1].astype(np.float64)  # cast once per run, not once per bin
        for b, s, e in zip(run.tolist(), (bounds[run] - p0).tolist(), (bounds[run + 1] - p0).tolist()):
            # a rank-zero sequence (an all-zero field or a source-free family) has an all-zero Gram
            if r1 * r2:
                np.matmul(X[s:e].T, Y[s:e], out=M[b])
            np.dot(mass[s:e], dirs[s:e], out=sums[b])
        del X, Y, mass, dirs  # this run's copies are released before the next run's are gathered
    G = np.empty((B, r1, r2), dtype=np.complex128)
    G.real = M[:, 0::2, 0::2] + M[:, 1::2, 1::2]
    G.imag = M[:, 1::2, 0::2] - M[:, 0::2, 1::2]
    G *= scale
    bins = V1 @ G @ V2.conj().T
    norms = np.linalg.norm(sums[nonempty], axis=1)
    good = norms > 0
    cent = np.full((B, 4), np.nan)
    cent[nonempty[good]] = sums[nonempty[good]] / norms[good, None]
    d1, d2 = V1 @ F1[:, 0], V2 @ F2[:, 0]
    m = min(d1.size, d2.size)
    dc = complex(np.sum(d1[:m] * np.conj(d2[:m])) * scale)
    return bins, cent, dc


def _spectra(u: FactoredField, phi: SeparableWindow, grid: GridSpec) -> np.ndarray:
    """Windowed 4-D DFT of the r scalars of a (p,) + grid.shape entry as an (r, Npts) array in the DFT's flat order.

    The window phi = w_t(t) w_x(x) is read through its axis factors.  Only
    the slabs t_j0 .. t_j1 between the first and last grid times where w_t
    is nonzero are read, each row as T @ X (``u.separated``): X times the
    spatial factors is FFT'd over (x1, x2, x3), and the time DFT is one GEMM
    ``(W @ T) @ X``, W[k, j] = w_t(t_j) exp(-2 pi i ((k j) mod N_t) / N_t).
    A window zero at every sample of an axis is refused (its estimate would
    be zero).  r = 0 gives an (0, Npts) array without a transform.

    Memory: the rows are read one at a time, and each row's time DFT writes
    straight into its row of the output.  A call so holds at most r + 1
    grid scalars (the r rows and a held row's slabs) and spatial-sized
    temporaries, and never forms a produced entry's scalars.
    """
    samples = [f(grid.axis(i)) for i, f in enumerate(phi.factors)]
    dead = [i for i, w in enumerate(samples) if not w.any()]
    if dead:
        raise ValueError(f"window {phi.describe()} is zero at every grid sample of axes {dead}")
    nt, r = grid.shape[0], u.rank
    out = np.empty((r, grid.num_points), dtype=np.complex128)
    live = np.flatnonzero(samples[0])
    lo, hi = live[0], live[-1] + 1
    spatial = samples[1][:, None, None] * samples[2][None, :, None] * samples[3][None, None, :]
    kj = np.arange(nt)[:, None] * np.arange(lo, hi)
    W = samples[0][lo:hi] * np.exp((-2j * np.pi / nt) * (kj % nt))
    for j in range(r):
        T, X = u.separated(j, lo, hi)
        X = np.multiply(X, spatial, dtype=np.complex128)
        fftn(X, (1, 2, 3), out=X)
        np.matmul(W @ T, X.reshape(len(X), -1), out=out[j].reshape(nt, -1))
    return out


def _cross_spectral_measure(family: OscillatingFamily, g_fields, phi: SeparableWindow, sphere) -> HMeasureEstimate:
    """Per-scale window -> spectra -> bins loop behind both public measures.

    Refuses a one-scale ladder and an under-resolved family, and a g^eps
    whose grid differs from u^eps's when that scale is read.  Every entry
    is read once per scale, as its factors, and only its r scalars are
    windowed and transformed.  ``g_fields`` None pairs the family with
    itself and fills the Hermitian half from one set of spectra; otherwise
    u^eps is paired with the m components that g^eps has, giving (B, 6, m)
    bins.
    """
    if len(family.epsilons) < 2:
        raise ValueError("need at least two epsilon values for a limit surrogate")
    if family.min_cells_per_wavelength() < MIN_CELLS_PER_WAVELENGTH:
        raise AliasingError(f"family oscillations are under-resolved (< {MIN_CELLS_PER_WAVELENGTH:g} cells/wavelength)")
    sphere = sphere or SphereGrid()
    grid = family.grid
    hermitian = g_fields is None
    lattice = _lattice_bins(grid, sphere)
    scale = grid.cell_volume**2 / grid.box_volume
    counts = np.diff(lattice.bounds[: sphere.num_bins + 1])  # lattice points per bin, DC excluded
    median = float(np.median(counts))
    history, centroids, dc_energy = {}, {}, {}
    for e in family.epsilons:
        u = FactoredField.of(family.fields[e])
        g = u if hermitian else g_fields[e]
        if np.shape(g)[1:] != grid.shape:
            raise ValueError("secondary sequence grid mismatch")
        g = FactoredField.of(g)
        F1 = _spectra(u, phi, grid)
        F2 = F1 if hermitian else _spectra(g, phi, grid)
        history[e], centroids[e], dc_energy[e] = _cross_bins(F1, F2, u.V, g.V, lattice, sphere, scale)
        ranks = (u.rank, g.rank)
        # one scale resident: the next scale is read and transformed with none of this one's arrays held
        del u, g, F1, F2
    return HMeasureEstimate(
        sphere=sphere,
        epsilons=family.epsilons,
        history=history,
        centroids=centroids,
        dc_energy=dc_energy,
        metadata={"kind": "auto" if hermitian else "cross", "window": phi.describe(), "family": dict(family.metadata),
                  "bin_occupancy": {"empty_bins": int(np.count_nonzero(counts == 0)), "median_points": median,
                                    "below_floor": median < MIN_MEDIAN_POINTS_PER_BIN},
                  "factor_rank": ranks},
    )


# family -> {(window, sphere): the live auto estimate}; weak at both levels (see the module docstring)
_ESTIMATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def estimate_hmeasure(
    family: OscillatingFamily,
    phi: SeparableWindow,
    sphere: SphereGrid | None = None,
) -> HMeasureEstimate:
    """Discretized H-measure of a family under one window.

    Requires at least two scales in the ladder and at least four cells per
    wavelength; the zero-frequency mass is excluded from direction binning
    and reported in ``dc_energy``.  The same family object with an equal
    window and sphere (None is ``SphereGrid()``) gives back the estimate
    already made, while any caller still holds it; once the last holder
    lets it go, the next call computes it again.
    """
    sphere = sphere or SphereGrid()
    memo = _ESTIMATES.setdefault(family, weakref.WeakValueDictionary())
    est = memo.get((phi, sphere))
    if est is None:
        est = memo[phi, sphere] = _cross_spectral_measure(family, None, phi, sphere)
    return est


def source_fields(family: OscillatingFamily) -> Mapping:
    """The recorded Maxwell residual f^eps per scale: ``family.sources``.

    A family without sources has f = 0: each scale is the rank-zero
    ``FactoredField.zero``, which holds no grid-sized array and pairs to
    zero bins.
    """
    if family.sources is not None:
        return family.sources
    zero = FactoredField.zero(6, family.grid.shape)
    return {e: zero for e in family.epsilons}


def charge_tilde_fields(family: OscillatingFamily) -> dict:
    """The one nonzero component of rho-tilde^eps = (rho, 0, 0, 0, 0, 0): ``charge_density``'s entries.

    rho^eps = div E^eps, shape (1,) + grid.shape per scale: the cross
    measure against it is the (B, 6, 1) column that the one against the
    full rho-tilde would have nonzero.  A plane wave's rho is a produced
    entry and holds no grid-sized array.
    """
    return charge_density(family)


def correlation_measure(
    family_u: OscillatingFamily,
    g_fields: Mapping,
    phi: SeparableWindow,
    sphere: SphereGrid | None = None,
) -> HMeasureEstimate:
    """Cross measure between u^eps and a second sequence g^eps (6 x m bins).

    ``g_fields`` maps each scale of u's ladder to an entry, read one scale
    at a time.  Refuses what ``estimate_hmeasure`` refuses, a g whose
    ladder differs from u^eps's (read from its keys), and a g^eps whose
    grid differs, when that scale is read.
    """
    if set(float(e) for e in g_fields.keys()) != set(family_u.epsilons):
        raise ValueError("mismatched epsilon ladders between u and g")
    return _cross_spectral_measure(family_u, g_fields, phi, sphere)
