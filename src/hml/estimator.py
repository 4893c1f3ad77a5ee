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
transforms the r scalars s, bins an r x r' Gram matrix G, and returns
V G V'^H.  A plane wave is r = 1 and its source r = 5, where the full
fields have six components each; an exact constant-coefficient evolution
keeps only its nonzero components, and a family without sources pairs
with r' = 0 (zero bins).  The estimator reads an entry only through V,
its rank, its ``support``, whether it is ``produced``, ``separated``,
``slabs`` and ``spatial_spectrum``, so only ``synthesis`` knows how an
entry's scalars are held or made.  Each sequence is binned through one
reader (``_read``), points -> the (n, r) point-major spectra at those
lattice points in the DFT's flat (t, x1, x2, x3) order; only the binning
(``_lattice_bins``, ``_cross_bins``) knows the bin order.  The kind of
entry decides the read: a held or support-held entry's spectra are formed
once (``_spectra``, one (r, Npts) row per scalar) and gathered a run at a
time, while a produced entry s = C S, K separable terms, is read at each
run's points from the DFTs of its terms' factors (time factors, and axis
factors or spatial fields), premixed into one spatial table per distinct
time factor when that does not grow the tables, and no grid-sized
spectrum of it is formed.

The window is read only through its four axis factors (``_window_dft``).
Only the time slabs where the time factor is nonzero are read, and every
time DFT is one FFT along t of those slabs times the time factor, written
into an axis of nt zeros: a held row's slabs (``slabs``) times the spatial
factors (none when the window is one on x1..x3), FFT'd over (x1, x2, x3)
first, and a produced entry's K time factors, whose spatial parts take
the window's spatial factors before their 1-D or 3-D FFTs.  When the
window is one on x1..x3 and every entry of rank > 0 in the measure is held
on the same spatial support (``_shared_support``: a scale of an evolved
family, on that scale's own support, in its auto measure, its charge
cross, or a cross against a rank-zero source), each spectrum row is only
the support's m spatial frequencies, (r, nt m), binned on a lattice built
over the support alone.
Off the support every spectrum is exactly zero, so this drops no mass.
``metadata["binned_points"]`` says which lattice the finest scale binned
and how many points it has.

Memory: each bound is stated where it is kept, for one scale resident at
a time (``_cross_spectral_measure``), a held transform (``_spectra``), a
reader (``_read``), the bin loop (``_cross_bins``), the lattice build
(``_lattice_bins``) and the occupancy count (``bin_occupancy``).

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
from types import MappingProxyType
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
    "bin_occupancy",
    "source_fields",
    "charge_tilde_fields",
    "set_workers",
]

# Fewest median lattice points per sphere bin; below it a sphere is flagged as finer in angle than a grid's
# lattice (``bin_occupancy(grid, sphere)["below_floor"]``).  The default sphere on a 16^4 lattice has a median of 3
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
        chi1, theta, phi = self.centers_angles().T
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


# lattice points per run of the bin loop (a cross with a produced reader cuts its runs shorter), of the lattice
# build's sorted pass and of its blocks of time-frequency planes, so a run's temporaries stay in cache and below one
# grid scalar from 16^4 up; runs of 2^12 to 2^16 points measured alike in time at 32^4
_CHUNK = 1 << 13


# lattices ``_lattice_bins`` keeps: a ladder of up to this many supports builds each once per process
_LATTICES = 16


@functools.lru_cache(maxsize=_LATTICES)
def _lattice_bins(grid: GridSpec, sphere: SphereGrid, support: bytes | None = None) -> _Lattice:
    """The DFT lattice sorted by sphere bin, or with ``support`` its points on that spatial support.

    ``support`` is the bytes of a boolean array of the spatial shape (C
    order, so the cache can key it); its lattice is every time frequency
    times the support's m spatial frequencies, in the flat (t, support
    entry) order of a support-held spectrum, (nt, m), and only those nt m
    points are binned.  Leave it out for the full lattice: an explicit None
    is another cache key.

    ``order`` is the stable permutation that sorts the flat lattice by bin,
    so bin b holds the points ``order[bounds[b]:bounds[b + 1]]``; ``bounds``
    has B + 2 entries and the DC frequency, if binned, sits alone in the
    overflow segment B, last.  ``order`` is int32 while the lattice has
    fewer than 2^31 points.  ``dirs`` is the float32 (n, 4) array of unit
    directions in sorted order (zeros at DC).  Bins come from the float64
    unit directions zeta/|zeta|; only the centroids use the float32 copy.
    The points' bin ids are written in flat order a block of planes at a
    time (``_lattice_blocks``) and sorted; then each point's direction is
    formed again from its flat index (t, s), a run of ``order`` at a time,
    by the float64 operations it was binned by (``_units``), and written
    once, in its sorted place.  The build so peaks at its result, 20 B per
    binned point, with run-sized temporaries and the m rows of spatial
    frequencies the runs gather from (24 B each); while it sorts it holds
    14 B per point (the bin ids, the sort's int64 output and its int32
    copy).  Grids and spheres are frozen, so the last ``_LATTICES``
    lattices used are cached by value: an evolved family bins each scale on
    its own support, and a ladder visits its supports in the same order at
    every estimate, so a cache shorter than the ladder would miss on every
    lookup.  The cache's memory is bounded by its length: it holds at most
    ``_LATTICES`` lattices of 20 B per binned point each, so 16 times the
    largest lattice used (21 MB for a full 32^4 lattice, 0.25 MB for a
    scale of ``tests/deep_ladder.py``'s 4096 x 3-point supports).
    """
    support = None if support is None else np.frombuffer(support, bool)
    f1, f2, f3 = _spatial_frequencies(grid, support)
    nt, m = grid.shape[0], f1.size
    n = nt * m
    # the narrowest integer type that holds every bin id sorts fastest, to the same stable order
    idx = np.empty((nt, m), dtype=np.min_scalar_type(sphere.num_bins))
    for t0, ids in _lattice_blocks(grid, sphere, support):
        idx[t0 : t0 + len(ids)] = ids
    del ids  # the last block, before the sort
    idx = idx.ravel()
    order = np.argsort(idx, kind="stable").astype(np.int32 if n < 2**31 else np.int64)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=sphere.num_bins + 1))])
    del idx
    # each run's points read their spatial frequencies in one row gather
    table, freqs = np.stack([f1, f2, f3], axis=1), grid.freq_axis(0)
    del f1, f2, f3
    dirs = np.empty((n, 4), dtype=np.float32)
    for lo in range(0, n, _CHUNK):
        t = order[lo : lo + _CHUNK] // m
        rows = np.take(table, order[lo : lo + _CHUNK] - t * m, axis=0, mode="clip")
        units = np.empty((len(rows), 4))
        _units(np.take(freqs, t, mode="clip"), *rows.T, out=units.T)
        dirs[lo : lo + _CHUNK] = units  # one float64 -> float32 cast per run
    return _Lattice(order, bounds, dirs)


def _spatial_frequencies(grid: GridSpec, support) -> tuple:
    """(f1, f2, f3): the float64 spatial frequencies in flat C order, at the true entries of the flat boolean
    ``support`` if given; each is read off its axis at the points' indices, so a support of m points forms m."""
    flat = np.arange(np.prod(grid.spatial_shape)) if support is None else np.flatnonzero(support)
    return tuple(grid.freq_axis(i)[j] for i, j in enumerate(np.unravel_index(flat, grid.spatial_shape), 1))


def _units(ft, f1, f2, f3, out=(None,) * 4) -> tuple:
    """The float64 unit directions (ft, f1, f2, f3)/r of lattice points, written into ``out`` if given, and r > 0.

    r = sqrt(((ft^2 + f1^2) + f2^2) + f3^2), and 1 in place of r at DC; the
    arguments broadcast.  Every value is formed point by point, so a point's
    direction does not depend on the block or the run it is formed in.
    """
    r = ft * ft + f1 * f1
    r += f2 * f2
    r += f3 * f3
    np.sqrt(r, out=r)
    ok = r > 0
    r[~ok] = 1.0
    return [np.divide(f, r, out=o) for f, o in zip((ft, f1, f2, f3), out)], ok


def _lattice_blocks(grid: GridSpec, sphere: SphereGrid, support):
    """Per block of whole time-frequency planes from t0: the (planes, m) bin ids, B at DC, of the lattice points
    on the flat boolean spatial ``support`` (None: every spatial frequency), m of them per plane.

    A block is about ``_CHUNK`` / 8 points (one plane where a plane holds
    more), so a support of a few frequencies is binned in a few blocks, and
    only its nt m points are binned.  The polar cells are read per point
    from its float64 unit direction (``_units``, ``SphereGrid._polar_cells``),
    but the azimuth cell once per spatial frequency, from (zeta1, zeta2):
    the only lattice points on an azimuth edge are the exact ties zeta1 =
    +-zeta2 and zeta1 or zeta2 = 0, which the common factor 1/|zeta| keeps
    tied.  So a point's bin does not depend on the block or the support it
    is binned in.
    """
    f1, f2, f3 = _spatial_frequencies(grid, support)
    azimuth = sphere._azimuth_cells(f1, f2)
    nt, B = grid.shape[0], sphere.num_bins
    # about _CHUNK / 8 points a block, so its dozen float64 temporaries together stay near one run's size
    step = max(1, _CHUNK // 8 // max(f1.size, 1))
    freqs = grid.freq_axis(0)
    for t0 in range(0, nt, step):
        units, ok = _units(freqs[t0 : t0 + step, None], f1, f2, f3)
        yield t0, np.where(ok, sphere._polar_cells(*units)[0] * sphere.n_phi + azimuth, B)


@functools.lru_cache(maxsize=8)
def bin_occupancy(grid: GridSpec, sphere: SphereGrid) -> Mapping:
    """How ``sphere`` weighs against ``grid``'s DFT lattice: its empty bins and median lattice points per bin.

    {"empty_bins": n, "median_points": median, "below_floor": median <
    ``MIN_MEDIAN_POINTS_PER_BIN``}, over the full lattice without its DC
    point: a sphere finer than the lattice leaves bins empty or nearly so.
    It depends on (grid, sphere) alone, so it is cached per pair and handed
    out as a read-only mapping.  The points are
    counted a block of time-frequency planes at a time (``_lattice_blocks``);
    no lattice is built or held.
    """
    counts = np.zeros(sphere.num_bins + 1, dtype=np.int64)
    for _, ids in _lattice_blocks(grid, sphere, None):
        counts += np.bincount(ids.ravel(), minlength=sphere.num_bins + 1)
    median = float(np.median(counts[:-1]))
    return MappingProxyType({"empty_bins": int(np.count_nonzero(counts[:-1] == 0)), "median_points": median,
                             "below_floor": median < MIN_MEDIAN_POINTS_PER_BIN})


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
    ``metadata["window"]`` describes the window.
    ``metadata["factor_rank"]`` is (r, r'), the number of scalar factors
    transformed per sequence: components that are exactly zero (no
    tolerance) are not counted, and r or r' is 0 for an all-zero sequence,
    whose bins are zero.  ``metadata["binned_points"]`` is {"points": n,
    "lattice": "full" or "support"}: the lattice points the finest scale
    binned, on the whole lattice or on its entries' spatial support.  How
    the sphere weighs against the grid's resolution depends on neither the
    family nor the window: ``bin_occupancy(grid, sphere)`` reports it.
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


def _cross_bins(read1, read2, V1, V2, lattice: _Lattice, sphere, scale, chunk):
    """Bin the r x r' Gram of two sequences' spectra, return V G V'^H.

    ``read1`` and ``read2`` are the sequences' readers (``_read``): each
    gives the point-major (n, r) spectra of its scalar factors at a run of
    lattice points, read2 is read1 for an auto measure, and V1 (p, r) and
    V2 (q, r') are the orthonormal polarization factors.  Returns (bins
    (B,p,q), unit centroid (B,4) with NaN rows for massless bins, dc
    (complex)).  The non-empty bins are read in runs of whole bins (see
    Memory): a run's points are ``lattice.order[p0:p1]``, and each of its
    bins is one real GEMM over the float64 views (n_b, 2r) and
    (n_b, 2r') of the two reads, with the complex sum read off the
    interleaved real and imaginary parts.  A real GEMM, not a complex
    ``@``: NumPy sends a one-column complex product to gemv, whose rounding
    would part a q = 1 measure from column 0 of a padded one, while the
    real view always has at least two columns.  When read2 is read1, the
    run is read once and NumPy forms X.T @ X by one triangle and its mirror
    (syrk), so G is exactly Hermitian.  The non-empty bins are V1 G V2^H,
    formed on those bins alone, and every other bin is exactly zero; where
    a factor is I (a plain array with no zero component) the product gives
    G back bit for bit.  Orthonormal factors keep each lattice point's mass
    |u^|^2 = |s^|^2, so the centroids need no expansion of the spectra: a
    run's per-point masses are one product (X * X) @ 1 per sequence, and
    each bin's mass-weighted direction sum is one product ``mass @ dirs``
    next to its GEMM.  The DC term is the sum over the first min(p, q)
    components of the expanded DC vectors, read at the point of the
    lattice's segment B (flat index 0 on the full lattice); it is 0 when
    that segment is empty, a support lattice without the zero frequency.
    r or r' may be 0: the bins and the DC term are then zero, and the
    centroids are those of the other sequence's mass.

    Memory: a run's reads and temporaries are run-sized and released
    before the next run is read; with the readers' own holdings
    (``_read``) that is all the loop adds to its bins.  Runs are about
    ``chunk`` points, ``_CHUNK`` for an auto measure and a cross of held
    entries; ``_cross_spectral_measure`` shortens a cross's runs when it
    has a produced reader.
    """
    B = sphere.num_bins
    r1, r2 = V1.shape[1], V2.shape[1]
    bounds = lattice.bounds
    M = np.zeros((B, 2 * r1, 2 * r2))
    sums = np.zeros((B, 4))
    nonempty = np.flatnonzero(bounds[1 : B + 1] > bounds[:B])
    # a support lattice may have no point in any bin, and np.split would still give one empty run
    runs = np.split(nonempty, np.flatnonzero(np.diff(bounds[nonempty] // chunk)) + 1) if nonempty.size else []
    for run in runs:
        p0, p1 = bounds[run[0]], bounds[run[-1] + 1]
        points = lattice.order[p0:p1]
        X = read1(points).view(np.float64)
        Y = X if read2 is read1 else read2(points).view(np.float64)
        # the centroid is normalised, so the mass-weighted sums need no division by the bin mass
        mass = (X * X) @ np.ones(2 * r1)
        if read2 is not read1:
            mass += (Y * Y) @ np.ones(2 * r2)
        dirs = lattice.dirs[p0:p1].astype(np.float64)  # cast once per run, not once per bin
        for b, s, e in zip(run.tolist(), (bounds[run] - p0).tolist(), (bounds[run + 1] - p0).tolist()):
            # a rank-zero sequence (an all-zero field or a source-free family) has an all-zero Gram
            if r1 * r2:
                np.matmul(X[s:e].T, Y[s:e], out=M[b])
            np.dot(mass[s:e], dirs[s:e], out=sums[b])
        del X, Y, mass, dirs  # this run's reads are released before the next run's are made
    M = M[nonempty]
    G = np.empty((nonempty.size, r1, r2), dtype=np.complex128)
    G.real = M[:, 0::2, 0::2] + M[:, 1::2, 1::2]
    G.imag = M[:, 1::2, 0::2] - M[:, 0::2, 1::2]
    G *= scale
    del M
    G = V1 @ G @ V2.conj().T  # the (p, q) bins, made before the zeros they are written into
    bins = np.zeros((B, len(V1), len(V2)), dtype=np.complex128)
    bins[nonempty] = G
    del G
    norms = np.linalg.norm(sums[nonempty], axis=1)
    good = norms > 0
    cent = np.full((B, 4), np.nan)
    cent[nonempty[good]] = sums[nonempty[good]] / norms[good, None]
    if bounds[B + 1] == bounds[B]:
        return bins, cent, 0j
    zero = lattice.order[bounds[B] : bounds[B + 1]]
    d1, d2 = V1 @ read1(zero)[0], V2 @ read2(zero)[0]
    m = min(d1.size, d2.size)
    dc = complex(np.sum(d1[:m] * np.conj(d2[:m])) * scale)
    return bins, cent, dc


def _window_dft(phi: SeparableWindow, grid: GridSpec) -> tuple:
    """``phi`` on ``grid`` as ``_spectra`` and ``_read`` read it, formed once per estimate: (lo, hi, wt, spatial).

    Only the slabs lo:hi between the first and last grid times where w_t is
    nonzero are read; ``wt`` is w_t's samples there, and ``spatial`` the
    samples of the three spatial factors, 1-D each, None where all three are
    one.  A window zero at every sample of an axis is refused.
    """
    samples = [f(grid.axis(i)) for i, f in enumerate(phi.factors)]
    dead = [i for i, w in enumerate(samples) if not w.any()]
    if dead:
        raise ValueError(f"window {phi.describe()} is zero at every grid sample of axes {dead}")
    live = np.flatnonzero(samples[0])
    lo, hi = live[0], live[-1] + 1
    return lo, hi, samples[0][lo:hi], None if all(f.kind == "one" for f in phi.factors[1:]) else tuple(samples[1:])


def _spectra(u: FactoredField, window: tuple, grid: GridSpec, support=None) -> np.ndarray:
    """Windowed 4-D DFT of the r scalars of a held or support-held entry as an (r, Npts) array in the DFT's flat order.

    The window phi = w_t(t) w_x(x) is read through ``_window_dft``: each
    row's live slabs lo:hi (``u.slabs``) times w_t and the product of the
    spatial factors are written into its output row of zeros and FFT'd there
    over (x1, x2, x3), and then the whole row over t.  With ``support`` (a
    support-held entry, under a window that is one on x1..x3) the slabs are
    ``u.spatial_spectrum``, the support's m spatial frequencies with no
    spatial transform, and the array is (r, nt m) in the flat (t, support
    entry) order.  r = 0 gives an
    (0, Npts) array without a transform.  A produced entry is read at its
    lattice points instead (``_read``).

    Memory: the rows are transformed one at a time, each in its own row of
    the output, so a call holds its r output rows, r grid scalars (a grid
    scalar being 16 Npts bytes); a support-held row read through ``slabs``
    adds the one row's slabs it makes.  On a support the rows are nt m values
    and no slab is formed, so an estimate holds r m / (n1 n2 n3) of a grid
    scalar per sequence (9/4096 on const-trajectory: r = 3 on 6 of its 8192
    spatial frequencies) and no grid-sized array.  The time transform pays
    nt log nt over the whole time axis, whatever the window's live slabs.
    """
    lo, hi, wt, spatial = window
    spatial = None if spatial is None else functools.reduce(np.multiply.outer, spatial)
    shape = grid.spatial_shape if support is None else (np.count_nonzero(support),)
    out = np.zeros((u.rank, grid.shape[0]) + shape, dtype=np.complex128)
    for j, row in enumerate(out):
        live = row[lo:hi]
        if support is not None:
            np.multiply(u.spatial_spectrum(j, lo, hi), wt[:, None], out=live)
        else:
            np.multiply(u.slabs(j, lo, hi), wt[:, None, None, None], out=live)
            if spatial is not None:
                live *= spatial
            fftn(live, (1, 2, 3), out=live)
        np.fft.fft(row, axis=0, out=row)
    return out.reshape(u.rank, np.prod(out.shape[1:]))


def _read(u: FactoredField, window: tuple, grid: GridSpec, support=None):
    """The reader of an entry's windowed spectra: points -> the (n, r) complex spectra at those lattice points.

    ``points`` are flat lattice indices (``_Lattice.order``) and the result
    is point-major and C-contiguous, ready for ``_cross_bins``'s float64
    view.  A held or support-held entry is transformed once by ``_spectra``
    and read by gathering the points from all rows.  A produced entry s = C
    S is never transformed on the grid: the windowed DFT of a separable term
    is its time factor's DFT times its spatial part's, so once per call the
    K terms give A (nt, K), the time FFTs of their time factors T times w_t
    on lo:hi and zero off it, and X^ (n1 n2 n3, K), their windowed spatial
    DFTs, each an outer product of three 1-D FFTs for axis factors and one
    3-D FFT for a spatial field; a point p = t n1 n2 n3 + s then reads
    (A[t] X^[s]) C^T.  When the terms have G distinct time factors (exactly
    equal on lo:hi) and G r <= K, so the tables do not grow, C is mixed into
    one spatial table per time factor once, P_g = X^_g C_g^T (n1 n2 n3, r)
    over the terms of factor g, and p reads sum_g A_g[t] P_g[s], A_g that
    factor's DFT.  G = 1 is a plane wave's field (one term) and its charge
    (three terms of one time factor), and a WKB field; a sum of WKB fields
    has one time factor per temporal rate.  A plane wave's source (G = 2,
    r = K = 5) is read through C.

    Memory: a held or support-held reader holds its (r, Npts) spectra
    (``_spectra``); a produced reader holds K nt values and spatial tables
    of K n1 n2 n3 values (G r n1 n2 n3 when premixed, no more), K/nt of a
    grid scalar, which take up to three times that while they are formed;
    its reads are run-sized.  Its time FFTs pay K nt log nt over the whole
    time axis, whatever the window's live slabs.
    """
    if not u.produced:
        F = _spectra(u, window, grid, support)
        # the points are lattice indices, so "clip" moves none and only skips the bounds check of "raise"
        return lambda points: np.ascontiguousarray(np.take(F, points, axis=1, mode="clip").T)
    lo, hi, wt, spatial = window
    C, T, x = u.separated(lo, hi)
    K = len(C.T)
    if len(x) == 1:
        X = x[0] if spatial is None else x[0] * functools.reduce(np.multiply.outer, spatial)
        X = np.ascontiguousarray(fftn(X, (1, 2, 3)).reshape(K, -1).T)
    else:
        if spatial is not None:
            x = [a * w for a, w in zip(x, spatial)]
        f1, f2, f3 = (np.ascontiguousarray(np.fft.fft(a, axis=1).T) for a in x)
        # rows in flat spatial order; einsum, as a broadcast product would, makes each value one product, but it
        # takes no iteration buffers, which at 16^4 are a quarter of a grid scalar
        X = np.einsum("ik,jk->ijk", np.einsum("ik,jk->ijk", f1, f2).reshape(-1, K), f3).reshape(-1, K)
    A, n = np.zeros((grid.shape[0], K), dtype=np.complex128), len(X)
    np.multiply(T, wt[:, None], out=A[lo:hi])
    np.fft.fft(A, axis=0, out=A)

    def split(points):
        # divmod(points, n), the time and flat spatial indices, as two operations: np.divmod takes three times as long
        t = points // n
        return t, points - t * n

    # each term's first term of an equal time factor; the terms that are their own first are the distinct factors
    first = (T[:, :, None] == T[:, None, :]).all(axis=0).argmax(axis=0)
    firsts = np.flatnonzero(first == np.arange(K))
    G, r = len(firsts), u.rank
    if G * r <= K:
        a = A[:, firsts]
        # one factor's table is X C^T of X itself: BLAS can round a product of a copy of X differently
        P = np.concatenate([X[:, first == f] @ C[:, first == f].T for f in firsts], axis=1) if G > 1 else X @ C.T
        del X

        def read(points):
            t, s = split(points)
            z = np.take(P, s, axis=0, mode="clip").reshape(len(s), G, r)
            z *= np.take(a, t, axis=0, mode="clip")[:, :, None]
            return z.sum(axis=1)
    else:
        Ct = np.ascontiguousarray(C.T)

        def read(points):
            t, s = split(points)
            z = np.take(A, t, axis=0, mode="clip")
            z *= np.take(X, s, axis=0, mode="clip")
            return z @ Ct
    return read


def _cross_spectral_measure(family: OscillatingFamily, g_fields, phi: SeparableWindow, sphere) -> HMeasureEstimate:
    """Per-scale window -> spectra -> bins loop behind both public measures.

    Refuses a one-scale ladder and an under-resolved family, and a g^eps
    whose grid differs from u^eps's when that scale is read.  Every entry
    is read once per scale, as its factors, and only its r scalars are
    windowed and transformed: on a support they share (``_shared_support``)
    only the support's lattice points are formed and binned.  ``g_fields``
    None pairs the family with itself and fills the Hermitian half from one
    set of spectra; otherwise u^eps is paired with the m components that
    g^eps has, giving (B, 6, m) bins.

    Memory: one scale is resident at a time.  A scale's entries are read,
    transformed and binned, and its readers released, before the next
    scale is read, so no two full-rank copies are alive at once.  A cross
    of held entries peaks near its r + r' spectra (``_spectra``); a cross
    of a rank-1 plane-wave field against its rank-5 source forms no
    spectrum and holds its readers' factor tables, (1 + 5)(nt + n1 n2 n3)
    values, and reads of runs cut to about ``_CHUNK`` / (2 max(r, r'))
    points (``_cross_bins``), below one grid scalar at 16^4 and above.
    """
    if len(family.epsilons) < 2:
        raise ValueError("need at least two epsilon values for a limit surrogate")
    if family.min_cells_per_wavelength() < MIN_CELLS_PER_WAVELENGTH:
        raise AliasingError(f"family oscillations are under-resolved (< {MIN_CELLS_PER_WAVELENGTH:g} cells/wavelength)")
    sphere = sphere or SphereGrid()
    grid = family.grid
    hermitian = g_fields is None
    scale = grid.cell_volume**2 / grid.box_volume
    window = _window_dft(phi, grid)
    history, centroids, dc_energy = {}, {}, {}
    for e in family.epsilons:
        u = FactoredField.of(family.fields[e])
        g = u if hermitian else g_fields[e]
        if np.shape(g)[1:] != grid.shape:
            raise ValueError("secondary sequence grid mismatch")
        g = FactoredField.of(g)
        support = _shared_support(window, u, g)
        lattice = _lattice_bins(grid, sphere) if support is None else _lattice_bins(grid, sphere, support.tobytes())
        read1 = _read(u, window, grid, support)
        read2 = read1 if hermitian else _read(g, window, grid, support)
        # a cross with a produced reader holds two (n, K) gathers per point while it mixes them, so its runs are
        # cut to hold about _CHUNK / 2 values of its wider read; an auto measure's runs, and a held cross's, are not
        chunk = _CHUNK // (2 * max(u.rank, g.rank, 1)) if not hermitian and (u.produced or g.produced) else _CHUNK
        history[e], centroids[e], dc_energy[e] = _cross_bins(read1, read2, u.V, g.V, lattice, sphere, scale, chunk)
        ranks = (u.rank, g.rank)
        binned = {"points": int(lattice.bounds[-1]), "lattice": "full" if support is None else "support"}
        # one scale resident: the next scale is read and transformed with none of this one's arrays held
        del u, g, read1, read2
    return HMeasureEstimate(
        sphere=sphere,
        epsilons=family.epsilons,
        history=history,
        centroids=centroids,
        dc_energy=dc_energy,
        metadata={"kind": "auto" if hermitian else "cross", "window": phi.describe(), "family": dict(family.metadata),
                  "factor_rank": ranks, "binned_points": binned},
    )


def _shared_support(window: tuple, *entries: FactoredField):
    """The spatial support every entry of rank > 0 is held on, if ``window`` is one on x1..x3; else None.

    Off such a support every entry's spatial spectrum is zero and the
    window leaves it so, so only the support's lattice points carry mass.
    """
    live = [u for u in entries if u.rank]
    if not live or window[3] is not None or any(u.support is None for u in live):
        return None
    support = live[0].support
    return support if all(np.array_equal(u.support, support) for u in live[1:]) else None


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
