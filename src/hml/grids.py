"""Regular spacetime grids and separable smooth windows.

The sampling box is [0,T] x [0,L1] x [0,L2] x [0,L3] with power-of-two
shapes so that 4-D FFTs stay cheap.  Windows are tensor products of
per-axis factors; each factor is either identically one or a raised
cosine supported on a subinterval, and carries its analytic derivative.
Every DFT in the package is a ``numpy.fft`` FFT: along one axis, or over
several by ``fftn``, one in-place pass per axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["GridSpec", "AxisWindow", "SeparableWindow", "hann_window", "full_window", "fftn", "set_workers",
           "integral_counts"]


def set_workers(n: int | None) -> None:
    """Changes no transform: every DFT is a serial ``numpy.fft`` pass.  Kept only while ``perfbench`` calls it."""


def fftn(a: np.ndarray, axes: Sequence[int], inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """DFT of ``a`` over ``axes``, or with ``inverse`` the inverse DFT (1/n per axis), as one 1-D pass per axis.

    Each pass writes into ``out``: a complex128 array of a's shape, which
    may be ``a`` itself; without it the first pass allocates the result.
    ``np.fft.fftn`` would copy the array on every axis.
    """
    transform = np.fft.ifft if inverse else np.fft.fft
    for ax in axes:
        out = transform(a, axis=ax, out=out)
        a = out
    return out


def integral_counts(what: str, counts) -> tuple:
    """``counts`` as ints; ValueError naming them unless every one is a finite integral number."""
    if not all(np.isfinite(n) and int(n) == n for n in counts):
        raise ValueError(f"{what} must be integers, not {tuple(counts)}")
    return tuple(int(n) for n in counts)


@dataclass(frozen=True)
class GridSpec:
    """Periodic sampling of the spacetime box [0,T] x [0,L1] x [0,L2] x [0,L3].

    Every axis is periodic: the estimator and the spectral derivatives take
    DFTs over the whole box.  Extents must be positive and finite, and shape
    entries integral powers of two, at least 8.
    """

    extents: tuple
    shape: tuple

    def __post_init__(self):
        if len(self.extents) != 4 or len(self.shape) != 4:
            raise ValueError("extents and shape must have four entries (t, x1, x2, x3)")
        object.__setattr__(self, "shape", integral_counts("shape entries", self.shape))
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        if not all(0 < e < np.inf for e in self.extents):
            raise ValueError(f"extents must be positive and finite, not {self.extents}")
        for n in self.shape:
            if n < 8 or n & (n - 1):
                raise ValueError("shape entries must be powers of two and >= 8")

    @property
    def spacing(self) -> tuple:
        return tuple(e / n for e, n in zip(self.extents, self.shape))

    def axis(self, i: int) -> np.ndarray:
        """Sample coordinates along axis i (left endpoints, periodic)."""
        return np.arange(self.shape[i]) * self.spacing[i]

    def meshes(self) -> tuple:
        """Broadcastable coordinate arrays (t, x1, x2, x3)."""
        return tuple(
            self.axis(i).reshape([-1 if j == i else 1 for j in range(4)]) for i in range(4)
        )

    def spatial_meshes(self) -> tuple:
        """Broadcastable (x1, x2, x3) arrays over the spatial grid."""
        return tuple(
            self.axis(1 + i).reshape([-1 if j == i else 1 for j in range(3)]) for i in range(3)
        )

    def freq_axis(self, i: int) -> np.ndarray:
        """DFT frequencies along axis i in cycles per unit length."""
        return np.fft.fftfreq(self.shape[i], d=self.spacing[i])

    def freq_meshes(self) -> tuple:
        return tuple(
            self.freq_axis(i).reshape([-1 if j == i else 1 for j in range(4)]) for i in range(4)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def box_volume(self) -> float:
        return float(np.prod(self.extents))

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spatial_shape(self) -> tuple:
        return self.shape[1:]


@dataclass(frozen=True)
class AxisWindow:
    """One tensor factor: 'one' everywhere or a raised cosine on a finite [lo, hi], lo < hi."""

    kind: str  # "one" | "hann"
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("one", "hann"):
            raise ValueError(f"unknown axis window kind {self.kind!r}")
        if self.kind == "hann" and not np.isfinite([self.lo, self.hi]).all():
            raise ValueError(f"hann window needs finite ends, not [{self.lo}, {self.hi}]")
        if self.kind == "hann" and not self.hi > self.lo:
            raise ValueError("hann window needs hi > lo")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "one":
            return np.ones_like(s)
        u = (s - self.lo) / (self.hi - self.lo)
        inside = (u >= 0.0) & (u <= 1.0)
        return np.where(inside, np.sin(np.pi * np.clip(u, 0, 1)) ** 2, 0.0)

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "one":
            return np.zeros_like(s)
        w = self.hi - self.lo
        u = (s - self.lo) / w
        inside = (u >= 0.0) & (u <= 1.0)
        return np.where(inside, (np.pi / w) * np.sin(2 * np.pi * np.clip(u, 0, 1)), 0.0)

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "hann":
            d.update(lo=self.lo, hi=self.hi)
        return d


@dataclass(frozen=True)
class SeparableWindow:
    """Tensor product of four axis factors over (t, x1, x2, x3)."""

    factors: tuple  # four AxisWindow

    def __post_init__(self):
        if len(self.factors) != 4:
            raise ValueError("need one factor per axis")

    def sample(self, grid: GridSpec) -> np.ndarray:
        t, x1, x2, x3 = grid.meshes()
        return self.factors[0](t) * self.factors[1](x1) * self.factors[2](x2) * self.factors[3](x3)

    def sample_gradient(self, grid: GridSpec) -> list:
        """Analytic 4-gradient sampled on the grid, one array per axis."""
        coords = grid.meshes()
        vals = [f(c) for f, c in zip(self.factors, coords)]
        grads = []
        for i in range(4):
            parts = [self.factors[j].derivative(coords[j]) if j == i else vals[j] for j in range(4)]
            grads.append(parts[0] * parts[1] * parts[2] * parts[3])
        return grads

    def centroid(self, grid: GridSpec) -> np.ndarray:
        """|phi|^2-weighted mean point of the window on the grid."""
        coords = [grid.axis(i) for i in range(4)]
        out = np.zeros(4)
        for i in range(4):
            w2 = self.factors[i](coords[i]) ** 2
            total = w2.sum()
            out[i] = (coords[i] * w2).sum() / total if total > 0 else 0.5 * grid.extents[i]
        return out

    def describe(self) -> dict:
        return {"factors": [f.describe() for f in self.factors]}


def hann_window(grid: GridSpec, axes: Sequence[int] = (0, 1, 2, 3), margin: float = 0.0) -> SeparableWindow:
    """Raised-cosine window spanning each requested axis, 'one' on the rest.

    margin shrinks the support symmetrically by that fraction of the extent.
    """
    factors = []
    for i in range(4):
        if i in axes:
            lo = margin * grid.extents[i]
            hi = (1.0 - margin) * grid.extents[i]
            factors.append(AxisWindow("hann", lo, hi))
        else:
            factors.append(AxisWindow("one"))
    return SeparableWindow(tuple(factors))


def full_window() -> SeparableWindow:
    """The constant window, identically one."""
    return SeparableWindow(tuple(AxisWindow("one") for _ in range(4)))
