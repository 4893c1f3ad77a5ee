"""Time and traced peak memory of an uncached S^3 lattice build, per lattice point.

    PYTHONPATH=src python tests/lattice_peak.py

For each of the grids 16^4, 32^4 and 64 x 32^3 the full DFT lattice is built
uncached (``estimator._lattice_bins``, the function under its cache) under
cross-large's sphere, SphereGrid(12, 8, 16).  Each grid prints one JSON line:
the median time of three untraced builds, the tracemalloc peak of a fourth
build over its start, per lattice point, and the bytes per point of the
lattice it returns (``order``, ``bounds`` and ``dirs``).  The bin loop reads
that lattice; the build's peak is the most memory the lattice costs an estimate.
"""

import json
import statistics
import sys
import time
import tracemalloc

from hml.estimator import SphereGrid, _lattice_bins
from hml.grids import GridSpec

SPHERE = SphereGrid(12, 8, 16)
GRIDS = (GridSpec(extents=(0.25,) * 4, shape=(16,) * 4),
         GridSpec(extents=(0.25,) * 4, shape=(32,) * 4),
         GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(64, 32, 32, 32)))
REPEATS = 3


def build_s(grid: GridSpec) -> float:
    """Median wall time of ``REPEATS`` uncached builds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _lattice_bins.__wrapped__(grid, SPHERE)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_peak(grid: GridSpec) -> tuple:
    """tracemalloc peak of one uncached build over its start, and the bytes of the lattice it returns."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lattice = _lattice_bins.__wrapped__(grid, SPHERE)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak, sum(a.nbytes for a in lattice)


def main() -> None:
    for grid in GRIDS:
        seconds = build_s(grid)
        peak, held = traced_peak(grid)
        json.dump({
            "shape": list(grid.shape),
            "points": grid.num_points,
            "sphere": [SPHERE.n_zeta0, SPHERE.n_theta, SPHERE.n_phi],
            "build_s": seconds,
            "peak_b_per_point": peak / grid.num_points,
            "result_b_per_point": held / grid.num_points,
        }, sys.stdout)
        print()


if __name__ == "__main__":
    main()
