"""A deep epsilon ladder of an exact evolved family, estimated on its support, with its per-scale limit distance.

    PYTHONPATH=src python tests/deep_ladder.py

A ``trans+1`` family along e3 in a lossless medium, with a Hann envelope in
x1, on a grid of extents (1, 1/4, 1/4, 1/4) with 16 x 16 cells in (x1, x2),
estimated under ``full_window()``.  Each ladder's finest scale has 4 cells
per wavelength in t and x3.  Each scale's spectrum lives on the 3 x1
frequencies of the Hann factor at one x3 frequency, and each scale is held
and binned on that support alone, nt x 3 points.  The
H-measure of each scale concentrates at the limit direction
(c, k)/|(c, k)| (Tartar 1990); ``limit_distances`` is the mass-weighted
angular distance from each bin's centroid to it, per scale.

``tests/test_estimator.py`` runs the family on 1024 x 16 x 16 x 256 at eps =
2^-4 .. 2^-8 (``TIER1_GRID``, ``TIER1_EPSILONS``), whose whole DFT lattice
would be 67M points, under a memory bound.  Run as a script, it estimates
the family on 4096 x 16 x 16 x 1024 at eps = 2^-4 .. 2^-10 (``SCRIPT_GRID``,
``SCRIPT_EPSILONS``), a lattice of 1.1G points of which each scale bins its
own 4096 x 3, then twice more under time windows (``WINDOWS``), and prints
one JSON object: the time to build the family and to make each estimate,
the process's peak RSS, the binned points, the support lattices built, and
the first estimate's per-scale distances with the observed order
log2(d_eps / d_{eps/2}) between scales.  It exits with status 1 if the peak
RSS reaches ``MAX_RSS_MB``, an observed order falls below ``MIN_ORDER``, or
the three estimates built a support lattice more than once.
"""

import json
import resource
import sys
import time

import numpy as np

from hml.estimator import SphereGrid, _lattice_bins, estimate_hmeasure
from hml.grids import GridSpec, full_window, hann_window
from hml.symbols import MaterialModel
from hml.synthesis import evolved_family
from hml.transport import time_subwindow

TIER1_GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(1024, 16, 16, 256))
TIER1_EPSILONS = tuple(2.0**-n for n in range(4, 9))
SCRIPT_GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(4096, 16, 16, 1024))
SCRIPT_EPSILONS = tuple(2.0**-n for n in range(4, 11))
SPHERE = SphereGrid(10, 8, 16)
K = (0.0, 0.0, 1.0)
# the script's bounds, fixed before it is run: peak RSS below 64 MB and every observed order at least 0.9
MAX_RSS_MB = 64.0
MIN_ORDER = 0.9
# the estimates' windows, each one on x1..x3, so every scale is binned on its own support lattice
WINDOWS = (full_window(), hann_window(SCRIPT_GRID, axes=(0,)), time_subwindow(SCRIPT_GRID, 0.5, 0.25))


def deep_family(grid: GridSpec, epsilons: tuple):
    return evolved_family(MaterialModel.constant(1.0, 1.0, 0.0), grid, K, "trans+1", epsilons,
                          hann_window(grid, axes=(1,)))


def limit_distances(est, family) -> list:
    """Per scale, the mass-weighted mean angle between each bin's centroid and (c, k)/|(c, k)|."""
    limit = np.array([family.metadata["temporal_rate"], *family.metadata["k"]])
    limit /= np.linalg.norm(limit)
    out = []
    for e in est.epsilons:
        mass = np.trace(est.history[e], axis1=1, axis2=2).real
        live = mass > 0
        angle = np.arccos(np.clip(est.centroids[e][live] @ limit, -1.0, 1.0))
        out.append(float(np.sum(mass[live] * angle) / np.sum(mass[live])))
    return out


def main() -> None:
    start = time.perf_counter()
    family = deep_family(SCRIPT_GRID, SCRIPT_EPSILONS)
    built = time.perf_counter()
    est = estimate_hmeasure(family, WINDOWS[0], SPHERE)
    estimate_s = [time.perf_counter() - built]
    for window in WINDOWS[1:]:  # each estimate is let go once made: only its lattices' builds are counted
        begun = time.perf_counter()
        estimate_hmeasure(family, window, SPHERE)
        estimate_s.append(time.perf_counter() - begun)
    distances = limit_distances(est, family)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    order = [float(np.log2(a / b)) for a, b in zip(distances, distances[1:])]
    builds = _lattice_bins.cache_info().misses
    json.dump({
        "family_s": built - start,
        "estimate_s": estimate_s,
        "lattices_built": builds,
        "peak_rss_mb": rss,
        "binned_points": est.metadata["binned_points"],
        "full_lattice_points": SCRIPT_GRID.num_points,
        "epsilons": list(est.epsilons),
        "limit_distance": distances,
        "order": order,
    }, sys.stdout)
    print()
    failed = [f"peak RSS {rss:.1f} MB >= {MAX_RSS_MB:g} MB"] if rss >= MAX_RSS_MB else []
    failed += [f"order {o:.3f} < {MIN_ORDER:g}" for o in order if o < MIN_ORDER]
    if builds != len(SCRIPT_EPSILONS):
        failed.append(f"{builds} support lattices built for {len(SCRIPT_EPSILONS)} scales")
    if failed:
        sys.exit("; ".join(failed))


if __name__ == "__main__":
    main()
