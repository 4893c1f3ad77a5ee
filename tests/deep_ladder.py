"""A deep epsilon ladder of an exact evolved family, estimated on its support, with its per-scale limit distance.

    PYTHONPATH=src python tests/deep_ladder.py

A ``trans+1`` family along e3 in a lossless medium, with a Hann envelope in
x1, on a 1024 x 16 x 16 x 256 grid of extents (1, 1/4, 1/4, 1/4) at
eps = 2^-4 .. 2^-8, estimated under ``full_window()``: the finest scale has 4
cells per wavelength in t and x3.  Its whole DFT lattice would be 67M points;
its support is the 3 x1 frequencies of the Hann factor at one x3 frequency
per scale, 15 in all, so each scale bins 1024 x 15 points.  The H-measure of
each scale concentrates at the limit direction (c, k)/|(c, k)| (Tartar
1990); ``limit_distances`` is the mass-weighted angular distance from each
bin's centroid to it, per scale.

Run as a script, it prints one JSON object: the time to build the family and
to estimate it, the process's peak RSS, the binned points and the per-scale
distances with the observed order log2(d_eps / d_{eps/2}) between scales.
``tests/test_estimator.py`` runs the same family under a memory bound.
"""

import json
import resource
import sys
import time

import numpy as np

from hml.estimator import SphereGrid, estimate_hmeasure
from hml.grids import GridSpec, full_window, hann_window
from hml.symbols import MaterialModel
from hml.synthesis import evolved_family

GRID = GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=(1024, 16, 16, 256))
EPSILONS = tuple(2.0**-n for n in range(4, 9))
SPHERE = SphereGrid(10, 8, 16)
K = (0.0, 0.0, 1.0)


def deep_family():
    return evolved_family(MaterialModel.constant(1.0, 1.0, 0.0), GRID, K, "trans+1", EPSILONS,
                          hann_window(GRID, axes=(1,)))


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
    family = deep_family()
    built = time.perf_counter()
    est = estimate_hmeasure(family, full_window(), SPHERE)
    done = time.perf_counter()
    distances = limit_distances(est, family)
    json.dump({
        "family_s": built - start,
        "estimate_s": done - built,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "binned_points": est.metadata["binned_points"],
        "full_lattice_points": GRID.num_points,
        "epsilons": list(est.epsilons),
        "limit_distance": distances,
        "order": [float(np.log2(a / b)) for a, b in zip(distances, distances[1:])],
    }, sys.stdout)
    print()


if __name__ == "__main__":
    main()
