"""Time and memory of WKB synthesis per scale, and of one estimate of four superposed waves, at 64 x 32^3.

    PYTHONPATH=src python tests/wkb_peak.py

The four waves are smooth-rays' (``perfbench/workloads.py``) on a finer grid:
eps = (1 + 0.8 x1)^2, eta = 1, sigma = 0.5; ``linear_phase`` along the four
tetrahedral directions with |k| = 0.9, modes ``trans+1`` and ``trans-2`` in
turn, each at the temporal rate of its mode's cone at the box centre, under a
4-D Hann amplitude; eps = 2^-3 and 2^-4; a grid of 64 x 32^3 cells over
(1/4)^4.  Each wave is a ``wkb_family``, a time factor times a spatial field
per scale: its fields as (6,) + grid arrays would hold 201 MB (192 MiB) per
scale, and the four waves' fields 1.6 GB.  The waves' fields and sources are summed with
``sum`` and the sum is estimated once under a time-Hann window on
SphereGrid(8, 8, 16).  It prints one JSON object: the median ``wkb_family``
time per scale over the four waves, the tracemalloc peak of one more build
over its start, the MiB the superposed family holds (and its four waves'
fields would hold as arrays), the estimate's time and the process's peak
RSS in MiB.  It exits with status 1 if the peak RSS exceeds
``MAX_RSS_MB``.
"""

import json
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from hml.estimator import SphereGrid, estimate_hmeasure
from hml.grids import GridSpec, hann_window
from hml.symbols import MaterialModel
from hml.synthesis import OscillatingFamily, linear_phase, wkb_family

GRID = GridSpec(extents=(0.25,) * 4, shape=(64, 32, 32, 32))
EPSILONS = (2.0**-3, 2.0**-4)
DIRECTIONS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
K_NORM = 0.9
MODES = ("trans+1", "trans-2")
# the script's bound, fixed before it is run: the build, the sum and the estimate peak below 256 MB of RSS
MAX_RSS_MB = 256.0


def layered_model() -> MaterialModel:
    """eps = (1 + 0.8 x1)^2, eta = 1, sigma = 0.5."""
    zero = lambda x1, x2, x3: np.zeros(np.broadcast(x1, x2, x3).shape)
    return MaterialModel.scalar_smooth(
        eps=lambda x1, x2, x3: (1.0 + 0.8 * x1) ** 2 + zero(x1, x2, x3),
        eta=lambda x1, x2, x3: 1.0 + zero(x1, x2, x3),
        sigma=lambda x1, x2, x3: 0.5 + zero(x1, x2, x3),
        grad_eps=lambda x1, x2, x3: np.stack([1.6 * (1.0 + 0.8 * x1) + zero(x1, x2, x3), zero(x1, x2, x3),
                                              zero(x1, x2, x3)]),
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=1.0,
        eta_min=1.0,
    )


def waves(model: MaterialModel) -> list:
    """(phase, mode) of the four waves."""
    v = model.speed_at(np.asarray(GRID.extents[1:]) / 2.0)
    out = []
    for n, d in enumerate(DIRECTIONS):
        mode = MODES[n % 2]
        out.append((linear_phase(K_NORM * d, (-1.0 if "+" in mode else 1.0) * v * K_NORM), mode))
    return out


def held_bytes(entry) -> int:
    """Bytes of a produced entry's factors: V, C and its terms."""
    return entry.V.nbytes + entry.C.nbytes + sum(a.nbytes for a in entry.terms)


def main() -> None:
    model, amplitude = layered_model(), hann_window(GRID)
    parts, per_scale = [], []
    for phase, mode in waves(model):
        start = time.perf_counter()
        parts.append(wkb_family(model, GRID, phase, amplitude, mode, EPSILONS))
        per_scale.append((time.perf_counter() - start) / len(EPSILONS))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        phase, mode = waves(model)[0]
        wkb_family(model, GRID, phase, amplitude, mode, EPSILONS)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    family = OscillatingFamily(
        grid=GRID, epsilons=EPSILONS,
        fields={e: sum(p.fields[e] for p in parts) for e in EPSILONS},
        sources={e: sum(p.sources[e] for p in parts) for e in EPSILONS},
        metadata={"min_cells_per_wavelength": min(p.min_cells_per_wavelength() for p in parts)})
    del parts
    start = time.perf_counter()
    est = estimate_hmeasure(family, hann_window(GRID, axes=(0,)), SphereGrid(8, 8, 16))
    estimate_s = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({
        "shape": list(GRID.shape),
        "points": GRID.num_points,
        "wkb_family_s_per_scale": statistics.median(per_scale),
        "wkb_family_peak_mb": peak / 2**20,
        "held_fields_mb": len(DIRECTIONS) * len(EPSILONS) * 6 * 16 * GRID.num_points / 2**20,
        "family_mb": sum(held_bytes(u) for u in (*family.fields.values(), *family.sources.values())) / 2**20,
        "factor_rank": est.metadata["factor_rank"],
        "estimate_s": estimate_s,
        "peak_rss_mb": rss,
    }, sys.stdout)
    print()
    if rss > MAX_RSS_MB:
        sys.exit(f"peak RSS {rss:.1f} MB > {MAX_RSS_MB:g} MB")


if __name__ == "__main__":
    main()
