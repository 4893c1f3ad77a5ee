"""One tiny pass through every layer of ``hml`` that fails if SciPy or ``numpy.ma`` was imported.

    PYTHONPATH=src python tests/numpy_only_pass.py

NumPy is the package's one runtime dependency.  The pass builds a plane-wave,
an evolved and a layered-phase WKB family on a 16 x 8^3 box, estimates and
fits each, crosses the plane wave with its source and its charge and the WKB
family with its charge, fits the evolved family at three time windows into a
constant-case density trajectory and its transport residual, and predicts it
forward and compares.  The plane wave's field, source and charge are produced
entries, read at their lattice points, so its crosses must report factor
ranks (1, 5) and (1, 1); the WKB field's charge is one produced row of spatial
fields, so its cross must report (r, 1), r the field's rank.  The pass also
adds to that WKB wave a layered-phase wave on the opposite branch
(``sign="-"``, ``trans-1``), so the sum has two time factors; it estimates
the sum and crosses it with its charge, and each must be within 1e-12 of its
largest bin of the same measure of the sum's materialised array.  The sum's
charge (two time factors, one row, four terms) is read from premixed tables,
so its read sums two column groups; the sum itself (four rows of four terms)
is read through its coefficients.  The evolved family is held on its spatial
support, so its time-windowed estimate must have binned nt m lattice points,
m the support's size, on a lattice built over the support alone;
``bin_occupancy`` of the grid and sphere must describe the full lattice.  It
exits with an error naming that estimate's binned points, the occupancy or
the crosses' ranks if they differ, the measure of the two-branch sum that is
off its materialised array's, or every ``scipy`` module that was imported,
or ``numpy.ma`` if it was: NumPy imports it only for some set routines
(``np.unique`` and its callers), which cost a fresh process 10-15 ms and
which the package does not call.
``test_package_runs_without_scipy`` runs it with SciPy blocked, and CI runs
it where only the declared runtime dependencies are installed.
"""

import sys

import numpy as np

from hml import estimator, grids, symbols, synthesis, transport, verifier


def main() -> None:
    model = symbols.MaterialModel.constant(1.0, 1.0, 0.5)
    grid = grids.GridSpec(extents=(0.25, 0.125, 0.125, 0.125), shape=(16, 8, 8, 8))
    eps, k = (2.0**-3, 2.0**-4), (0.0, 0.0, 1.0)
    sphere, window = estimator.SphereGrid(4, 4, 4), grids.hann_window(grid, axes=(0,))
    phase = synthesis.layered_phase(model, axis=2, sign="+", x_max=grid.extents[3])
    families = [
        synthesis.plane_wave_family(model, grid, k, "trans+1", grids.hann_window(grid, axes=(0, 1)), eps),
        synthesis.evolved_family(model, grid, k, "trans+1", eps, grids.hann_window(grid, axes=(1,))),
        synthesis.wkb_family(model, grid, phase, grids.hann_window(grid), "trans+1", eps),
    ]
    estimates = [estimator.estimate_hmeasure(fam, window, sphere) for fam in families]
    for est in estimates:
        verifier.fit_constant_decomposition(est)
    crosses = [estimator.correlation_measure(families[0], g(families[0]), window, sphere)
               for g in (estimator.source_fields, estimator.charge_tilde_fields)]
    ranks = [cross.metadata["factor_rank"] for cross in crosses]
    if ranks != [(1, 5), (1, 1)]:
        raise SystemExit(f"the plane wave's source and charge crosses read factor ranks {ranks}, not [(1, 5), (1, 1)]")
    wkb = estimator.correlation_measure(families[2], estimator.charge_tilde_fields(families[2]), window, sphere)
    want = (families[2].fields[families[2].finest].rank, 1)
    if wkb.metadata["factor_rank"] != want:
        raise SystemExit(f"the WKB family's charge cross reads factor ranks {wkb.metadata['factor_rank']}, not {want}")
    # two layered waves on opposite branches, so their sum has two time factors; each measure of the sum, read from
    # its factors, must match the same measure of its materialised array
    minus = synthesis.wkb_family(model, grid, synthesis.layered_phase(model, axis=2, sign="-", x_max=grid.extents[3]),
                                 grids.hann_window(grid), "trans-1", eps)
    meta = {"min_cells_per_wavelength": min(w.min_cells_per_wavelength() for w in (families[2], minus))}
    summed = synthesis.OscillatingFamily(grid=grid, epsilons=minus.epsilons, metadata=meta,
                                         fields={e: families[2].fields[e] + minus.fields[e] for e in minus.epsilons})
    held = synthesis.OscillatingFamily(grid=grid, epsilons=minus.epsilons, metadata=meta,
                                       fields={e: np.asarray(u) for e, u in summed.fields.items()})
    for name, measure in (("estimate", lambda f: estimator.estimate_hmeasure(f, window, sphere)),
                          ("charge cross", lambda f: estimator.correlation_measure(f, estimator.charge_tilde_fields(f),
                                                                                   window, sphere))):
        got, want = measure(summed).bins, measure(held).bins
        err = float(np.abs(got - want).max() / np.abs(want).max())
        if not err <= 1e-12:
            raise SystemExit(f"the two-branch WKB sum's {name} is {err:.3g} of its largest bin off its materialised "
                             "array's")
    support = families[1].fields[families[1].finest].support
    binned = {"points": grid.shape[0] * int(support.sum()), "lattice": "support"}
    if estimates[1].metadata["binned_points"] != binned:
        raise SystemExit(f"the evolved estimate binned {estimates[1].metadata['binned_points']}, not {binned}")
    occupancy = {"empty_bins": 0, "median_points": 57.0, "below_floor": False}
    if estimator.bin_occupancy(grid, sphere) != occupancy:
        raise SystemExit(f"the bin occupancy {estimator.bin_occupancy(grid, sphere)} is not the full lattice's "
                         f"{occupancy}")
    times = (0.0625, 0.125, 0.1875)
    held = [estimator.estimate_hmeasure(families[1], transport.time_subwindow(grid, t, 0.125), sphere) for t in times]
    fits = [verifier.fit_constant_decomposition(est) for est in held]
    trajectory = transport.DensityTrajectory.from_constant_fits(times, sphere, fits)
    transport.constant_transport_residual(trajectory, model)
    transport.predict_then_compare(families[1], model, times[0], times[-1], sphere=sphere, window_width=0.125)
    # a module blocked by ``sys.modules["scipy"] = None`` sits there as None
    loaded = sorted(name for name, mod in sys.modules.items() if mod is not None and name.split(".")[0] == "scipy")
    if loaded:
        raise SystemExit(f"the pass imported SciPy: {loaded}")
    if "numpy.ma" in sys.modules:
        raise SystemExit("the pass imported numpy.ma")


if __name__ == "__main__":
    main()
