"""One tiny pass through every layer of ``hml`` that fails if SciPy was imported.

    PYTHONPATH=src python tests/numpy_only_pass.py

NumPy is the package's one runtime dependency.  The pass builds a plane-wave,
an evolved and a layered-phase WKB family on a 16 x 8^3 box, estimates and
fits each, and predicts the evolved family forward and compares.  It then
exits with an error naming every ``scipy`` module that was imported.
``test_package_runs_without_scipy`` runs it with SciPy blocked, and CI runs
it where only the declared runtime dependencies are installed.
"""

import sys

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
    for fam in families:
        verifier.fit_constant_decomposition(estimator.estimate_hmeasure(fam, window, sphere))
    transport.predict_then_compare(families[1], model, 0.0625, 0.1875, sphere=sphere, window_width=0.125)
    # a module blocked by ``sys.modules["scipy"] = None`` sits there as None
    loaded = sorted(name for name, mod in sys.modules.items() if mod is not None and name.split(".")[0] == "scipy")
    if loaded:
        raise SystemExit(f"the pass imported SciPy: {loaded}")


if __name__ == "__main__":
    main()
