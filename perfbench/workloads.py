"""The benchmark's workloads: seeded inputs, one pipeline pass, and checks.

Each workload is a full pass through the public API of ``hml.synthesis``
-> ``hml.estimator`` -> ``hml.verifier`` -> ``hml.transport``.  A workload
has three steps:

* ``build(seed, small)`` makes the inputs (model, grid, sphere, windows and
  every seeded choice).  This is the set-up the ``setup_s`` metric times.
* ``run(inputs)`` is the timed pass.  It returns the accuracy outputs and
  the objects the checks need.
* ``check(inputs, out, probe)`` returns the names of the failed checks.
  ``probe`` holds the estimates and ray paths made inside
  ``predict_then_compare``.

Every call into ``hml`` goes through a module attribute (``synthesis.x``,
never a bare imported name), so the tracer's wrappers see it.

The tolerances are the ones the tier-1 tests use for the same quantities.
"""

from __future__ import annotations

import numpy as np

from hml import estimator, grids, symbols, synthesis, transport, verifier

EPS_LADDER = (2.0**-3, 2.0**-4)

# Tier-1 tolerances (tests/test_estimator.py, tests/test_transport.py,
# tests/test_verifier.py).
HERMITIAN_DEFECT_MAX = 1e-12
MIN_EIGEN_RATIO_MIN = -1e-10
HAMILTONIAN_DRIFT_MAX = 1e-8
RATIO_REL_TOL = 0.1
PREDICT_L1_MAX = 0.1
PREDICT_ERR_MAX = 0.1
SUPPORT_MISS_MAX = 0.01
LOC_RESIDUAL_MAX = 0.1

# ------------------------------------------------------------------ helpers

def fit_residual(pairs) -> float:
    """Mass-weighted mean relative misfit over (estimate, fit) pairs."""
    num = den = 0.0
    for est, fit in pairs:
        w = est.masses()[fit.bin_indices]
        num += float(np.sum(w * fit.residuals))
        den += float(np.sum(w))
    return num / den if den > 0 else float("nan")


def predict_outputs(rep) -> dict:
    return {
        "predict_err": abs(rep.predicted_ratio / rep.mass_ratio - 1.0),
        "predict_l1": rep.per_bin_l1_discrepancy,
    }


def estimate_checks(estimates, failed: list) -> None:
    for n, est in enumerate(estimates):
        if not est.hermitian_defect() <= HERMITIAN_DEFECT_MAX:
            failed.append(f"estimate[{n}].hermitian_defect")
        if not est.min_eigen_ratio() >= MIN_EIGEN_RATIO_MIN:
            failed.append(f"estimate[{n}].min_eigen_ratio")


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


# ------------------------------------------------------- const-trajectory

class ConstTrajectory:
    """Time-resolved constant-coefficient check on an exact damped solution."""

    name = "const-trajectory"

    @staticmethod
    def build(seed: int, small: bool) -> dict:
        model = symbols.MaterialModel.constant(1.0, 1.0, 1.0)
        shape = (32, 8, 8, 16) if small else (64, 16, 16, 32)
        grid = grids.GridSpec(extents=(1.0, 0.25, 0.25, 0.25), shape=shape)
        times = np.linspace(0.25, 0.75, 5)
        return {
            "model": model,
            "grid": grid,
            "sphere": estimator.SphereGrid(10, 8, 16),
            "envelope": grids.hann_window(grid, axes=(1,)),
            "times": times,
            "windows": [transport.time_subwindow(grid, t, 0.25) for t in times],
            "k": (0.0, 0.0, 1.0),
        }

    @staticmethod
    def run(inp: dict) -> dict:
        model, sphere = inp["model"], inp["sphere"]
        family = synthesis.evolved_family(model, inp["grid"], inp["k"], "long-e", EPS_LADDER, inp["envelope"])
        estimates, fits = [], []
        for w in inp["windows"]:
            est = estimator.estimate_hmeasure(family, w, sphere=sphere)
            estimates.append(est)
            fits.append(verifier.fit_constant_decomposition(est))
        traj = transport.DensityTrajectory.from_constant_fits(inp["times"], sphere, fits)
        rows = transport.constant_transport_residual(traj, model)
        cmp = transport.predict_then_compare(family, model, 0.25, 0.75, sphere=sphere, window_width=0.25)
        acc = {"transport_max_rel": rows.max_relative, "fit_residual": fit_residual(zip(estimates, fits))}
        acc.update(predict_outputs(cmp))
        return {"accuracy": acc, "family": family, "estimates": estimates, "fits": fits, "compare": cmp}

    @staticmethod
    def check(inp: dict, out: dict, probe) -> list:
        failed: list = []
        estimate_checks(out["estimates"] + probe.estimates, failed)
        cmp = out["compare"]
        sigma = inp["model"].sigma_at((0.0, 0.0, 0.0))
        if not within(cmp.mass_ratio, np.exp(-2 * sigma * (cmp.t1 - cmp.t0)), RATIO_REL_TOL):
            failed.append("mass_ratio")
        if not within(cmp.predicted_ratio, cmp.mass_ratio, RATIO_REL_TOL):
            failed.append("predicted_ratio")
        if not cmp.per_bin_l1_discrepancy <= PREDICT_L1_MAX:
            failed.append("predict_l1")
        return failed


# ------------------------------------------------------------ smooth-rays

LAYER_SLOPE = 0.8


def layered_model() -> symbols.MaterialModel:
    """eps = (1 + 0.8 x1)^2, eta = 1, sigma = 0.5 on x1 >= 0."""

    def eps(x1, x2, x3):
        return (1.0 + LAYER_SLOPE * x1) ** 2 + 0.0 * (x2 + x3)

    def grad_eps(x1, x2, x3):
        g = np.zeros((3,) + np.broadcast(x1, x2, x3).shape)
        g[0] = 2.0 * LAYER_SLOPE * (1.0 + LAYER_SLOPE * x1)
        return g

    return symbols.MaterialModel.scalar_smooth(
        eps=eps,
        eta=lambda x1, x2, x3: np.ones(np.broadcast(x1, x2, x3).shape),
        sigma=lambda x1, x2, x3: np.full(np.broadcast(x1, x2, x3).shape, 0.5),
        grad_eps=grad_eps,
        grad_eta=lambda x1, x2, x3: np.zeros((3,) + np.broadcast(x1, x2, x3).shape),
        eps_min=1.0,
        eta_min=1.0,
    )


class SmoothRays:
    """Superposed WKB waves in a layered medium: rays, modal fits, variable rows."""

    name = "smooth-rays"
    n_waves = 4
    k_norm = 0.9
    modes = ("trans+1", "trans-2")
    base_directions = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / np.sqrt(3.0)
    jitter = 0.02

    @classmethod
    def build(cls, seed: int, small: bool) -> dict:
        rng = np.random.default_rng(seed)
        model = layered_model()
        grid = grids.GridSpec(extents=(0.25,) * 4, shape=(16,) * 4)
        x_bar = np.asarray(grid.extents[1:]) / 2.0
        v_bar = model.speed_at(x_bar)
        dirs = cls.base_directions + rng.normal(scale=cls.jitter, size=cls.base_directions.shape)
        ks = cls.k_norm * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        waves = []
        for n, k in enumerate(ks):
            mode = cls.modes[n % 2]
            # temporal rate on the mode's cone at the window centre
            c = (-1.0 if "+" in mode else 1.0) * v_bar * cls.k_norm
            waves.append((synthesis.linear_phase(k, c), mode))
        times = np.linspace(1 / 16, 3 / 16, 5)
        return {
            "model": model,
            "grid": grid,
            "sphere": estimator.SphereGrid(6, 6, 8) if small else estimator.SphereGrid(8, 8, 16),
            "amplitude": grids.hann_window(grid),
            "window": grids.hann_window(grid, axes=(0,)),
            "waves": waves,
            "x_bar": x_bar,
            "times": times,
            "windows": [transport.time_subwindow(grid, t, 1 / 8) for t in times],
        }

    @staticmethod
    def superpose(parts) -> synthesis.OscillatingFamily:
        first = parts[0]
        fields = {e: sum(p.fields[e] for p in parts) for e in first.epsilons}
        sources = {e: sum(p.sources[e] for p in parts) for e in first.epsilons}
        meta = {
            "generator": "wkb-superposition",
            "parts": [p.metadata for p in parts],
            "min_cells_per_wavelength": min(p.min_cells_per_wavelength() for p in parts),
        }
        return synthesis.OscillatingFamily(grid=first.grid, epsilons=first.epsilons, fields=fields,
                                           sources=sources, metadata=meta)

    @classmethod
    def run(cls, inp: dict) -> dict:
        model, grid, sphere, x_bar = inp["model"], inp["grid"], inp["sphere"], inp["x_bar"]
        parts = [synthesis.wkb_family(model, grid, phase, inp["amplitude"], mode, EPS_LADDER)
                 for phase, mode in inp["waves"]]
        family = cls.superpose(parts)
        del parts
        est = estimator.estimate_hmeasure(family, inp["window"], sphere=sphere)
        fit = verifier.fit_modal_decomposition(est, model, x_bar)
        loc = verifier.localisation_residual(est, "P", model, x_bar)
        sup = verifier.support_check(est, "scalar_smooth", model, x_bar)
        cmp = transport.predict_then_compare(family, model, 1 / 16, 3 / 16, sphere=sphere)
        estimates, fits = [est], [fit]
        blocks = []
        for w in inp["windows"]:
            e_t = estimator.estimate_hmeasure(family, w, sphere=sphere)
            f_t = verifier.fit_modal_decomposition(e_t, model, x_bar)
            estimates.append(e_t)
            fits.append(f_t)
            blocks.append(cls.sigma_blocks(model, x_bar, sphere, f_t))
        common = set(fits[1].bin_indices.tolist())
        for f_t in fits[2:]:
            common &= set(f_t.bin_indices.tolist())
        data = {name: np.stack([b[name] for b in blocks]) for name in ("s11", "s12", "s21", "s22")}
        traj = transport.DensityTrajectory(times=inp["times"], sphere=sphere, case="scalar_smooth", data=data,
                                           x_center=x_bar, valid_bins=np.array(sorted(common), dtype=int))
        rows = transport.variable_transport_residual(traj, model)
        acc = {
            "transport_max_rel": rows.max_relative,
            "fit_residual": fit_residual(zip(estimates, fits)),
            "loc_residual": loc.max_weighted_residual,
            "support_frac": sup.fraction_in_support,
        }
        acc.update(predict_outputs(cmp))
        return {"accuracy": acc, "family": family, "estimates": estimates, "fits": fits, "compare": cmp}

    @staticmethod
    def sigma_blocks(model, x_bar, sphere, fit) -> dict:
        """Per-bin sigma blocks of one modal fit, zero outside the fitted bins."""
        out = {name: np.zeros((sphere.num_bins, 3, 3), dtype=complex) for name in ("s11", "s12", "s21", "s22")}
        for n, (b, vec) in enumerate(zip(fit.bin_indices, fit.directions)):
            coeffs = {name: fit.coefficients[name][n] for name in verifier.MODAL_NAMES}
            for name, block in verifier.paper_sigma_blocks(model, x_bar, vec[1:], coeffs).items():
                out[name][b] = block
        return out

    @staticmethod
    def check(inp: dict, out: dict, probe) -> list:
        failed: list = []
        estimate_checks(out["estimates"] + probe.estimates, failed)
        if not probe.paths:
            failed.append("rays_ran")
        for path in probe.paths:
            if path.status != "ok":
                failed.append("ray_status")
                break
        if probe.paths and not max(hamiltonian_drift(p) for p in probe.paths) <= HAMILTONIAN_DRIFT_MAX:
            failed.append("hamiltonian_drift")
        acc = out["accuracy"]
        if not 1.0 - acc["support_frac"] <= SUPPORT_MISS_MAX:
            failed.append("support_miss")
        if not acc["predict_err"] <= PREDICT_ERR_MAX:
            failed.append("predict_err")
        return failed


def hamiltonian_drift(path) -> float:
    return float(np.max(np.abs(path.hamiltonian - path.hamiltonian[0])))


# ------------------------------------------------------------ cross-large

class CrossLarge:
    """Auto and cross (non-Hermitian 6x6) estimates of one plane wave at 32^4."""

    name = "cross-large"

    @staticmethod
    def build(seed: int, small: bool) -> dict:
        model = symbols.MaterialModel.constant(2.0, 0.5, 0.3)
        shape = (16,) * 4 if small else (32,) * 4
        grid = grids.GridSpec(extents=(0.25,) * 4, shape=shape)
        return {
            "model": model,
            "grid": grid,
            "sphere": estimator.SphereGrid(12, 8, 16),
            "envelope": grids.hann_window(grid),
            "window": grids.hann_window(grid, axes=(0,)),
            "k": (0.3, -0.5, 0.8),
        }

    @staticmethod
    def run(inp: dict) -> dict:
        model, sphere, w = inp["model"], inp["sphere"], inp["window"]
        family = synthesis.plane_wave_family(model, inp["grid"], inp["k"], "trans+1", inp["envelope"], EPS_LADDER)
        est = estimator.estimate_hmeasure(family, w, sphere=sphere)
        cross_f = estimator.correlation_measure(family, estimator.source_fields(family), w, sphere=sphere)
        cross_rho = estimator.correlation_measure(family, estimator.charge_tilde_fields(family), w, sphere=sphere)
        fit = verifier.fit_constant_decomposition(est)
        loc_p = verifier.localisation_residual(est, "P", model)
        loc_b = verifier.localisation_residual(est, "B")
        # a transverse wave's mass sits on the cones zeta0 = +-v|zeta'|, which
        # only the "scalar_smooth" support set contains
        sup = verifier.support_check(est, "scalar_smooth", model)
        acc = {
            "fit_residual": fit_residual([(est, fit)]),
            "loc_residual": max(loc_p.max_weighted_residual, loc_b.max_weighted_residual),
            "support_frac": sup.fraction_in_support,
        }
        return {"accuracy": acc, "family": family, "estimates": [est], "fits": [fit],
                "cross": [cross_f, cross_rho]}

    @staticmethod
    def check(inp: dict, out: dict, probe) -> list:
        failed: list = []
        estimate_checks(out["estimates"], failed)
        acc = out["accuracy"]
        if not acc["loc_residual"] < LOC_RESIDUAL_MAX:
            failed.append("loc_residual")
        if not 1.0 - acc["support_frac"] <= SUPPORT_MISS_MAX:
            failed.append("support_miss")
        return failed


WORKLOADS = {w.name: w for w in (ConstTrajectory, SmoothRays, CrossLarge)}
