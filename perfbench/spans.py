"""Span recording around the public functions of each ``hml`` layer.

The benchmark never edits the program.  It replaces each layer's public
functions, in every ``hml`` module that binds them, with wrappers that
record a span: name, layer, start, end, parent span, item counts and (when
``tracemalloc`` runs) the peak of traced memory inside the span.  Spans are
kept in memory; the caller writes them out when the run ends.

A layer's self time is the time its spans cover minus the time their
children cover, so the self times of all layers plus the time outside any
span add up to the wall time of the traced pass.

An untraced pass installs only the probe: two wrappers in ``hml.transport``
that keep the estimates and ray paths ``predict_then_compare`` makes, so
the checks can see them.  The probe takes no times.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import tracemalloc

import numpy as np

from hml import estimator, grids, symbols, synthesis, transport, verifier
from workloads import hamiltonian_drift

MODULES = {m.__name__.split(".")[-1]: m for m in (symbols, grids, synthesis, estimator, verifier, transport)}

# Methods of the grids layer: the window and mesh sampling inside the
# synthesis and estimator calls.
GRID_METHODS = (
    (grids.SeparableWindow, ("sample", "sample_gradient")),
    (grids.GridSpec, ("meshes", "spatial_meshes", "freq_meshes")),
)
TRANSPORT_CLASSMETHODS = (transport.DensityTrajectory, ("from_constant_fits", "from_callables"))

# Calls inside predict_then_compare whose results the checks need.
PROBED = {("transport", "estimate_hmeasure"): "estimates", ("transport", "integrate_rays"): "paths"}

FIT_FUNCTIONS = ("fit_constant_decomposition", "fit_modal_decomposition")
ESTIMATE_FUNCTIONS = ("estimate_hmeasure", "correlation_measure")
SYNTHESIS_GENERATORS = ("plane_wave_family", "evolved_family", "wkb_family")
RESIDUAL_FUNCTIONS = ("constant_transport_residual", "variable_transport_residual")
COMPLEX_BYTES = 16


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "counts", "peak", "children")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.counts = {}
        self.peak = 0
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "layer": self.layer, "parent": self.parent, "start": self.start,
                "end": self.end, "counts": self.counts, "peak_bytes": self.peak}


class Recorder:
    """Holds the spans of one pass (when ``spans``) and the probed results."""

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.memory = False
        self.spans: list = []
        self.stack: list = []
        self.estimates: list = []
        self.paths: list = []
        self._restore: list = []

    # ----------------------------------------------------------- wrapping

    def _wrapper(self, layer, name, fn, probe=None):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.record_spans:
                result = self._call(layer, name, fn, args, kwargs, counter, sig)
            else:
                result = fn(*args, **kwargs)
            if probe == "estimates":
                self.estimates.append(result)
            elif probe == "paths":
                self.paths.extend(result)
            return result

        return wrapper

    def _call(self, layer, name, fn, args, kwargs, counter, sig):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, layer, parent)
        index = len(self.spans)
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(index)
        if self.memory:
            self._fold_peak(parent)
            tracemalloc.reset_peak()
        self.stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            if self.memory:
                self._fold_peak(index)
                if parent is not None:
                    ps = self.spans[parent]
                    ps.peak = max(ps.peak, span.peak)
        if counter is not None:
            span.counts = counter(sig.bind(*args, **kwargs).arguments, result)
        return result

    def _fold_peak(self, index):
        if index is not None:
            _, peak = tracemalloc.get_traced_memory()
            span = self.spans[index]
            span.peak = max(span.peak, peak)

    def _replace(self, target, attr, value):
        self._restore.append((target, attr, getattr(target, attr) if not inspect.isclass(target)
                              else target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every layer (traced) or only the probed calls (untraced)."""
        if not self.record_spans:
            for (mod, name), probe in PROBED.items():
                fn = getattr(MODULES[mod], name)
                self._replace(MODULES[mod], name, self._wrapper(fn.__module__.split(".")[-1], name, fn, probe))
            return
        wrapped = {}
        for mod_name, mod in MODULES.items():
            if mod is symbols:
                continue  # symbol calls are counted where the other layers make them
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.split(".")[-1]
                if owner not in MODULES:
                    continue
                probe = PROBED.get((mod_name, name))
                key = (obj, probe)
                if key not in wrapped:
                    wrapped[key] = self._wrapper(owner, name, obj, probe)
                self._replace(mod, name, wrapped[key])
        for cls, names in GRID_METHODS:
            for name in names:
                self._replace(cls, name, self._wrapper("grids", name, cls.__dict__[name]))
        cls, names = TRANSPORT_CLASSMETHODS
        for name in names:
            fn = cls.__dict__[name].__func__
            self._replace(cls, name, classmethod(self._wrapper("transport", name, fn)))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def start_memory(self) -> None:
        tracemalloc.start()
        self.memory = True

    def stop_memory(self) -> None:
        if self.memory:
            tracemalloc.stop()
            self.memory = False

    # ------------------------------------------------------------ metrics

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def own_layer_time(self, index: int) -> float:
        """Self time plus the self time of same-layer descendants."""
        span = self.spans[index]
        return self.self_time(index) + sum(
            self.own_layer_time(c) for c in span.children if self.spans[c].layer == span.layer
        )

    def layer_metrics(self, wall_s: float, family) -> dict:
        """The per-layer metrics of one traced pass of ``wall_s`` seconds."""
        spans = self.spans
        busy = {layer: 0.0 for layer in MODULES}
        for i, s in enumerate(spans):
            busy[s.layer] += self.self_time(i)

        def named(names):
            return [i for i, s in enumerate(spans) if s.name in names]

        def total(indices, key):
            return sum(spans[i].counts.get(key, 0) for i in indices)

        def peak_mb(layer):
            return max((s.peak for s in spans if s.layer == layer), default=0) / 1e6

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        m = {}
        symbol_calls = sum(1 for s in spans if s.layer == "symbols")
        m["symbols.calls"] = symbol_calls
        m["symbols.busy_s"] = busy["symbols"]
        m["symbols.us_per_call"] = ratio(busy["symbols"], symbol_calls, 1e6)
        m["grids.busy_s"] = busy["grids"]

        gens = named(SYNTHESIS_GENERATORS)
        m["synthesis.busy_s"] = busy["synthesis"]
        m["synthesis.s_per_scale"] = ratio(busy["synthesis"], total(gens, "scales"))
        m["synthesis.peak_mb"] = peak_mb("synthesis")
        m["synthesis.family_mb"] = family_bytes(family) / 1e6

        calls = named(ESTIMATE_FUNCTIONS)
        autos = [i for i in calls if spans[i].name == "estimate_hmeasure"]
        crosses = [i for i in calls if spans[i].name == "correlation_measure"]
        m["estimator.calls"] = len(calls)
        m["estimator.busy_s"] = busy["estimator"]
        m["estimator.s_per_scale"] = ratio(busy["estimator"], total(calls, "scales"))
        m["estimator.cold_call_s"] = spans[calls[0]].duration if calls else 0.0
        warm = [spans[i].duration for i in autos if i != calls[0]]
        m["estimator.warm_call_s"] = statistics.median(warm) if warm else 0.0
        cross = [spans[i].duration for i in crosses]
        m["estimator.cross_call_s"] = statistics.median(cross) if cross else 0.0
        m["estimator.peak_mb"] = peak_mb("estimator")
        m["estimator.spectra_gb"] = total(calls, "spectra_bytes") / 1e9

        fits = named(FIT_FUNCTIONS)
        bins = total(fits, "bins")
        m["verifier.calls"] = sum(1 for s in spans if s.layer == "verifier")
        m["verifier.busy_s"] = busy["verifier"]
        m["verifier.bins_fitted"] = bins
        m["verifier.us_per_bin"] = ratio(sum(self.own_layer_time(i) for i in fits), bins, 1e6)
        m["verifier.excluded_bins"] = total(fits, "excluded")

        rays = named(("integrate_rays",))
        steps = total(rays, "steps")
        rays_busy = sum(self.self_time(i) for i in rays)
        m["transport.busy_s"] = busy["transport"]
        m["transport.rays"] = total(rays, "rays")
        m["transport.ray_steps"] = steps
        m["transport.rays_busy_s"] = rays_busy
        m["transport.us_per_ray_step"] = ratio(rays_busy, steps, 1e6)
        m["transport.rays_terminated"] = total(rays, "terminated")
        m["transport.max_hamiltonian_drift"] = max((spans[i].counts["max_drift"] for i in rays), default=0.0)
        m["transport.residual_s"] = sum(self.own_layer_time(i) for i in named(RESIDUAL_FUNCTIONS))
        m["transport.predict_self_s"] = sum(self.self_time(i) for i in named(("predict_then_compare",)))

        m["trace.wall_s"] = wall_s
        m["trace.unattributed_s"] = wall_s - sum(busy.values())
        return m


def family_bytes(family) -> int:
    """Bytes of the fields and sources a family holds (computed from array sizes)."""
    held = list(family.fields.values()) + list((family.sources or {}).values())
    return sum(np.asarray(a).nbytes for a in held)


# --------------------------------------------------------------- counters

def _estimate_counts(args, result) -> dict:
    family = args.get("family") or args.get("family_u")
    grid = family.grid
    scales = len(family.epsilons)
    same = "g_fields" not in args and (args.get("phi2") is None or args.get("phi2") is args.get("phi1"))
    arrays = 6 if same else 12
    return {"scales": scales, "spectra_bytes": scales * arrays * grid.num_points * COMPLEX_BYTES}


def _ray_counts(args, result) -> dict:
    return {
        "rays": len(result),
        "steps": sum(len(p.times) - 1 for p in result),
        "terminated": sum(p.status != "ok" for p in result),
        "max_drift": max((hamiltonian_drift(p) for p in result), default=0.0),
    }


def _fit_counts(args, result) -> dict:
    return {"bins": int(result.bin_indices.size), "excluded": int(result.excluded_bins.size)}


def _family_counts(args, result) -> dict:
    return {"scales": len(result.epsilons)}


COUNTERS = {
    "estimate_hmeasure": _estimate_counts,
    "correlation_measure": _estimate_counts,
    "integrate_rays": _ray_counts,
    "fit_constant_decomposition": _fit_counts,
    "fit_modal_decomposition": _fit_counts,
    **{name: _family_counts for name in SYNTHESIS_GENERATORS},
}
