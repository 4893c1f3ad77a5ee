"""Benchmark of the hml pipeline: end-to-end figures or a traced per-layer run.

    python3 perfbench/run.py --workload const-trajectory --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh process, so the
program's caches are as cold as in a user's fresh run, and passes run one at
a time.  Passes start until ``--seconds`` would be exceeded (at least
``MIN_PASSES``).  FFT workers and BLAS threads are both set to the number of
CPUs this process may use.

``--trace 0`` reports the end-to-end metrics, as medians over the passes.
``--trace 1`` cycles through an untraced pass, a pass that records spans
and a pass that records spans with tracemalloc on.  It reports the
per-layer metrics as medians: times and counts from the span passes, peak
memory from the tracemalloc passes, and the tracing overhead as span-pass
minus untraced ``run_s``.

The last line of standard output is the result object; the line before it
records the load, versions, commit and every pass.  The run record and the
spans of the traced passes are written to ``.perfbench_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = ("symbols", "grids", "synthesis", "estimator", "verifier", "transport")
WORKLOADS = ("const-trajectory", "smooth-rays", "cross-large")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
TRACE_CYCLE = ("plain", "spans", "memory")
RUN_BUDGET_S = 170.0  # a run ends within 180 s

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
    "transport_max_rel": "1",
    "predict_err": "1",
    "predict_l1": "1",
    "fit_residual": "1",
    "loc_residual": "1",
    "support_frac": "1",
}
ACCURACY = ("transport_max_rel", "predict_err", "predict_l1", "fit_residual", "loc_residual", "support_frac")
# Reported by a workload that does not compute the quantity; listed under
# "not_computed" in the record line.
NOT_COMPUTED = 1.0

LAYER_UNITS = {
    "symbols.calls": "count",
    "symbols.busy_s": "s",
    "symbols.us_per_call": "us",
    "grids.busy_s": "s",
    "synthesis.busy_s": "s",
    "synthesis.s_per_scale": "s",
    "synthesis.peak_mb": "MB",
    "synthesis.family_mb": "MB",
    "estimator.calls": "count",
    "estimator.busy_s": "s",
    "estimator.s_per_scale": "s",
    "estimator.cold_call_s": "s",
    "estimator.warm_call_s": "s",
    "estimator.cross_call_s": "s",
    "estimator.peak_mb": "MB",
    "estimator.spectra_gb": "GB",
    "verifier.calls": "count",
    "verifier.busy_s": "s",
    "verifier.bins_fitted": "count",
    "verifier.us_per_bin": "us",
    "verifier.excluded_bins": "count",
    "transport.busy_s": "s",
    "transport.rays": "count",
    "transport.ray_steps": "count",
    "transport.rays_busy_s": "s",
    "transport.us_per_ray_step": "us",
    "transport.rays_terminated": "count",
    "transport.max_hamiltonian_drift": "1",
    "transport.residual_s": "s",
    "transport.predict_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Per-layer figures computed from array sizes and path lengths, not measured.
COMPUTED = ("synthesis.family_mb", "estimator.spectra_gb", "transport.ray_steps")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_state() -> dict:
    """Git commit when the checkout is a repository, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hml").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_pass(args, mode: str, env: dict, timeout: float, spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode]
    if args.small:
        cmd.append("--small")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(started)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"pass exceeded {timeout:.0f} s", "failed_checks": [],
                "wall_s": time.monotonic() - started}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        res = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", "failed_checks": []}
    else:
        res = json.loads(lines[-1])
    res["mode"] = mode
    res["wall_s"] = time.monotonic() - started
    return res


def median_of(passes: list, key: str, sub: str | None = None) -> float:
    vals = [(p[sub] if sub else p)[key] for p in passes]
    return statistics.median(vals)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for the smoke test")
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    missing = [m for m in LAYERS if not (ROOT / "src" / "hml" / f"{m}.py").is_file()]
    if missing:
        fail(f"no hml sources under {ROOT / 'src' / 'hml'} (missing {', '.join(missing)})")

    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HML_JOBS")}
    env.update({var: str(nproc) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    begin = time.monotonic()
    passes: list = []
    while True:
        elapsed = time.monotonic() - begin
        if passes:
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
                break
            if elapsed + typical > RUN_BUDGET_S:
                break
        mode = TRACE_CYCLE[len(passes) % len(TRACE_CYCLE)] if args.trace else "plain"
        spans_out = out_dir / f"{tag}-pass{len(passes)}.spans.json" if mode != "plain" else None
        timeout = max(RUN_BUDGET_S - elapsed, 1.0)
        passes.append(run_pass(args, mode, env, timeout, spans_out))

    attempted = len(passes)
    failed = sum(1 for p in passes if p["error"] or p["failed_checks"])
    measured = [p for p in passes if not p["error"]]
    by_mode = {mode: [p for p in measured if p["mode"] == mode] for mode in TRACE_CYCLE}
    plain = by_mode["plain"]
    if not all(by_mode[mode] for mode in (TRACE_CYCLE if args.trace else ("plain",))):
        for p in passes:
            print(f"perfbench: pass failed: {p['error']}", file=sys.stderr)
        sys.exit(1)

    not_computed: list = []
    if args.trace:
        metrics = {name: median_of(by_mode["memory" if name.endswith("peak_mb") else "spans"], name, "layers")
                   for name in LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median_of(by_mode["spans"], "run_s") - median_of(plain, "run_s")
        units = LAYER_UNITS
    else:
        metrics = {name: median_of(plain, name) for name in ("run_s", "setup_s", "peak_rss_mb")}
        metrics["ok_frac"] = (attempted - failed) / attempted
        not_computed = [name for name in ACCURACY if name not in plain[0]["accuracy"]]
        for name in ACCURACY:
            metrics[name] = NOT_COMPUTED if name in not_computed else median_of(plain, name, "accuracy")
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "nproc": nproc,
        "threads": {"fft_workers": nproc, **{var: nproc for var in THREAD_VARS}},
        "versions": {"python": sys.version.split()[0], **plain[0]["versions"]},
        **source_state(),
        "computed_not_measured": list(COMPUTED) if args.trace else [],
        "not_computed": not_computed,
        "passes": passes,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "passes"},
                      "passes": [{k: p.get(k) for k in ("mode", "run_s", "setup_s", "peak_rss_mb",
                                                        "failed_checks", "error")} for p in passes]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
