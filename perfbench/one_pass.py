"""One pipeline pass of one workload, in a fresh process.

Started by ``run.py``; prints one JSON line with the pass's figures.  The
thread-count variables are set by the parent before this process starts,
so they hold before NumPy is imported.  ``--spawned`` is the parent's
``time.monotonic()`` just before it started this process; set-up time runs
from there until the workload's inputs are built.

    python3 perfbench/one_pass.py --workload smooth-rays --seed 1 --mode plain --spawned 0

``--mode plain`` is an untraced pass, ``spans`` records spans, and
``memory`` records spans with ``tracemalloc`` on, for the layers' peak
memory only: tracemalloc slows every small allocation, so the times of a
``memory`` pass are not used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "memory"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    threads = int(os.environ[THREAD_VARS[0]])

    import numpy
    import scipy

    import hml.estimator
    import spans
    import workloads

    hml.estimator.set_workers(threads)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.small)
    setup_s = time.monotonic() - args.spawned

    rec = spans.Recorder(spans=args.mode != "plain")
    rec.install()
    result = {"setup_s": setup_s, "error": None, "failed_checks": [],
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    try:
        if args.mode == "memory":
            rec.start_memory()
        t0 = time.perf_counter()
        out = wl.run(inputs)
        run_s = time.perf_counter() - t0
    except Exception:  # a failed pass is counted, not fatal to the run
        result["error"] = traceback.format_exc()
    finally:
        rec.stop_memory()
        rec.uninstall()
    if result["error"] is None:
        result["run_s"] = run_s
        result["accuracy"] = out["accuracy"]
        try:
            result["failed_checks"] = wl.check(inputs, out, rec)
        except Exception:
            result["error"] = traceback.format_exc()
        if args.mode != "plain":
            result["layers"] = rec.layer_metrics(run_s, out["family"])
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump([s.to_dict() for s in rec.spans], fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))


if __name__ == "__main__":
    main()
