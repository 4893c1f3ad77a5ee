"""The benchmark's workloads run in process on their small inputs, with every check passing.

The benchmark calls ``hml`` by name from ``perfbench/workloads.py``; running
each workload's build -> run -> check here makes a renamed or removed name,
or a broken check, fail tier-1 rather than read as a failed pass later.  The
traced passes also install ``perfbench/spans.py``'s wrappers around every
layer and read its per-layer metrics, as a benchmark run does.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name, traced",
    [pytest.param(name, traced, id=f"{name}-traced" if traced else name) for traced in (False, True)
     for name in sorted(workloads.WORKLOADS)],
)
def test_workload_small_pass_checks(name, traced):
    # a traced pass wraps every public layer function, and some methods by name, so a name it
    # wraps that the program no longer has fails here
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(1, small=True)
    probe = spans.Recorder(spans=traced)
    probe.install()
    try:
        t0 = time.perf_counter()
        out = wl.run(inputs)
        wall_s = time.perf_counter() - t0
    finally:
        probe.uninstall()
    assert wl.check(inputs, out, probe) == []
    if traced:
        assert probe.layer_metrics(wall_s, out["family"])
