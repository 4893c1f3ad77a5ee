"""The benchmark's workloads run in process on their small inputs, with every check passing.

The benchmark calls ``hml`` by name from ``perfbench/workloads.py``; running
each workload's build -> run -> check here makes a renamed or removed name,
or a broken check, fail tier-1 rather than read as a failed pass later.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_small_pass_checks(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(1, small=True)
    probe = spans.Recorder(spans=False)
    probe.install()
    try:
        out = wl.run(inputs)
    finally:
        probe.uninstall()
    assert wl.check(inputs, out, probe) == []
