"""Smoke test of the benchmark at reduced sizes.

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run end with
``correct`` true, print every metric ``BENCHMARK.json`` names with its unit,
and that in each span pass the layer self times plus the unattributed time
add up to the pass's wall time.  It checks that two passes with the same
seed give identical accuracy outputs, and that the benchmark exits non-zero
without a result in a directory that holds no ``hml`` sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list) -> None:
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}, (got, declared)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)


def check_span_sums(workload: str) -> None:
    """Self times recomputed from the written spans match the reported layers and add up to wall time."""
    tag = f"{workload}-seed{SEED}-trace1"
    record = json.loads((ROOT / ".perfbench_out" / f"{tag}.json").read_text())
    span_passes = [(n, p) for n, p in enumerate(record["passes"]) if p["mode"] != "plain"]
    assert span_passes
    for n, p in span_passes:
        spans = json.loads((ROOT / ".perfbench_out" / f"{tag}-pass{n}.spans.json").read_text())
        busy = dict.fromkeys(run.LAYERS, 0.0)
        for s in spans:
            busy[s["layer"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                busy[spans[s["parent"]]["layer"]] -= s["end"] - s["start"]
        top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        layers = p["layers"]
        for layer in run.LAYERS:
            assert math.isclose(busy[layer], layers[f"{layer}.busy_s"], rel_tol=1e-6, abs_tol=1e-9), layer
        assert 0.0 <= layers["trace.unattributed_s"] and top <= layers["trace.wall_s"]
        total = sum(busy.values()) + layers["trace.unattributed_s"]
        assert math.isclose(total, layers["trace.wall_s"], rel_tol=1e-6), (total, layers["trace.wall_s"])


def one_pass_accuracy(workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}:{HERE}", **{v: "1" for v in run.THREAD_VARS})
    proc = subprocess.run([sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(SEED),
                           "--mode", "plain", "--small", "--spawned", "0"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["accuracy"]


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        common = ("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--small")
        check_metrics(result_of(bench(*common, "--trace", "0")), spec["end_to_end"])
        check_metrics(result_of(bench(*common, "--trace", "1")), spec["per_layer"])
        check_span_sums(workload)
        assert one_pass_accuracy(workload) == one_pass_accuracy(workload), workload
        print(f"ok {workload}")
    check_bare_directory()
    print("ok bare directory exits non-zero")


if __name__ == "__main__":
    main()
