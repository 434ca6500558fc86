"""Tests of the benchmark itself: python3 -m pytest perfbench

Tiny runs (small instances, short solver settings) of every workload must
print every metric BENCHMARK.json names, with its unit; the same seed must
give the same inputs and the same traced counts.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def tiny_run(workload, trace, repeat=0):
    """Last stdout line of a tiny run, parsed; repeat only separates cache entries."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = tiny_run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def arrays(plan):
        out = []
        for case in plan.cases:
            for value in vars(case).values():
                if isinstance(value, np.ndarray):
                    out.append(value)
                elif isinstance(value, list):
                    out.extend(v for v in value if isinstance(v, np.ndarray))
        return out

    one, two = (arrays(workloads.make_plan(workload, 11)) for _ in range(2))
    assert len(one) == len(two) and all(np.array_equal(x, y) for x, y in zip(one, two))
    other = arrays(workloads.make_plan(workload, 12))
    assert not all(np.array_equal(x, y) for x, y in zip(one, other))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_traced_counts(workload):
    first, second = tiny_run(workload, 1), tiny_run(workload, 1, repeat=1)
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_missing_target_is_reported_absent(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "KYFAN_TARGETS", tracer_module.KYFAN_TARGETS
                        + [("solvers.gone", "kyfan.solvers", "no_such_phase")])
    sys.path.insert(0, str(ROOT / "src"))
    import kyfan

    t = Tracer()
    t.install()
    try:
        assert t.absent == ["solvers.gone"]
        # every binding site holds the wrapper, not only the defining module
        assert kyfan.norm is kyfan.norms.norm is kyfan.subdiff.norm
        assert hasattr(kyfan.subdiff.norm, "__wrapped__")
        t.armed = True
        kyfan.norm(np.eye(2), kyfan.NormSpec.spectral())
        t.armed = False
    finally:
        t.uninstall()
    assert t.summary()["norms.norm"][0] == 1
    assert not hasattr(kyfan.norm, "__wrapped__")


def test_host_meter_scales_by_the_nearest_bursts():
    from hostspeed import NEAREST, NOMINAL_S, HostMeter

    meter = HostMeter()
    meter.times = list(range(4 * NEAREST))
    meter.bursts = [NOMINAL_S] * (2 * NEAREST) + [2 * NOMINAL_S] * (2 * NEAREST)
    # a host twice as slow halves the factor; the median follows most nearby bursts
    first, second = NEAREST - 0.5, 3 * NEAREST - 0.5
    assert list(meter.factors([first, 2 * NEAREST + 0.5, second, 99.0])) == [1.0, 0.5, 0.5, 0.5]
    meter.sample()
    assert len(meter.bursts) == 4 * NEAREST + 1 and meter.bursts[-1] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
