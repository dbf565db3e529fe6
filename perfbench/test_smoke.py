"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a run emits every metric named in BENCHMARK.json with its unit,
and that the traced run's kernel and call counts repeat exactly.
"""

import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# pairs per input: enough for the online replay to leave the no-fail window
TINY = {"batch_3d": 200, "online_3d": 60, "batch_planar": 60}


def _measure(name, trace):
    workloads, _ = run.prepare()
    result, _ = run.measure(name, seed=3, seconds=0, trace=trace, import_s=0.0,
                            sizes=workloads.Sizes(inputs=1, pairs=TINY[name]))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result):
    return {key: m["unit"] for key, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    workloads, _ = run.prepare()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted(name):
    result = _measure(name, trace=0)
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat(name):
    first, second = _measure(name, trace=1), _measure(name, trace=1)
    assert _units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    counts = [key for key, unit in _units(first).items() if unit == "count"]
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_traced_run_tolerates_a_missing_layer(monkeypatch):
    _, tracer = run.prepare()
    monkeypatch.setitem(tracer.LAYERS, "global_solver.recover_primal",
                        ("dqcalib.global_solver", "no_such_function"))
    metrics = _measure("batch_3d", trace=1)["metrics"]
    assert "global_solver.recover_primal.ms_per_call" not in metrics
    assert "global_solver.solve_dual.ms_per_call" in metrics
