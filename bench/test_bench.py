"""Tests of the benchmark itself, on tiny instances.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
_runs = {}


def tiny_runs(name, tmp_path_factory):
    """An untraced pass and two traced runs with different seeds, cached."""
    if name not in _runs:
        wl = workloads.WORKLOADS[name]
        pool = wl.instances(True, str(tmp_path_factory.mktemp(name)))
        _runs[name] = (
            worker.timed_loop(wl, pool, 0, 1, {}),
            worker.traced_run(wl, pool, 0, {}, startup=False),
            worker.traced_run(wl, pool, 1, {}, startup=False),
        )
    return _runs[name]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_has_no_failed_operation(name, tmp_path_factory):
    for res in tiny_runs(name, tmp_path_factory):
        assert res["attempted"] > 0
        assert res["failed"] == 0, res["failures"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_their_counts(name, tmp_path_factory):
    _, first, second = tiny_runs(name, tmp_path_factory)
    counts = [{m: res["metrics"][m] for m in tracing.COUNT_METRICS} for res in (first, second)]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_print_the_same_digest(name, tmp_path_factory):
    assert len({res["digest"] for res in tiny_runs(name, tmp_path_factory)}) == 1


def _bindings():
    """Identity of every name in the package and of the patched classes."""
    from tourpart.connectivity import VertexFlow
    from tourpart.core import Tournament

    seen = {(mod, attr): id(obj) for mod in tracing._package_modules()
            for attr, obj in vars(mod).items()}
    for cls in (Tournament, VertexFlow):
        seen.update({(cls, attr): id(obj) for attr, obj in vars(cls).items()})
    return seen


def test_wrappers_sit_at_every_binding_and_are_gone_afterwards(tmp_path):
    before = _bindings()
    with tracing.Tracer() as t:
        patched = {(getattr(h, "__name__", ""), attr) for h, attr, _ in t.bindings}
    for module in ("connectivity", "safety", "partition"):
        assert (f"tourpart.{module}", "reachable_mask") in patched
    for module in ("surgery", "hamilton", "pipeline"):
        assert (f"tourpart.{module}", "bfs_shortest_path") in patched
    assert ("tourpart.connectivity", "maximum_flow") in patched
    assert ("Tournament", "subtournament") in patched
    assert ("VertexFlow", "__init__") in patched
    assert _bindings() == before

    wl = workloads.WORKLOADS["surgery"]
    worker.traced_run(wl, wl.instances(True, str(tmp_path)), 0, {}, startup=False)
    assert _bindings() == before


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS


def test_latency_tail_has_ten_samples_beyond_it():
    m = worker.latency_metrics({i: [i / 1000] for i in range(1, 13)})
    assert m["latency_tail_ms"] == pytest.approx(2.0)
    assert m["latency_tail_percentile"] == pytest.approx(100 * 2 / 12)
    assert m["latency_p50_ms"] == pytest.approx(6.5)


def test_latencies_take_each_instance_at_its_median():
    m = worker.latency_metrics({"a": [0.001, 0.009, 0.002], "b": [0.004] * 8})
    assert m["samples"] == 11
    assert m["latency_tail_ms"] == pytest.approx(2.0)
    assert m["latency_p50_ms"] == pytest.approx(4.0)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
