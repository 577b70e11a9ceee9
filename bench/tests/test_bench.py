"""Checks on the benchmark itself (not part of the tier-1 suite).

Run from the repo root::

    PYTHONPATH=src python -m pytest bench/tests -q

Each workload is exercised in-process on the first op of its seed-1
plan, untraced and profiled, through the same aggregation ``run.py``
uses.
"""

import copy
import cProfile
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from layers import LAYERS, layer_of  # noqa: E402
from recorder import chrome_trace  # noqa: E402
from worker import round_result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_op_round(workload, profile=False):
    plan = workload.plan(1)[:1]
    profiler = cProfile.Profile() if profile else None
    return round_result(workload, plan, startup=0.0, profiler=profiler)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def summaries(request):
    name = request.param
    rounds = [one_op_round(WORKLOADS[name])]
    traced = one_op_round(WORKLOADS[name], profile=True)
    return run.summarize(rounds), run.summarize(rounds, traced)


def test_workload_names_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)


def test_metric_names_match_benchmark_json(summaries):
    untraced, traced = summaries
    assert set(untraced["metrics"]) == {m["name"]
                                        for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_one_op_passes_its_check(summaries):
    untraced, _ = summaries
    assert untraced["attempted"] == 1
    assert untraced["failed"] == 0, untraced["failures"]
    assert all(v > 0 for k, v in untraced["metrics"].items()), \
        untraced["metrics"]


def test_traced_shares_sum_to_one(summaries):
    _, traced = summaries
    shares = [traced["metrics"][f"{layer}.share"] for layer in LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name", ["kernels-hot", "sandbox-churn"])
def test_op_checked_against_corrupted_reference_fails(name):
    def corrupted(module):
        result = WORKLOADS[name].reference(module)
        result.memories[0][0] ^= 0xFF
        return result

    workload = copy.copy(WORKLOADS[name])
    workload.reference = staticmethod(corrupted)
    summary = run.summarize([one_op_round(workload)])
    assert summary["failed"] == 1
    assert "linear memory" in summary["failures"][0]


def test_every_module_has_a_named_layer():
    package = ROOT / "src" / "repro"
    unmapped = [str(p.relative_to(package)) for p in package.rglob("*.py")
                if layer_of(p.relative_to(package).as_posix()) is None]
    assert unmapped == []


def test_chrome_trace_nests_op_children():
    result = one_op_round(WORKLOADS["kernels-hot"])
    spans = result["spans"]
    trace = chrome_trace(spans, origin=spans[0][2])
    events = trace["traceEvents"]
    assert len(events) == len(spans)
    op = events[0]
    children = [e for e in events if e["args"]["parent"] == op["name"]]
    assert {e["name"] for e in children} >= {"generate", "instantiate",
                                             "run"}
    for child in children:
        assert op["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= op["ts"] + op["dur"] + 1e-3
