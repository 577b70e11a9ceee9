"""Golden regression fixture for the serving simulator.

Replays the exact runs recorded by ``scripts/gen_golden_serving.py``
and asserts bit-for-bit equality on every pinned integer field —
request fates, latency percentiles in cycles, steal and peak-in-flight
counters, and the metrics digest.  Any diff here is a semantic change
to the serving layer (event ordering, scheme costs, fault pricing,
shedding policy, work-stealing, percentile math); regenerate the
fixture only for an intentional change, and review the numbers.
"""

import json
import os

import pytest

from repro.chaos import ChaosConfig, ChaosInjector
from repro.runtime import ServingConfig, simulate_serving

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_serving.json")


def load_fixture():
    with open(FIXTURE) as fh:
        return json.load(fh)


GOLDEN = load_fixture()


def replay(scheme: str, label: str):
    arrival, load = next((a, l) for (s_label, a, l)
                         in GOLDEN["scenarios"] if s_label == label)
    injector = None
    if label == "chaos":
        injector = ChaosInjector(
            GOLDEN["seed"],
            ChaosConfig(fault_rate=GOLDEN["chaos_fault_rate"]))
        injector.plan(GOLDEN["requests"])
    return simulate_serving(
        scheme, n_requests=GOLDEN["requests"], seed=GOLDEN["seed"],
        arrival=arrival, offered_load=load,
        config=ServingConfig(**GOLDEN["config"]), injector=injector)


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_golden_run_bit_exact(name):
    scheme, label = name.split("/")
    expected = GOLDEN["runs"][name]
    metrics = replay(scheme, label)
    got = {field: getattr(metrics, field)
           for field in expected if field != "digest"}
    # compare field-by-field so a failure names the drifted counter
    for field, value in expected.items():
        if field == "digest":
            continue
        assert got[field] == value, (
            f"{name}: {field} drifted: {got[field]} != golden {value} "
            f"(regenerate with scripts/gen_golden_serving.py only if "
            f"this change is intentional)")
    assert metrics.digest() == expected["digest"]


def test_golden_covers_every_scheme_and_scenario():
    schemes = {name.split("/")[0] for name in GOLDEN["runs"]}
    labels = {name.split("/")[1] for name in GOLDEN["runs"]}
    assert schemes == {"hfi", "guard-pages", "mpk"}
    assert labels == {label for label, _, _ in GOLDEN["scenarios"]}


def test_golden_runs_are_accounted():
    """The fixture itself must respect the terminal-state partition."""
    for name, entry in GOLDEN["runs"].items():
        assert (entry["succeeded"] + entry["failed"] + entry["shed"]
                == entry["requests"]), name


def test_golden_exercises_interesting_paths():
    """A fixture that never sheds or steals would pin nothing worth
    pinning; guard against regenerating it into triviality."""
    assert any(e["shed"] > 0 for e in GOLDEN["runs"].values())
    assert any(e["steals"] > 0 for e in GOLDEN["runs"].values())


def test_golden_prices_every_fault_outcome():
    """Each scheme's chaos run retries, quarantines and kills, so the
    fixture pins the cost model's price for every fault path."""
    for scheme in ("hfi", "guard-pages", "mpk"):
        entry = GOLDEN["runs"][f"{scheme}/chaos"]
        assert entry["retried"] > 0, scheme
        assert entry["quarantined"] > 0, scheme
        assert entry["killed"] > 0, scheme
