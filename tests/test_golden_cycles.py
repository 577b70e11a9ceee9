"""Golden cycle-count regression: the simulator's timing is locked.

Every workload in :mod:`repro.workloads.golden` must reproduce the
exact counters frozen in the fixture for its timing model
(``golden_cycles.json`` for in-order, ``golden_cycles_ooo.json`` for
the out-of-order backend).  A diff here means a change altered
simulated *timing* — if that was intended, regenerate with
``PYTHONPATH=src python scripts/gen_golden_cycles.py [--timing ooo]``
and justify it in the commit message; if not, the change has a
fidelity bug.
"""

import json
import pathlib

import pytest

from repro.cpu import default_timing
from repro.workloads.golden import GOLDEN_WORKLOADS, run_all

GOLDEN_FILES = {
    "inorder": pathlib.Path(__file__).parent / "golden_cycles.json",
    "ooo": pathlib.Path(__file__).parent / "golden_cycles_ooo.json",
}

@pytest.fixture(scope="module", params=sorted(GOLDEN_FILES),
                ids=lambda timing: f"staged-{timing}")
def locked(request):
    # One pass over the whole registry, parametrized over the timing
    # models (the ids name the one execution engine too): no refactor
    # may move a single counter relative to that model's frozen
    # fixture.
    timing = request.param
    fresh = run_all(timing=timing)
    golden = json.loads(GOLDEN_FILES[timing].read_text())
    return fresh, golden


@pytest.mark.parametrize("timing", sorted(GOLDEN_FILES))
def test_fixture_covers_registry(timing):
    golden = json.loads(GOLDEN_FILES[timing].read_text())
    assert set(golden) == set(GOLDEN_WORKLOADS)


@pytest.mark.parametrize("name", list(GOLDEN_WORKLOADS))
def test_golden_workload(name, locked):
    fresh, golden = locked
    expected = golden[name]
    actual = fresh[name]
    assert actual == expected, (
        f"{name}: timing drift\n"
        + "\n".join(f"  {k}: golden={expected.get(k)} now={actual.get(k)}"
                    for k in sorted(set(expected) | set(actual))
                    if expected.get(k) != actual.get(k)))


def test_key_counters_locked(locked):
    """The acceptance triple — cycles, hfi_faults, speculative
    instructions — is bit-equal on every locked workload."""
    fresh, golden = locked
    for name, expected in golden.items():
        actual = fresh[name]
        for key in ("cycles", "hfi_faults", "speculative_instructions"):
            if key in expected:
                assert actual[key] == expected[key], (name, key)


def test_timing_models_agree_architecturally():
    """The two fixtures disagree on ``cycles`` and nothing else: every
    architectural counter (instructions, loads, stores, faults,
    results) — and even the predictor-driven ones (branches,
    mispredicts, speculative_instructions), which consume the
    functional commit stream — is bit-equal between them."""
    inorder = json.loads(GOLDEN_FILES["inorder"].read_text())
    ooo = json.loads(GOLDEN_FILES["ooo"].read_text())
    for name, expected in inorder.items():
        actual = ooo[name]
        for key in expected:
            if key == "cycles":
                continue
            assert actual[key] == expected[key], (name, key)


def test_any_order_reproduces_fixture():
    """Each workload builds its own program and machine, so evaluating
    the registry backwards in one process reproduces the fixture."""
    golden = json.loads(GOLDEN_FILES["inorder"].read_text())
    with default_timing("inorder"):
        for name in reversed(list(GOLDEN_WORKLOADS)):
            assert GOLDEN_WORKLOADS[name]() == golden[name], name
