"""Hypothesis properties over random HfiState operation sequences.

Whatever a (possibly adversarial) runtime does, the state machine must
maintain its architectural invariants: native sandboxes keep their
region registers locked; exits either disable HFI or land in the
shadow bank; snapshots round-trip; the cause MSR always reflects the
last leave.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExplicitDataRegion,
    FaultCause,
    HfiFault,
    HfiState,
    ImplicitDataRegion,
    SandboxFlags,
)
from repro.params import MachineParams

_REGIONS = [
    None,
    ImplicitDataRegion(0x10_0000, 0xFFFF, permission_read=True,
                       permission_write=True),
    ImplicitDataRegion(0x20_0000, 0xFFF, permission_read=True),
]
_EXPLICIT = [
    None,
    ExplicitDataRegion(0x40_0000, 1 << 16, permission_read=True,
                       permission_write=True),
]

_ops = st.lists(st.one_of(
    st.tuples(st.just("enter"), st.booleans(), st.booleans(),
              st.booleans()),
    st.tuples(st.just("exit")),
    st.tuples(st.just("reenter")),
    st.tuples(st.just("syscall")),
    st.tuples(st.just("set_data"), st.sampled_from(range(2, 6)),
              st.sampled_from(range(len(_REGIONS)))),
    st.tuples(st.just("set_explicit"), st.sampled_from(range(6, 10)),
              st.sampled_from(range(len(_EXPLICIT)))),
    st.tuples(st.just("snapshot_roundtrip")),
), min_size=1, max_size=40)


def _apply(state: HfiState, op) -> None:
    kind = op[0]
    try:
        if kind == "enter":
            state.enter(SandboxFlags(is_hybrid=op[1],
                                     is_serialized=op[2],
                                     switch_on_exit=op[3]),
                        exit_handler=0x7000)
        elif kind == "exit":
            state.exit()
        elif kind == "reenter":
            state.reenter()
        elif kind == "syscall":
            state.syscall_attempt(nr=1)
        elif kind == "set_data":
            state.set_region(op[1], _REGIONS[op[2]])
        elif kind == "set_explicit":
            state.set_region(op[1], _EXPLICIT[op[2]])
        elif kind == "snapshot_roundtrip":
            if not state.regs.locked:
                saved = state.snapshot()
                state.restore(saved)
    except HfiFault:
        pass  # architectural traps are legal outcomes


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_native_sandboxes_never_mutate_regions(ops):
    """Whenever HFI is enabled in native mode, region registers are
    frozen — no operation sequence can change them until an exit."""
    state = HfiState(MachineParams())
    frozen = None
    for op in ops:
        before_native = state.enabled and not state.flags.is_hybrid
        if before_native and frozen is None:
            frozen = state.snapshot()
        _apply(state, op)
        still_native = state.enabled and not state.flags.is_hybrid
        if before_native and still_native and frozen is not None:
            for number in range(10):
                assert state.regs.get(number) == frozen.get(number)
        if not still_native:
            frozen = None


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_cause_msr_is_never_stale_after_leave(ops):
    """After any exit/syscall-leave, the MSR holds a leave cause; after
    any successful enter, it is cleared."""
    state = HfiState(MachineParams())
    for op in ops:
        was_enabled = state.enabled
        _apply(state, op)
        if op[0] == "enter" and state.enabled:
            assert state.read_cause_msr() is FaultCause.NONE
        if op[0] == "syscall" and was_enabled \
                and not state.flags.is_hybrid and not state.enabled:
            assert state.read_cause_msr() in (FaultCause.SYSCALL,
                                              FaultCause.INT80)


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_serialization_counter_monotonic(ops):
    state = HfiState(MachineParams())
    last = 0
    for op in ops:
        _apply(state, op)
        assert state.serializations >= last
        last = state.serializations


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_snapshot_restore_is_identity_when_unlocked(ops):
    """restore(snapshot()) leaves observable state unchanged."""
    state = HfiState(MachineParams())
    for op in ops:
        _apply(state, op)
    if state.regs.locked:
        return
    before = state.snapshot()
    state.restore(state.snapshot())
    after = state.snapshot()
    assert before == after


@given(ops=_ops)
@settings(max_examples=200, deadline=None)
def test_disabled_state_checks_nothing(ops):
    """With HFI disabled, the implicit data check is inert no matter
    what configuration was left behind."""
    state = HfiState(MachineParams())
    for op in ops:
        _apply(state, op)
    while state.enabled:
        outcome = state.exit()
        if outcome.cause is FaultCause.NONE:
            break
    state.check_data_access(0xDEAD_0000, 8, is_write=True)