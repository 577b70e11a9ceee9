"""Exec unit: the eight HFI instructions (paper appendix A.1).

Descriptor loads are microcode reads charged as L1 hits; all state
transitions go through :class:`~repro.core.state.HfiState`, whose
mutating methods record themselves in the speculation journal when a
window is open (copy-on-first-write), so wrong-path enters/exits and
region installs roll back without any deepcopy.
"""

from __future__ import annotations

from ..core.encoding import (
    REGION_DESCRIPTOR_BYTES,
    SANDBOX_DESCRIPTOR_BYTES,
    decode_region,
    decode_sandbox,
    descriptor_cycles,
    encode_region,
)
from ..isa.opcodes import Opcode
from .decode import _StopSpeculation, decoder


def _descriptor_read(cpu, ptr: int, nbytes: int) -> bytes:
    """Microcode loads of descriptor words (charged as L1 hits)."""
    cpu.timing.charge(descriptor_cycles(cpu.params, nbytes))
    return cpu.mem.read_bytes(ptr, nbytes, check=False)


@decoder(Opcode.HFI_ENTER)
def _hfi_enter(ins, addr, next_rip):
    descriptor_reg = ins.operands[0]

    def run(cpu):
        cpu.regs.rip = next_rip
        ptr = cpu.regs.regs[descriptor_reg]
        flags, handler = decode_sandbox(
            _descriptor_read(cpu, ptr, SANDBOX_DESCRIPTOR_BYTES))
        if cpu._speculative and flags.is_serialized:
            raise _StopSpeculation()
        cost = cpu.hfi.enter(flags, handler)
        if not cpu._speculative:
            # A serialized enter is a pipeline drain (§3.4); unserialized
            # enters are plain transition cost.
            if flags.is_serialized:
                cpu.timing.serialize_drain(cost)
            else:
                cpu.timing.charge(cost)
            telemetry = cpu.telemetry
            if telemetry.enabled:
                cpu.timing.settle()
                telemetry.begin_span(
                    "hfi.sandbox", cpu.stats.cycles,
                    serialized=flags.is_serialized,
                    hybrid=flags.is_hybrid)
    return run


@decoder(Opcode.HFI_EXIT)
def _hfi_exit(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        serialized = cpu.hfi.flags.is_serialized
        if cpu._speculative and serialized:
            # A serialized exit cannot be speculated past (§3.4).
            raise _StopSpeculation()
        outcome = cpu.hfi.exit()
        if not cpu._speculative:
            # Exit drains like enter when serialized, but the
            # ``serializations`` lifecycle counter only counts enters
            # (count=False keeps it architecturally comparable).
            if serialized:
                cpu.timing.serialize_drain(outcome.cycles, count=False)
            else:
                cpu.timing.charge(outcome.cycles)
            telemetry = cpu.telemetry
            if telemetry.enabled:
                cpu.timing.settle()
                telemetry.end_span(cpu.stats.cycles, name="hfi.sandbox",
                                   reason="exit")
        if outcome.redirect_to is not None:
            cpu.regs.rip = outcome.redirect_to
    return run


@decoder(Opcode.HFI_REENTER)
def _hfi_reenter(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        cost = cpu.hfi.reenter()
        if not cpu._speculative:
            cpu.timing.charge(cost)
            telemetry = cpu.telemetry
            if telemetry.enabled:
                cpu.timing.settle()
                telemetry.begin_span("hfi.sandbox", cpu.stats.cycles,
                                     reenter=True)
    return run


@decoder(Opcode.HFI_SET_REGION)
def _hfi_set_region(ins, addr, next_rip):
    number = ins.operands[0].value
    descriptor_reg = ins.operands[1]

    def run(cpu):
        cpu.regs.rip = next_rip
        ptr = cpu.regs.regs[descriptor_reg]
        region = decode_region(
            _descriptor_read(cpu, ptr, REGION_DESCRIPTOR_BYTES))
        cost = cpu.hfi.set_region(number, region)
        if not cpu._speculative:
            cpu.timing.charge(cost)
            telemetry = cpu.telemetry
            if telemetry.enabled:
                cpu.timing.settle()
                telemetry.event("hfi.set_region", cpu.stats.cycles,
                                region=number)
    return run


@decoder(Opcode.HFI_GET_REGION)
def _hfi_get_region(ins, addr, next_rip):
    number = ins.operands[0].value
    descriptor_reg = ins.operands[1]

    def run(cpu):
        cpu.regs.rip = next_rip
        region, cost = cpu.hfi.get_region(number)
        ptr = cpu.regs.regs[descriptor_reg]
        if region is not None and not cpu._speculative:
            cpu.mem.write_bytes(ptr, encode_region(region), check=False)
        cpu.timing.charge(cost)
    return run


@decoder(Opcode.HFI_CLEAR_REGION)
def _hfi_clear_region(ins, addr, next_rip):
    number = ins.operands[0].value

    def run(cpu):
        cpu.regs.rip = next_rip
        cost = cpu.hfi.clear_region(number)
        cpu.timing.charge(cost)
    return run


@decoder(Opcode.HFI_CLEAR_ALL_REGIONS)
def _hfi_clear_all(ins, addr, next_rip):
    def run(cpu):
        cpu.regs.rip = next_rip
        cost = cpu.hfi.clear_all_regions()
        cpu.timing.charge(cost)
    return run
