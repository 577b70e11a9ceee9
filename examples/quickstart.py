"""Quickstart: build and run an HFI *native* sandbox on the simulator.

Demonstrates the core HFI flow from paper §3.3:

1. the trusted runtime stages its sandbox descriptor in memory,
2. the ``hfi_set_region`` + ``hfi_enter`` sequence the descriptor
   emits starts a native sandbox,
3. in-bounds loads/stores just work (checks ride the data path),
4. a system call is converted into a jump to the exit handler,
5. an out-of-bounds access traps, the cause lands in the MSR, and the
   runtime's SIGSEGV handler reads it.

Run:  python examples/quickstart.py
"""

from repro.core import (FaultCause, ImplicitCodeRegion, ImplicitDataRegion,
                        SandboxDescriptor)
from repro.cpu import Cpu
from repro.isa import Assembler, Imm, Mem, Reg
from repro.os import AddressSpace, FileSystem, Kernel, Prot, Signal
from repro.params import MachineParams

CODE = 0x40_0000
HEAP = 0x10_0000
STACK = 0x0F_0000
DESC = 0x0E_0000
HANDLER = 0x41_0000


def build_machine():
    params = MachineParams()
    kernel = Kernel(params, FileSystem({"data.txt": b"hello sandbox"}))
    proc = kernel.spawn()
    space = proc.address_space
    for base, size in ((HEAP, 1 << 16), (STACK, 1 << 16),
                       (DESC, 1 << 12)):
        space.mmap(size, Prot.rw(), addr=base)
    cpu = Cpu(params, process=proc, kernel=kernel)
    cpu.regs.write(Reg.RSP, STACK + (1 << 16) - 64)
    return cpu, proc, space


def sandbox_descriptor():
    """The runtime describes what the sandbox may touch: a serialized
    native sandbox whose syscalls go to ``HANDLER``."""
    return SandboxDescriptor.native(HANDLER, [
        (0, ImplicitCodeRegion.covering(CODE, 1 << 17)),   # incl. handler
        (2, ImplicitDataRegion.covering(HEAP, 1 << 16, read=True,
                                        write=True)),
        (3, ImplicitDataRegion.covering(STACK, 1 << 16, read=True,
                                        write=True)),
    ])


def build_program(descriptor):
    asm = Assembler(base=CODE)
    # --- trusted runtime: install regions, enter the sandbox ---
    descriptor.emit_install(asm, DESC)
    descriptor.emit_enter(asm, DESC)
    # --- sandboxed (untrusted) code ---
    asm.mov(Reg.RBX, Imm(HEAP))
    asm.mov(Reg.RAX, Imm(1234))
    asm.mov(Mem(base=Reg.RBX, disp=64), Reg.RAX)     # in-bounds store
    asm.mov(Reg.RCX, Mem(base=Reg.RBX, disp=64))     # in-bounds load
    asm.mov(Reg.RAX, Imm(39))                        # getpid
    asm.syscall()                                    # -> exit handler!
    asm.hlt()

    handler = Assembler(base=HANDLER)
    # the runtime's exit handler: perform the call on the sandbox's
    # behalf, then stop (a real runtime would hfi_reenter)
    handler.mov(Reg.RAX, Imm(39))
    handler.syscall()
    handler.hlt()
    return asm.assemble(), handler.assemble()


def main():
    cpu, proc, space = build_machine()
    descriptor = sandbox_descriptor()
    descriptor.stage(space, DESC)
    program, handler = build_program(descriptor)
    cpu.load_program(program)
    cpu.load_program(handler)

    segv_causes = []
    proc.signals.register(
        Signal.SIGSEGV, lambda info: segv_causes.append(info.hfi_cause))

    print("running sandboxed program ...")
    result = cpu.run(program.base)
    print(f"  stopped: {result.reason} after "
          f"{result.stats.instructions} instructions, "
          f"{result.stats.cycles} cycles")
    print(f"  in-bounds load result: {cpu.regs.read(Reg.RCX)}")
    print(f"  syscall interposed by HFI: "
          f"{cpu.stats.interposed_syscalls} time(s); handler ran "
          f"getpid -> {cpu.regs.read(Reg.RAX)}")
    print(f"  exit cause MSR: {cpu.hfi.read_cause_msr().name}")

    # --- now an out-of-bounds access ---
    print("\nout-of-bounds attempt ...")
    oob = Assembler(base=CODE + 0x8000)
    descriptor.emit_install(oob, DESC)
    descriptor.emit_enter(oob, DESC)
    oob.mov(Reg.RBX, Imm(DESC))          # the descriptor page: outside!
    oob.mov(Reg.RAX, Mem(base=Reg.RBX))
    oob.hlt()
    oob_prog = oob.assemble()
    cpu.load_program(oob_prog)
    result = cpu.run(oob_prog.base)
    print(f"  stopped: {result.reason} "
          f"({result.fault.hfi_cause.name} at {result.fault.addr:#x})")
    print(f"  SIGSEGV delivered with HFI cause: "
          f"{FaultCause(segv_causes[-1]).name}")
    print(f"  sandbox disabled: {not cpu.hfi.enabled}")


if __name__ == "__main__":
    main()
