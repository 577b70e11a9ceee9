"""Sandboxing native code without recompilation (paper §6.4):
the NGINX + OpenSSL scenario.

Shows the two costs of HFI's *native* sandbox and their baselines:

1. system-call interposition — HFI's decode-stage redirect vs a
   seccomp-bpf filter (§6.4.1), and
2. protection-domain switching around crypto calls — HFI vs Intel MPK
   vs no protection (§6.4.2, Fig. 5), including MPK's 15-domain wall
   that HFI does not have.

Run:  python examples/native_sandboxing.py
"""

from repro.mpk import MpkDomainManager, MpkError, USABLE_KEYS
from repro.os import AddressSpace, FileSystem, Kernel, SeccompFilter, Sys
from repro.params import MachineParams
from repro.runtime import SandboxManager, TransitionKind
from repro.telemetry import Telemetry
from repro.workloads import FILE_SIZES, NginxModel


def syscall_interposition(params):
    print("=== §6.4.1: trapping syscalls (open/read/close) ===")
    kernel = Kernel(params, FileSystem({"tls.key": b"k" * 512}))
    Kernel.register_name(1, "tls.key")

    def one_pass(proc, extra):
        cost = extra
        res = kernel.syscall(proc, Sys.OPEN, 1)
        cost += res.cycles + extra
        res2 = kernel.syscall(proc, Sys.READ, res.value, 512)
        cost += res2.cycles + extra
        cost += kernel.syscall(proc, Sys.CLOSE, res.value).cycles
        return cost

    hfi_proc = kernel.spawn()
    hfi_cost = one_pass(hfi_proc, params.hfi_syscall_check_cycles
                        + params.hfi_exit_cycles
                        + params.hfi_enter_cycles)
    sec_proc = kernel.spawn()
    sec_proc.seccomp = SeccompFilter.interpose_all(params)
    sec_cost = one_pass(sec_proc, 0)
    print(f"  HFI redirect:  {hfi_cost:6,} cycles per iteration")
    print(f"  seccomp-bpf:   {sec_cost:6,} cycles per iteration "
          f"(+{100 * (sec_cost / hfi_cost - 1):.1f}%)\n")


def domain_switching(params):
    print("=== §6.4.2: NGINX throughput with sandboxed OpenSSL ===")
    model = NginxModel(params)
    print(f"  {'file':>6}  {'unprotected':>12}  {'HFI':>10}  "
          f"{'MPK':>10}   overhead (HFI / MPK)")
    for size in FILE_SIZES:
        rps = {s: model.throughput_rps(size, s)
               for s in ("unprotected", "hfi", "mpk")}
        print(f"  {size >> 10:4d}kb  {rps['unprotected']:10,.0f}/s  "
              f"{rps['hfi']:8,.0f}/s  {rps['mpk']:8,.0f}/s   "
              f"{model.overhead_pct(size, 'hfi'):.1f}% / "
              f"{model.overhead_pct(size, 'mpk'):.1f}%")
    print()


def scaling_wall(params):
    print("=== MPK's 15-domain wall vs HFI's unbounded sandboxes ===")
    space = AddressSpace(params)
    mpk = MpkDomainManager(space)
    allocated = 0
    try:
        while True:
            mpk.pkey_alloc(f"tenant{allocated}")
            allocated += 1
    except MpkError as err:
        print(f"  MPK: {allocated} domains allocated, then: {err}")
    assert allocated == USABLE_KEYS

    manager = SandboxManager(params)
    for i in range(1000):
        manager.create_sandbox(heap_bytes=1 << 20)
    print(f"  HFI: {manager.live_sandboxes} sandboxes live in one "
          "process (on-chip state stays constant; nothing ran out)")


def invoke_with_telemetry(params):
    print("\n=== typed invocations + per-sandbox telemetry ===")
    telemetry = Telemetry()
    manager = SandboxManager(params, telemetry=telemetry)
    ssl = manager.create_sandbox(heap_bytes=1 << 20)
    zlib = manager.create_sandbox(heap_bytes=1 << 18)
    result = manager.invoke(ssl, service_cycles=50_000,
                            transition=TransitionKind.SPRINGBOARD)
    # invoke() returns a typed InvokeResult; the field names match
    # cpu.machine.RunResult so analysis code can consume either.
    print(f"  invocation of sandbox {result.sandbox_id}: "
          f"{result.cycles:,} cycles "
          f"(enter {result.enter_cycles}, exit {result.exit_cycles}, "
          f"springboards {result.software_cycles}, "
          f"service {result.service_cycles:,})")
    manager.invoke(zlib, service_cycles=8_000)
    # The manager is the per-sandbox ledger; the sink samples it.
    stats = telemetry.collect()["sandbox_manager"]
    total = stats.total_cycles
    assert stats.attributed_cycles == total
    for sandbox in stats.sandboxes:
        print(f"  sandbox {sandbox.sandbox_id}: {sandbox.cycles:,} cycles "
              f"({100 * sandbox.cycles / total:.1f}% of the runtime's total)")


if __name__ == "__main__":
    machine = MachineParams()
    syscall_interposition(machine)
    domain_switching(machine)
    scaling_wall(machine)
    invoke_with_telemetry(machine)
