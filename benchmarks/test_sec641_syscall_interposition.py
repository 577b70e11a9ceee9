"""§6.4.1 — trapping syscalls: Seccomp-bpf vs HFI.

Paper: a benchmark that opens, reads, and closes a file 100,000 times
runs 2.1% slower when the syscalls are interposed with Seccomp-bpf
(ERIM's mechanism) than with HFI's decode-stage redirect.
"""

from repro.analysis import emit, format_table
from repro.os import FileSystem, Kernel, SeccompAction, SeccompFilter, Sys
from repro.params import MachineParams

ITERATIONS = 100_000


def run(params):
    kernel = Kernel(params, FileSystem({"bench.dat": b"x" * 4096}))
    Kernel.register_name(7, "bench.dat")

    def one_pass(proc, per_syscall_extra):
        total = 0
        res = kernel.syscall(proc, Sys.OPEN, 7)
        total += res.cycles + per_syscall_extra
        fd = res.value
        res = kernel.syscall(proc, Sys.READ, fd, 4096)
        total += res.cycles + per_syscall_extra
        res = kernel.syscall(proc, Sys.CLOSE, fd)
        total += res.cycles + per_syscall_extra
        return total

    # --- HFI: the syscall is converted into a jump to the exit
    # handler (1 cycle in decode), the handler performs the call and
    # hfi_reenters — all in user space (§4.4).
    hfi_proc = kernel.spawn()
    hfi_extra = (params.hfi_syscall_check_cycles
                 + params.hfi_exit_cycles
                 + params.hfi_enter_cycles)
    hfi_one = one_pass(hfi_proc, hfi_extra)

    # --- Seccomp-bpf: every syscall runs the BPF program; supervised
    # calls divert to the user-space supervisor and are resumed.
    seccomp_proc = kernel.spawn()
    seccomp_proc.seccomp = SeccompFilter.interpose_all(
        params, supervised=(), n_padding_rules=12)
    action, filter_cost = seccomp_proc.seccomp.evaluate(int(Sys.OPEN))
    assert action is SeccompAction.ALLOW
    seccomp_one = one_pass(seccomp_proc, 0)

    hfi_total = hfi_one * ITERATIONS
    seccomp_total = seccomp_one * ITERATIONS
    return hfi_total, seccomp_total, filter_cost


def test_sec641_syscall_interposition():
    params = MachineParams()
    hfi_total, seccomp_total, filter_cost = run(params)
    overhead = 100.0 * (seccomp_total / hfi_total - 1.0)
    table = format_table(
        ["mechanism", "total cycles (100k iterations)", "modelled s"],
        [("HFI decode-stage redirect", hfi_total,
          f"{params.cycles_to_seconds(hfi_total):.4f}"),
         ("Seccomp-bpf filter", seccomp_total,
          f"{params.cycles_to_seconds(seccomp_total):.4f}")],
        title=("§6.4.1 open/read/close x100,000 "
               "(paper: seccomp-bpf 2.1% over HFI)"))
    table += (f"\nper-syscall BPF cost: {filter_cost} cycles; "
              f"seccomp overhead: {overhead:.2f}%")
    emit("sec641_syscall_interposition", table)

    assert 0.5 <= overhead <= 5.0, overhead   # paper: 2.1%