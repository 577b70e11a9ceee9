"""The kernel: syscall dispatch with seccomp filtering and cost model.

Every syscall pays the ring-transition cost
(:attr:`MachineParams.syscall_cycles`) plus the operation's own cost.
If the calling process has a seccomp filter installed, the filter runs
first and its evaluation cost is added — this is the per-syscall tax
the §6.4.1 experiment measures against HFI's decode-stage redirect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..params import DEFAULT_PARAMS, MachineParams
from ..telemetry.sink import Telemetry, coalesce
from ..telemetry.stats import KernelStats
from .address_space import Prot
from .filesystem import FileSystem
from .process import Process
from .seccomp import SeccompAction
from .signals import SigInfo, Signal


class Sys(enum.IntEnum):
    """Linux x86-64 syscall numbers (subset)."""

    READ = 0
    WRITE = 1
    OPEN = 2
    CLOSE = 3
    MMAP = 9
    MPROTECT = 10
    MUNMAP = 11
    MADVISE = 28
    GETPID = 39
    EXIT = 60


EBADF = -9
ENOENT = -2
ENOSYS = -38
EPERM = -1


@dataclass
class SyscallResult:
    """Return value and the total modelled cycle cost of a syscall."""

    value: int
    cycles: int
    action: SeccompAction = SeccompAction.ALLOW


class Kernel:
    """Dispatches syscalls for processes; owns the filesystem."""

    def __init__(self, params: MachineParams = DEFAULT_PARAMS,
                 filesystem: Optional[FileSystem] = None,
                 telemetry: Optional[Telemetry] = None):
        self.params = params
        self.fs = filesystem if filesystem is not None else FileSystem()
        self._next_pid = 1
        self.processes: Dict[int, Process] = {}
        self.syscall_count = 0
        self.seccomp_diverted = 0
        self.segv_delivered = 0
        self.syscall_cycles = 0
        coalesce(telemetry).register_component("kernel", self.stats)

    def stats(self) -> KernelStats:
        """Uniform component-stats snapshot (``repro.telemetry``)."""
        return KernelStats(
            component="kernel", syscalls=self.syscall_count,
            seccomp_diverted=self.seccomp_diverted,
            segv_delivered=self.segv_delivered,
            syscall_cycles=self.syscall_cycles)

    def spawn(self, address_space=None, va_bits: Optional[int] = None) -> Process:
        """Create a process with a fresh address space."""
        from .address_space import AddressSpace
        if address_space is None:
            address_space = AddressSpace(self.params, va_bits=va_bits)
        proc = Process(pid=self._next_pid, address_space=address_space)
        self._next_pid += 1
        self.processes[proc.pid] = proc
        return proc

    # ------------------------------------------------------------------
    def syscall(self, proc: Process, nr: int, *args: int) -> SyscallResult:
        """Run syscall ``nr`` for ``proc``; returns value + cycle cost."""
        self.syscall_count += 1
        cost = self.params.syscall_cycles
        if proc.seccomp is not None:
            action, filter_cost = proc.seccomp.evaluate(nr)
            cost += filter_cost
            if action is SeccompAction.ERRNO:
                self.syscall_cycles += cost
                return SyscallResult(EPERM, cost, action)
            if action in (SeccompAction.TRAP, SeccompAction.KILL,
                          SeccompAction.NOTIFY):
                # Control is diverted to the supervisor; the caller
                # decides what happens next (§6.4.1's interposition).
                self.seccomp_diverted += 1
                self.syscall_cycles += cost
                return SyscallResult(0, cost, action)
        value, op_cost = self._dispatch(proc, nr, args)
        self.syscall_cycles += cost + op_cost
        return SyscallResult(value, cost + op_cost)

    def _dispatch(self, proc: Process, nr: int,
                  args: Tuple[int, ...]) -> Tuple[int, int]:
        if nr == Sys.OPEN:
            return self._sys_open(proc, args)
        if nr == Sys.READ:
            return self._sys_read(proc, args)
        if nr == Sys.WRITE:
            return self._sys_write(proc, args)
        if nr == Sys.CLOSE:
            return self._sys_close(proc, args)
        if nr == Sys.MMAP:
            length, prot = args[0], Prot(args[1])
            addr = proc.address_space.mmap(length, prot)
            return addr, self.params.mmap_fixed_cycles
        if nr == Sys.MPROTECT:
            addr, length, prot = args[0], args[1], Prot(args[2])
            return 0, proc.address_space.mprotect(addr, length, prot)
        if nr == Sys.MUNMAP:
            return 0, proc.address_space.munmap(args[0], args[1])
        if nr == Sys.MADVISE:
            return 0, proc.address_space.madvise_dontneed(args[0], args[1])
        if nr == Sys.GETPID:
            return proc.pid, 10
        if nr == Sys.EXIT:
            return 0, 10
        return ENOSYS, 10

    # ------------------------------------------------------------------
    # file syscalls; the path name for OPEN is args[0] used as a key
    # into a name table so programs can pass small integers.
    # ------------------------------------------------------------------
    def _sys_open(self, proc: Process, args) -> Tuple[int, int]:
        name = self._name_for(args[0])
        if not self.fs.exists(name):
            return ENOENT, 120
        fd = proc.allocate_fd(self.fs.open(name))
        return fd, 350  # dentry walk + fd table update

    def _sys_read(self, proc: Process, args) -> Tuple[int, int]:
        fd, count = args[0], args[1] if len(args) > 1 else 4096
        handle = proc.fd_table.get(fd)
        if handle is None:
            return EBADF, 80
        data = self.fs.read(handle, count)
        return len(data), 250 + len(data) // 64

    def _sys_write(self, proc: Process, args) -> Tuple[int, int]:
        fd, count = args[0], args[1] if len(args) > 1 else 0
        handle = proc.fd_table.get(fd)
        if handle is None:
            return EBADF, 80
        written = self.fs.write(handle, b"\x00" * count)
        return written, 250 + written // 64

    def _sys_close(self, proc: Process, args) -> Tuple[int, int]:
        fd = args[0]
        if fd not in proc.fd_table:
            return EBADF, 60
        del proc.fd_table[fd]
        return 0, 120

    _names: Dict[int, str] = {}

    @classmethod
    def register_name(cls, token: int, name: str) -> None:
        """Associate an integer token with a file name for OPEN."""
        cls._names[token] = name

    def _name_for(self, token: int) -> str:
        return self._names.get(token, f"file{token}")

    # ------------------------------------------------------------------
    def deliver_segv(self, proc: Process, fault_addr: int,
                     hfi_cause: int = 0, description: str = "") -> int:
        """Deliver SIGSEGV to ``proc``; returns the delivery cycle cost."""
        info = SigInfo(Signal.SIGSEGV, fault_addr=fault_addr,
                       hfi_cause=hfi_cause, description=description)
        proc.signals.deliver(info)
        self.segv_delivered += 1
        return self.params.signal_delivery_cycles
