"""Simulated Linux kernel: system calls, memory management, threads.

System-call numbers, argument registers (rdi, rsi, rdx, r10, r8, r9) and
the negative-errno return convention follow the Linux x86-64 ABI, so PX
programs read like real Linux assembly.  Every user-memory write a
syscall performs is recorded in ``last_effects`` — the PinPlay logger
captures these as the side-effect-injection log that constrained replay
feeds back (paper §I-A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.isa.registers import Flags
from repro.machine.memory import (
    PAGE_MASK,
    PROT_RW,
    PageFault,
    page_align_up,
)
from repro.machine.vfs import (
    Channel,
    FileDescriptorTable,
    FileSystem,
    O_CLOEXEC,
    O_NONBLOCK,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    OpenFile,
    VfsError,
)
from repro.observe import hooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine, Thread

MASK64 = (1 << 64) - 1


class NR:
    """Linux x86-64 syscall numbers (subset), plus two PMU pseudo-calls."""

    READ = 0
    WRITE = 1
    OPEN = 2
    CLOSE = 3
    LSEEK = 8
    MMAP = 9
    MPROTECT = 10
    MUNMAP = 11
    BRK = 12
    RT_SIGACTION = 13
    RT_SIGPROCMASK = 14
    RT_SIGRETURN = 15
    PIPE = 22
    SHMGET = 29
    SHMAT = 30
    SHMCTL = 31
    DUP = 32
    DUP2 = 33
    GETPID = 39
    SOCKET = 41
    CONNECT = 42
    ACCEPT = 43
    BIND = 49
    LISTEN = 50
    SOCKETPAIR = 53
    CLONE = 56
    EXIT = 60
    KILL = 62
    SHMDT = 67
    GETTIMEOFDAY = 96
    PRCTL = 157
    ARCH_PRCTL = 158
    TKILL = 200
    TIME = 201
    FUTEX = 202
    EXIT_GROUP = 231
    TGKILL = 234
    PIPE2 = 293
    #: perf_event_open stand-in: arms a per-thread retired-instruction
    #: counter with a threshold and an overflow-handler address.
    PERF_EVENT_OPEN = 298
    #: Pseudo-call to read a PMU counter (rdi selects the event).
    PERF_READ = 334

    NAMES: Dict[int, str] = {}


NR.NAMES = {
    value: name.lower()
    for name, value in vars(NR).items()
    if isinstance(value, int)
}

# errno values (returned as -errno).
EPERM, ENOENT, ESRCH, EINTR, EBADF, EAGAIN, ENOMEM = 1, 2, 3, 4, 9, 11, 12
EACCES, EFAULT, EINVAL, EMFILE, EPIPE, ENOSYS = 13, 14, 22, 24, 32, 38
EADDRINUSE, ENOTCONN, ECONNREFUSED = 98, 107, 111

# arch_prctl codes.
ARCH_SET_GS = 0x1001
ARCH_SET_FS = 0x1002
ARCH_GET_FS = 0x1003
ARCH_GET_GS = 0x1004

# prctl PR_SET_MM and sub-codes (heap layout restoration, paper §II-C2).
PR_SET_MM = 35
PR_SET_MM_START_BRK = 6
PR_SET_MM_BRK = 7

# mmap flags (subset).
MAP_PRIVATE = 0x02
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20

# futex ops.
FUTEX_WAIT = 0
FUTEX_WAKE = 1
FUTEX_PRIVATE_FLAG = 128

# clone flags (only CLONE_VM threads are supported).
CLONE_VM = 0x100

# Signal model: Linux numbering, bit N-1 of a mask = signal N.
SIG_DFL = 0
SIG_IGN = 1
SIGKILL = 9
NSIG = 64
# rt_sigprocmask(2) how values.
SIG_BLOCK, SIG_UNBLOCK, SIG_SETMASK = 0, 1, 2
#: Guest sigaction struct (simplified): handler u64 at +0, mask u64 at +8.
SIGACT_SIZE = 16
#: Signal frame pushed on delivery: 16 GPRs, rip, rflags, saved sigmask.
SIGFRAME_QWORDS = 19
SIGFRAME_SIZE = SIGFRAME_QWORDS * 8
#: x86-64 red zone skipped below rsp before the frame is pushed.
RED_ZONE = 128

# Socket model constants.
AF_UNIX = 1
AF_INET = 2

# SysV shared-memory constants.
IPC_PRIVATE = 0
IPC_RMID = 0
IPC_CREAT = 0o1000
#: shmat flag: replace any existing mapping in the target range.  Used
#: by ELFie startup code to re-adopt a segment that was attached at
#: capture time (its pages ship as ELF sections, so the range is
#: already occupied when the restore shmat runs).
SHM_REMAP = 0o40000

# PMU event codes for PERF_EVENT_OPEN / PERF_READ.
PERF_COUNT_INSTRUCTIONS = 0
PERF_COUNT_CYCLES = 1
PERF_COUNT_LLC_MISSES = 2
PERF_COUNT_BRANCHES = 3

#: Syscalls that mutate kernel/machine state constrained replay must
#: re-execute natively (result-compared) instead of injecting from the
#: record.  Channel-touching READ/WRITE/CLOSE/DUP/DUP2 are flagged
#: per-call via ``Kernel.last_native`` since the same numbers are
#: injected when they hit plain files.
KERNEL_STATE_SYSCALLS = frozenset({
    NR.CLONE, NR.EXIT, NR.EXIT_GROUP, NR.FUTEX, NR.MMAP, NR.MUNMAP,
    NR.MPROTECT, NR.BRK, NR.PERF_EVENT_OPEN,
    NR.RT_SIGACTION, NR.RT_SIGPROCMASK, NR.RT_SIGRETURN,
    NR.KILL, NR.TKILL, NR.TGKILL,
    NR.PIPE, NR.PIPE2, NR.SOCKET, NR.CONNECT, NR.ACCEPT, NR.BIND,
    NR.LISTEN, NR.SOCKETPAIR,
    NR.SHMGET, NR.SHMAT, NR.SHMCTL, NR.SHMDT,
})


@dataclass
class ShmSegment:
    """One SysV shared-memory segment.

    While attached the authoritative bytes live in the address space;
    ``shmdt`` copies them back so a later ``shmat`` (possibly from a
    different thread, possibly at a different address) observes them.
    One attach at a time keeps the copy-in/copy-out model coherent.
    """

    shmid: int
    key: int
    size: int
    data: bytearray = field(default_factory=bytearray)
    attached_at: Optional[int] = None
    attached_len: int = 0

    def to_json(self) -> dict:
        """Record fields, shared by pinballs and snapshots (no id)."""
        return {"key": self.key, "size": self.size,
                "data": bytes(self.data).hex(),
                "attached_at": self.attached_at,
                "attached_len": self.attached_len}

    @classmethod
    def from_json(cls, shmid: int, record: dict) -> "ShmSegment":
        return cls(shmid=shmid, key=record["key"], size=record["size"],
                   data=bytearray(bytes.fromhex(record["data"])),
                   attached_at=record["attached_at"],
                   attached_len=record["attached_len"])


@dataclass
class Listener:
    """A listening AF_INET socket's accept queue.

    ``queue`` holds (read_cid, write_cid) channel pairs of connections
    not yet accepted; ``wait_cid`` is the channel id accept-blocked
    threads wait on (woken by connect).
    """

    port: int
    backlog: int
    queue: List[Tuple[int, int]] = field(default_factory=list)
    wait_cid: int = 0

    def to_json(self) -> dict:
        """Record fields, shared by pinballs and snapshots (no port)."""
        return {"backlog": self.backlog, "wait_cid": self.wait_cid,
                "queue": [[rc, wc] for rc, wc in self.queue]}

    @classmethod
    def from_json(cls, port: int, record: dict) -> "Listener":
        return cls(port=port, backlog=record["backlog"],
                   queue=[(rc, wc) for rc, wc in record["queue"]],
                   wait_cid=record["wait_cid"])


class Kernel:
    """System-call layer bound to one :class:`Machine`."""

    #: Simulated CPU frequency for converting cycles to wall time.
    CYCLES_PER_SEC = 1_000_000_000
    #: Simulated boot wall-clock (seconds since epoch).
    BOOT_EPOCH = 1_600_000_000

    def __init__(self, machine: "Machine", fs: Optional[FileSystem] = None,
                 root: str = "/") -> None:
        self.machine = machine
        self.fs = fs if fs is not None else FileSystem()
        self.fdt = FileDescriptorTable(self.fs, root=root)
        self.pid = 1000
        self.brk_start = 0
        self.brk_end = 0
        #: User-memory writes performed by the most recent syscall,
        #: as (address, bytes) pairs.  Consumed by the PinPlay logger.
        self.last_effects: List[Tuple[int, bytes]] = []
        self.last_native = False
        self._futex_waiters: Dict[int, List[int]] = {}
        #: Installed signal handlers: signum -> (handler, act_mask).
        self.sigactions: Dict[int, Tuple[int, int]] = {}
        #: Process-directed pending signals (kill(2)); thread-directed
        #: pending bits live on each Thread.
        self.process_pending = 0
        #: Pipe/socket byte streams by channel id.
        self.channels: Dict[int, Channel] = {}
        self._next_channel_id = 1
        #: Threads blocked on a channel (read/write/accept), FIFO per id.
        self._channel_waiters: Dict[int, List[int]] = {}
        #: Listening AF_INET sockets by port.
        self._listeners: Dict[int, Listener] = {}
        #: SysV shared-memory segments by shmid.
        self.shm_segments: Dict[int, ShmSegment] = {}
        self._next_shmid = 1
        self.fdt.channel_release_hook = self._on_channel_release
        self._dispatch: Dict[int, Callable[["Thread"], int]] = {
            NR.READ: self._sys_read,
            NR.WRITE: self._sys_write,
            NR.OPEN: self._sys_open,
            NR.CLOSE: self._sys_close,
            NR.LSEEK: self._sys_lseek,
            NR.MMAP: self._sys_mmap,
            NR.MPROTECT: self._sys_mprotect,
            NR.MUNMAP: self._sys_munmap,
            NR.BRK: self._sys_brk,
            NR.RT_SIGACTION: self._sys_rt_sigaction,
            NR.RT_SIGPROCMASK: self._sys_rt_sigprocmask,
            NR.RT_SIGRETURN: self._sys_rt_sigreturn,
            NR.PIPE: self._sys_pipe,
            NR.PIPE2: self._sys_pipe2,
            NR.SHMGET: self._sys_shmget,
            NR.SHMAT: self._sys_shmat,
            NR.SHMCTL: self._sys_shmctl,
            NR.SHMDT: self._sys_shmdt,
            NR.SOCKET: self._sys_socket,
            NR.CONNECT: self._sys_connect,
            NR.ACCEPT: self._sys_accept,
            NR.BIND: self._sys_bind,
            NR.LISTEN: self._sys_listen,
            NR.SOCKETPAIR: self._sys_socketpair,
            NR.KILL: self._sys_kill,
            NR.TKILL: self._sys_tkill,
            NR.TGKILL: self._sys_tgkill,
            NR.DUP: self._sys_dup,
            NR.DUP2: self._sys_dup2,
            NR.GETPID: self._sys_getpid,
            NR.CLONE: self._sys_clone,
            NR.EXIT: self._sys_exit,
            NR.GETTIMEOFDAY: self._sys_gettimeofday,
            NR.PRCTL: self._sys_prctl,
            NR.ARCH_PRCTL: self._sys_arch_prctl,
            NR.TIME: self._sys_time,
            NR.FUTEX: self._sys_futex,
            NR.EXIT_GROUP: self._sys_exit_group,
            NR.PERF_EVENT_OPEN: self._sys_perf_event_open,
            NR.PERF_READ: self._sys_perf_read,
        }

    # -- helpers ----------------------------------------------------------

    def _write_user(self, addr: int, data: bytes) -> None:
        """Write guest memory, recording the effect for the logger."""
        self.machine.mem.write(addr, data)
        self.last_effects.append((addr, data))

    def set_brk(self, start: int, end: Optional[int] = None) -> None:
        """Initialize the heap break (called by the loader)."""
        self.brk_start = start
        self.brk_end = end if end is not None else start

    def wall_time(self) -> Tuple[int, int]:
        """Current simulated (seconds, microseconds)."""
        cycles = self.machine.total_cycles()
        seconds = self.BOOT_EPOCH + cycles // self.CYCLES_PER_SEC
        usec = (cycles % self.CYCLES_PER_SEC) // 1000
        return seconds, usec

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, thread: "Thread") -> int:
        """Execute the syscall selected by the thread's rax.

        Sets rax to the result (or -errno) and returns it.
        """
        number = thread.regs.gpr[0]
        self.last_effects = []
        #: Whether this call must re-execute natively under constrained
        #: replay (captured per-record by the PinPlay logger).
        self.last_native = number in KERNEL_STATE_SYSCALLS
        handler = self._dispatch.get(number)
        obs = hooks.OBS
        if obs.enabled:
            obs.count("kernel.syscalls")
            obs.count("kernel.syscall.%s"
                      % NR.NAMES.get(number, "nr_%d" % number))
        if handler is None:
            result = -ENOSYS
        else:
            try:
                result = handler(thread)
            except VfsError as exc:
                result = -exc.errno
        thread.regs.gpr[0] = result & MASK64
        return result

    # -- file I/O -----------------------------------------------------------

    def _sys_read(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        fd, buf, count = gpr[7], gpr[6], gpr[2]
        open_file = self.fdt.entry(fd)
        channel = open_file.read_ch
        if channel is not None:
            self.last_native = True
            if not channel.data:
                if channel.writers == 0:
                    return 0  # every write end closed: EOF
                if open_file.flags & O_NONBLOCK:
                    return -EAGAIN
                return self._block_on_channel(thread, channel.cid)
            data = bytes(channel.data[:count])
            del channel.data[: len(data)]
            if data:
                self._write_user(buf, data)
            self._wake_channel(channel.cid)  # writers waiting for space
            return len(data)
        if open_file.kind == "socket":
            return -ENOTCONN
        data = self.fdt.read(fd, count)
        if data:
            self._write_user(buf, data)
        return len(data)

    def _sys_write(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        fd, buf, count = gpr[7], gpr[6], gpr[2]
        open_file = self.fdt.entry(fd)
        channel = open_file.write_ch
        if channel is not None:
            self.last_native = True
            if channel.readers == 0:
                return -EPIPE  # no read end left; no SIGPIPE model
            if count == 0:
                return 0
            space = channel.space
            if space <= 0:
                if open_file.flags & O_NONBLOCK:
                    return -EAGAIN
                return self._block_on_channel(thread, channel.cid)
            data = self.machine.mem.read(buf, min(count, space))
            channel.data += data
            self._wake_channel(channel.cid)  # readers waiting for bytes
            return len(data)
        if open_file.kind == "socket":
            return -ENOTCONN
        data = self.machine.mem.read(buf, count) if count else b""
        return self.fdt.write(fd, data)

    def _sys_open(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        path = self.machine.mem.read_cstring(gpr[7]).decode("utf-8", "replace")
        flags = gpr[6]
        return self.fdt.open(path, flags)

    def _sys_close(self, thread: "Thread") -> int:
        fd = thread.regs.gpr[7]
        if self._fd_is_channel(fd):
            self.last_native = True
        self.fdt.close(fd)
        return 0

    def _fd_is_channel(self, fd: int) -> bool:
        open_file = self.fdt._fds.get(fd)
        return open_file is not None and (open_file.read_ch is not None
                                          or open_file.write_ch is not None)

    def _sys_lseek(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        offset = gpr[6]
        if offset & (1 << 63):
            offset -= 1 << 64
        return self.fdt.lseek(gpr[7], offset, gpr[2])

    def _sys_dup(self, thread: "Thread") -> int:
        fd = thread.regs.gpr[7]
        if self._fd_is_channel(fd):
            self.last_native = True
        return self.fdt.dup(fd)

    def _sys_dup2(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        if self._fd_is_channel(gpr[7]) or self._fd_is_channel(gpr[6]):
            self.last_native = True
        return self.fdt.dup2(gpr[7], gpr[6])

    # -- memory --------------------------------------------------------------

    def _sys_mmap(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        addr, length, prot = gpr[7], gpr[6], gpr[2]
        flags, fd, offset = gpr[10], gpr[8], gpr[9]
        if length == 0:
            return -EINVAL
        if not flags & MAP_ANONYMOUS and offset & PAGE_MASK:
            return -EINVAL
        if flags & MAP_FIXED:
            # MAP_FIXED: the address is a requirement, not a hint, and
            # must be page-aligned.  The overlapped range is atomically
            # replaced: explicit unmap-then-map so every stale page —
            # including executable ones feeding the superblock/compiled
            # caches — is retired before the new mapping appears.
            if addr == 0 or addr & PAGE_MASK:
                return -EINVAL
            base = addr
            if self.machine.mem.any_mapped(base, length):
                self.machine.mem.unmap(base, length)
        elif addr and not self.machine.mem.any_mapped(addr, length):
            base = addr
        else:
            base = self.machine.mem.find_free_range(length)
        self.machine.mem.map(base, length, prot if prot else PROT_RW)
        if not flags & MAP_ANONYMOUS:
            fd_signed = fd if fd < (1 << 63) else fd - (1 << 64)
            if fd_signed >= 0:
                # pread-style: never moves the open file description's
                # offset, which dup'ed descriptors share.
                try:
                    data = self.fdt.pread(fd_signed, length, offset)
                except VfsError as exc:
                    return -exc.errno
                if data:
                    self._write_user(base, data)
        return base

    def _sys_mprotect(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        addr, length, prot = gpr[7], gpr[6], gpr[2]
        if addr & PAGE_MASK or length == 0:
            return -EINVAL
        if not self.machine.mem.protect_mapped(addr, length, prot):
            return -ENOMEM
        return 0

    def _sys_munmap(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        if gpr[6] == 0 or gpr[7] & PAGE_MASK:
            return -EINVAL
        self.machine.mem.unmap(gpr[7], gpr[6])
        return 0

    def _sys_brk(self, thread: "Thread") -> int:
        request = thread.regs.gpr[7]
        if request == 0 or request < self.brk_start:
            return self.brk_end
        new_end = request
        if new_end > self.brk_end:
            start = page_align_up(self.brk_end)
            end = page_align_up(new_end)
            if end > start:
                self.machine.mem.map(start, end - start, PROT_RW)
        elif new_end < self.brk_end:
            # A shrinking break releases the pages above it; leaving them
            # mapped would let a "freed" heap read silently succeed.
            start = page_align_up(new_end)
            end = page_align_up(self.brk_end)
            if end > start:
                self.machine.mem.unmap(start, end - start)
        self.brk_end = new_end
        return self.brk_end

    # -- process / thread ------------------------------------------------------

    def _sys_getpid(self, thread: "Thread") -> int:
        return self.pid

    def _sys_clone(self, thread: "Thread") -> int:
        """clone(flags, child_stack, fn).

        Follows the glibc-wrapper convention the paper's startup code
        relies on: the child starts executing at *fn* with rsp set to
        *child_stack*; with fn == 0 the child resumes at the parent's
        next instruction with rax == 0.
        """
        gpr = thread.regs.gpr
        child_stack, fn = gpr[6], gpr[2]
        child = self.machine.create_thread(parent=thread)
        child.sigmask = thread.sigmask  # inherited; pending bits are not
        if child_stack:
            child.regs.gpr[4] = child_stack
        if fn:
            child.regs.rip = fn
        child.regs.gpr[0] = 0
        return child.tid

    def _sys_exit(self, thread: "Thread") -> int:
        code = thread.regs.gpr[7] & 0xFF
        thread.alive = False
        thread.exit_code = code
        self.machine.on_thread_exited(thread)
        return 0

    def _sys_exit_group(self, thread: "Thread") -> int:
        code = thread.regs.gpr[7] & 0xFF
        self.machine.exit_process(code)
        return 0

    # -- time ---------------------------------------------------------------

    def _sys_gettimeofday(self, thread: "Thread") -> int:
        tv_addr = thread.regs.gpr[7]
        if tv_addr:
            seconds, usec = self.wall_time()
            self._write_user(tv_addr, struct.pack("<qq", seconds, usec))
        return 0

    def _sys_time(self, thread: "Thread") -> int:
        seconds, _ = self.wall_time()
        out_addr = thread.regs.gpr[7]
        if out_addr:
            self._write_user(out_addr, struct.pack("<q", seconds))
        return seconds

    # -- prctl family ---------------------------------------------------------

    def _sys_prctl(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        option, arg2, arg3 = gpr[7], gpr[6], gpr[2]
        if option == PR_SET_MM:
            if arg2 == PR_SET_MM_START_BRK:
                self.brk_start = arg3
                if self.brk_end < arg3:
                    self.brk_end = arg3
                return 0
            if arg2 == PR_SET_MM_BRK:
                self.brk_end = arg3
                if self.brk_start == 0 or self.brk_start > arg3:
                    self.brk_start = arg3
                return 0
            return -EINVAL
        return -EINVAL

    def _sys_arch_prctl(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        code, addr = gpr[7], gpr[6]
        if code == ARCH_SET_FS:
            thread.regs.fs_base = addr
            return 0
        if code == ARCH_SET_GS:
            thread.regs.gs_base = addr
            return 0
        if code == ARCH_GET_FS:
            self._write_user(addr, struct.pack("<Q", thread.regs.fs_base))
            return 0
        if code == ARCH_GET_GS:
            self._write_user(addr, struct.pack("<Q", thread.regs.gs_base))
            return 0
        return -EINVAL

    # -- futex ------------------------------------------------------------------

    def _sys_futex(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        uaddr, op, val = gpr[7], gpr[6] & ~FUTEX_PRIVATE_FLAG, gpr[2]
        if op == FUTEX_WAIT:
            current = self.machine.mem.read_u32(uaddr)
            if current != val & 0xFFFFFFFF:
                return -EAGAIN
            thread.blocked = True
            thread.futex_addr = uaddr
            self._futex_waiters.setdefault(uaddr, []).append(thread.tid)
            return 0
        if op == FUTEX_WAKE:
            waiters = self._futex_waiters.get(uaddr, [])
            woken = 0
            while waiters and woken < val:
                tid = waiters.pop(0)
                waiter = self.machine.threads.get(tid)
                if waiter is not None and waiter.blocked:
                    waiter.blocked = False
                    waiter.futex_addr = None
                    woken += 1
            return woken
        return -ENOSYS

    # -- signals -----------------------------------------------------------------

    def _sys_rt_sigaction(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        signum, act, oldact = gpr[7], gpr[6], gpr[2]
        if not 1 <= signum <= NSIG or signum == SIGKILL:
            return -EINVAL
        if oldact:
            handler, mask = self.sigactions.get(signum, (SIG_DFL, 0))
            self._write_user(oldact, struct.pack("<QQ", handler, mask))
        if act:
            blob = self.machine.mem.read(act, SIGACT_SIZE)
            handler, mask = struct.unpack("<QQ", blob)
            if handler == SIG_DFL:
                self.sigactions.pop(signum, None)
            else:
                self.sigactions[signum] = (handler, mask)
        return 0

    def _sys_rt_sigprocmask(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        how, nset, oset = gpr[7], gpr[6], gpr[2]
        if oset:
            self._write_user(oset, struct.pack("<Q", thread.sigmask))
        if nset:
            mask = struct.unpack("<Q", self.machine.mem.read(nset, 8))[0]
            if how == SIG_BLOCK:
                thread.sigmask |= mask
            elif how == SIG_UNBLOCK:
                thread.sigmask &= ~mask
            elif how == SIG_SETMASK:
                thread.sigmask = mask
            else:
                return -EINVAL
            thread.sigmask &= ~(1 << (SIGKILL - 1))  # SIGKILL: unblockable
            if (thread.pending | self.process_pending) & ~thread.sigmask:
                # Unblocking revealed a pending signal: deliver promptly.
                self.machine.cpu.yield_flag = True
        return 0

    def _sys_rt_sigreturn(self, thread: "Thread") -> int:
        """Pop the signal frame the kernel pushed at delivery.

        The handler must return with rsp pointing at the frame (i.e.
        balanced pushes/pops).  The restored rax is returned so the
        dispatch epilogue's rax write-back is a no-op.
        """
        regs = thread.regs
        frame = self.machine.mem.read(regs.gpr[4], SIGFRAME_SIZE)
        values = struct.unpack("<%dQ" % SIGFRAME_QWORDS, frame)
        regs.gpr[:] = list(values[:16])
        regs.rip = values[16]
        regs.flags = Flags.from_word(values[17])
        thread.sigmask = values[18] & ~(1 << (SIGKILL - 1))
        if (thread.pending | self.process_pending) & ~thread.sigmask:
            # Returning restored a mask that admits a pending signal.
            self.machine.cpu.yield_flag = True
        return regs.gpr[0]

    def _post_signal(self, signum: int) -> int:
        if not 1 <= signum <= NSIG:
            return -EINVAL
        self.process_pending |= 1 << (signum - 1)
        # End the slice so delivery (a quantum-boundary event) happens
        # before much more of the raiser's quantum retires.
        self.machine.cpu.yield_flag = True
        return 0

    def _sys_kill(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        pid, signum = gpr[7], gpr[6]
        if pid != self.pid:
            return -ESRCH
        if signum == 0:
            return 0  # existence probe
        return self._post_signal(signum)

    def _kill_thread(self, tid: int, signum: int) -> int:
        target = self.machine.threads.get(tid)
        if target is None or not target.alive:
            return -ESRCH
        if not 1 <= signum <= NSIG:
            return -EINVAL
        target.pending |= 1 << (signum - 1)
        self.machine.cpu.yield_flag = True
        return 0

    def _sys_tkill(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        return self._kill_thread(gpr[7], gpr[6])

    def _sys_tgkill(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        if gpr[7] != self.pid:
            return -ESRCH
        return self._kill_thread(gpr[6], gpr[2])

    def deliver_pending_signals(self) -> None:
        """Deliver at most one pending, unblocked signal per thread.

        Called by the machine's run loop at quantum boundaries (never
        while a cut slice's remainder is parked), which makes delivery a
        deterministic function of kernel state — record and replay hit
        the same boundaries, so no delivery log is needed.
        """
        machine = self.machine
        if not self.process_pending and not any(
                t.pending for t in machine.threads.values()):
            return
        kill_bit = 1 << (SIGKILL - 1)
        for tid in sorted(machine.threads):
            thread = machine.threads[tid]
            if not thread.alive:
                continue
            pending = thread.pending | self.process_pending
            deliverable = pending & ~thread.sigmask
            deliverable |= pending & kill_bit
            if not deliverable:
                continue
            signum = (deliverable & -deliverable).bit_length()
            self._deliver_signal(thread, signum)
            if machine.exit_status is not None:
                return

    def _deliver_signal(self, thread: "Thread", signum: int) -> None:
        machine = self.machine
        bit = 1 << (signum - 1)
        if thread.pending & bit:
            thread.pending &= ~bit
        else:
            self.process_pending &= ~bit
        handler, act_mask = self.sigactions.get(signum, (SIG_DFL, 0))
        if signum == SIGKILL or handler == SIG_DFL:
            machine.deliver_fault(thread, signum,
                                  "unhandled signal %d" % signum)
            return
        if handler == SIG_IGN:
            return
        obs = hooks.OBS
        if obs.enabled:
            obs.count("kernel.signals_delivered")
        regs = thread.regs
        if thread.blocked:
            # Interrupt the blocking syscall.  A futex wait completes
            # with -EINTR (the frame below captures that rax, so the
            # handler returns into the EINTR path).  A channel wait was
            # parked with rip rewound onto the SYSCALL instruction, so
            # the handler returns into a transparent restart
            # (SA_RESTART semantics).
            if thread.futex_addr is not None:
                waiters = self._futex_waiters.get(thread.futex_addr)
                if waiters and thread.tid in waiters:
                    waiters.remove(thread.tid)
                thread.futex_addr = None
                regs.gpr[0] = (-EINTR) & MASK64
            elif thread.wait_channel is not None:
                waiters = self._channel_waiters.get(thread.wait_channel)
                if waiters and thread.tid in waiters:
                    waiters.remove(thread.tid)
                thread.wait_channel = None
            thread.blocked = False
        frame = struct.pack(
            "<%dQ" % SIGFRAME_QWORDS,
            *[value & MASK64 for value in regs.gpr],
            regs.rip & MASK64, regs.flags.to_word(), thread.sigmask,
        )
        frame_addr = (regs.gpr[4] - RED_ZONE - SIGFRAME_SIZE) & ~0xF
        try:
            machine.mem.write(frame_addr, frame)
        except PageFault as exc:
            machine.deliver_fault(thread, 11,
                                  "signal frame push faulted: %s" % exc,
                                  fault_address=exc.address)
            return
        thread.sigmask |= act_mask | bit
        regs.gpr[4] = frame_addr
        regs.gpr[7] = signum
        regs.rip = handler & MASK64
        thread.new_block = True

    # -- pipes / sockets ---------------------------------------------------------

    def _new_channel(self) -> Channel:
        cid = self._next_channel_id
        self._next_channel_id += 1
        channel = Channel(cid=cid)
        self.channels[cid] = channel
        return channel

    def _wake_channel(self, cid: int) -> None:
        """Unblock every thread waiting on channel *cid*.

        Woken threads re-execute their rewound syscall when scheduled
        and re-block if the condition still does not hold.
        """
        for tid in self._channel_waiters.pop(cid, []):
            waiter = self.machine.threads.get(tid)
            if (waiter is not None and waiter.blocked
                    and waiter.wait_channel == cid):
                waiter.blocked = False
                waiter.wait_channel = None

    def _block_on_channel(self, thread: "Thread", cid: int) -> int:
        """Park *thread* until channel *cid* changes, restart-style.

        rip is rewound onto the SYSCALL instruction and rax still holds
        the syscall number, so waking the thread re-executes the call
        with its original arguments.
        """
        thread.blocked = True
        thread.wait_channel = cid
        self._channel_waiters.setdefault(cid, []).append(thread.tid)
        thread.regs.rip = (thread.regs.rip - 1) & MASK64
        return thread.regs.gpr[0]

    def _on_channel_release(self, open_file: OpenFile) -> None:
        """A descriptor referencing channel endpoints was dropped: wake
        blocked peers so they can observe EOF or EPIPE."""
        for channel in (open_file.read_ch, open_file.write_ch):
            if channel is not None:
                self._wake_channel(channel.cid)

    def _pipe_common(self, thread: "Thread", flags: int) -> int:
        if flags & ~(O_NONBLOCK | O_CLOEXEC):
            return -EINVAL
        fds_ptr = thread.regs.gpr[7]
        status = O_NONBLOCK if flags & O_NONBLOCK else 0
        channel = self._new_channel()
        name = "pipe:[%d]" % channel.cid
        read_fd = self.fdt.install(OpenFile(
            path=name, flags=O_RDONLY | status, kind="pipe",
            read_ch=channel))
        try:
            write_fd = self.fdt.install(OpenFile(
                path=name, flags=O_WRONLY | status, kind="pipe",
                write_ch=channel))
        except VfsError:
            self.fdt.close(read_fd)
            raise
        self._write_user(fds_ptr, struct.pack("<ii", read_fd, write_fd))
        return 0

    def _sys_pipe(self, thread: "Thread") -> int:
        return self._pipe_common(thread, 0)

    def _sys_pipe2(self, thread: "Thread") -> int:
        return self._pipe_common(thread, thread.regs.gpr[6])

    def _sys_socketpair(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        domain, sv_ptr = gpr[7], gpr[10]
        if domain not in (AF_UNIX, AF_INET):
            return -EINVAL
        first = self._new_channel()
        second = self._new_channel()
        name = "socket:[%d:%d]" % (first.cid, second.cid)
        fd0 = self.fdt.install(OpenFile(
            path=name, flags=O_RDWR, kind="socket",
            read_ch=first, write_ch=second))
        try:
            fd1 = self.fdt.install(OpenFile(
                path=name, flags=O_RDWR, kind="socket",
                read_ch=second, write_ch=first))
        except VfsError:
            self.fdt.close(fd0)
            raise
        self._write_user(sv_ptr, struct.pack("<ii", fd0, fd1))
        return 0

    def _sys_socket(self, thread: "Thread") -> int:
        domain = thread.regs.gpr[7]
        if domain not in (AF_UNIX, AF_INET):
            return -EINVAL
        return self.fdt.install(OpenFile(
            path="socket:[unconnected]", flags=O_RDWR, kind="socket"))

    def _read_port(self, addr_ptr: int) -> int:
        """Port from a guest sockaddr_in (sin_port, network byte order)."""
        return int.from_bytes(self.machine.mem.read(addr_ptr + 2, 2), "big")

    def _sys_bind(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        fd, addr_ptr = gpr[7], gpr[6]
        open_file = self.fdt.entry(fd)
        if open_file.kind != "socket" or open_file.read_ch is not None:
            return -EINVAL
        port = self._read_port(addr_ptr)
        if port in self._listeners:
            return -EADDRINUSE
        open_file.bound_port = port
        return 0

    def _sys_listen(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        fd, backlog = gpr[7], gpr[6]
        open_file = self.fdt.entry(fd)
        if open_file.kind != "socket" or open_file.bound_port is None:
            return -EINVAL
        port = open_file.bound_port
        if port not in self._listeners:
            self._listeners[port] = Listener(
                port=port, backlog=max(1, backlog),
                wait_cid=self._new_channel().cid)
        return 0

    def _sys_connect(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        fd, addr_ptr = gpr[7], gpr[6]
        open_file = self.fdt.entry(fd)
        if open_file.kind != "socket" or open_file.read_ch is not None:
            return -EINVAL
        port = self._read_port(addr_ptr)
        listener = self._listeners.get(port)
        if listener is None or len(listener.queue) >= listener.backlog:
            return -ECONNREFUSED
        to_server = self._new_channel()
        to_client = self._new_channel()
        # Wire the client end in place; every descriptor sharing this
        # open-file description becomes connected at once.
        refs = sum(1 for of in self.fdt._fds.values() if of is open_file)
        open_file.read_ch = to_client
        open_file.write_ch = to_server
        open_file.path = "socket:[%d:%d]" % (to_client.cid, to_server.cid)
        to_client.readers += refs
        to_server.writers += refs
        # The queued server end holds one reference on each channel until
        # accept() materializes it as a descriptor.
        to_server.readers += 1
        to_client.writers += 1
        listener.queue.append((to_server.cid, to_client.cid))
        self._wake_channel(listener.wait_cid)
        return 0

    def _sys_accept(self, thread: "Thread") -> int:
        fd = thread.regs.gpr[7]
        open_file = self.fdt.entry(fd)
        if open_file.kind != "socket" or open_file.bound_port is None:
            return -EINVAL
        listener = self._listeners.get(open_file.bound_port)
        if listener is None:
            return -EINVAL
        if not listener.queue:
            if open_file.flags & O_NONBLOCK:
                return -EAGAIN
            return self._block_on_channel(thread, listener.wait_cid)
        read_cid, write_cid = listener.queue.pop(0)
        read_ch = self.channels[read_cid]
        write_ch = self.channels[write_cid]
        new_fd = self.fdt.install(OpenFile(
            path="socket:[%d:%d]" % (read_cid, write_cid), flags=O_RDWR,
            kind="socket", read_ch=read_ch, write_ch=write_ch))
        # Drop the queue's references now that the descriptor holds its own.
        read_ch.readers -= 1
        write_ch.writers -= 1
        return new_fd

    # -- SysV shared memory --------------------------------------------------------

    def _sys_shmget(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        key, size, shmflg = gpr[7], gpr[6], gpr[2]
        if size == 0:
            return -EINVAL
        if key != IPC_PRIVATE:
            for segment in self.shm_segments.values():
                if segment.key == key:
                    if size > segment.size:
                        return -EINVAL
                    return segment.shmid
            if not shmflg & IPC_CREAT:
                return -ENOENT
        shmid = self._next_shmid
        self._next_shmid += 1
        self.shm_segments[shmid] = ShmSegment(
            shmid=shmid, key=key, size=size,
            data=bytearray(size))
        return shmid

    def _sys_shmat(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        shmid, shmaddr, shmflg = gpr[7], gpr[6], gpr[2]
        segment = self.shm_segments.get(shmid)
        if segment is None:
            return -EINVAL
        if segment.attached_at is not None:
            # One attach at a time: the copy-in/copy-out model has no
            # coherent answer for two live attachments of one segment.
            return -EINVAL
        length = page_align_up(segment.size)
        if shmaddr:
            if shmaddr & PAGE_MASK:
                return -EINVAL
            base = shmaddr
            if self.machine.mem.any_mapped(base, length):
                if not shmflg & SHM_REMAP:
                    return -EINVAL
                self.machine.mem.unmap(base, length)
        else:
            base = self.machine.mem.find_free_range(length)
        self.machine.mem.map(base, length, PROT_RW)
        if segment.size:
            self._write_user(base, bytes(segment.data))
        segment.attached_at = base
        segment.attached_len = length
        return base

    def _sys_shmdt(self, thread: "Thread") -> int:
        shmaddr = thread.regs.gpr[7]
        for segment in self.shm_segments.values():
            if segment.attached_at == shmaddr:
                segment.data[:] = self.machine.mem.read(shmaddr,
                                                        segment.size)
                self.machine.mem.unmap(shmaddr, segment.attached_len)
                segment.attached_at = None
                segment.attached_len = 0
                return 0
        return -EINVAL

    def _sys_shmctl(self, thread: "Thread") -> int:
        gpr = thread.regs.gpr
        shmid, cmd = gpr[7], gpr[6]
        segment = self.shm_segments.get(shmid)
        if segment is None:
            return -EINVAL
        if cmd == IPC_RMID:
            if segment.attached_at is not None:
                return -EINVAL
            del self.shm_segments[shmid]
            return 0
        return -EINVAL

    # -- PMU pseudo-calls ----------------------------------------------------------

    def _sys_perf_event_open(self, thread: "Thread") -> int:
        """Arm the calling thread's retired-instruction counter.

        rdi: event (must be PERF_COUNT_INSTRUCTIONS), rsi: threshold,
        rdx: overflow-handler address (0 = terminate thread at threshold).
        """
        gpr = thread.regs.gpr
        event, threshold, handler = gpr[7], gpr[6], gpr[2]
        if event != PERF_COUNT_INSTRUCTIONS:
            return -EINVAL
        if threshold == 0:
            return -EINVAL
        # +1: the arming syscall instruction itself retires after this
        # handler returns; the threshold counts instructions *after* it.
        thread.pmu_trap_at = thread.icount + 1 + threshold
        thread.pmu_handler = handler if handler else None
        return 0

    def _sys_perf_read(self, thread: "Thread") -> int:
        event = thread.regs.gpr[7]
        if event == PERF_COUNT_INSTRUCTIONS:
            return thread.icount
        if event == PERF_COUNT_CYCLES:
            return thread.cycles
        if event == PERF_COUNT_LLC_MISSES:
            return thread.llc_misses
        if event == PERF_COUNT_BRANCHES:
            return thread.branches
        return -EINVAL
