"""Kernel OS-realism semantics: mmap/fd fixes, signals, pipes, sockets, shm.

These pin the tentpole bugfixes (DESIGN §11): the mmap file-backed path
must behave like pread(2) (dup'ed descriptors share one offset and mmap
must not move it), MAP_FIXED atomically replaces the overlapped range,
mprotect/munmap/brk follow Linux error and unmap semantics, and the new
kernel objects — POSIX signals, pipes, loopback sockets, SysV shared
memory — expose the exact blocking/errno behaviour the fuzzer's lockstep
verifier relies on.
"""

import struct

from repro.machine import Machine
from repro.machine.kernel import (
    EADDRINUSE,
    EAGAIN,
    ECONNREFUSED,
    EINTR,
    EINVAL,
    ENOMEM,
    ENOTCONN,
    EPIPE,
    ESRCH,
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_PRIVATE,
    NR,
    RED_ZONE,
    SHM_REMAP,
    SIG_BLOCK,
    SIG_IGN,
    SIG_SETMASK,
    SIG_UNBLOCK,
    SIGFRAME_QWORDS,
    SIGFRAME_SIZE,
    SIGKILL,
)
from repro.machine.memory import PAGE_SIZE, PROT_RW
from repro.machine.vfs import O_NONBLOCK
from repro.workloads import build_executable, run_program

MASK64 = (1 << 64) - 1
MAP_ANON_PRIVATE = MAP_PRIVATE | MAP_ANONYMOUS
SIGUSR1 = 10
SIGUSR2 = 12


def _machine_with_thread():
    machine = Machine(seed=0)
    machine.mem.map(0x1000, 0x10000, PROT_RW)
    thread = machine.create_thread()
    thread.regs.gpr[4] = 0xF000  # usable stack for signal frames
    return machine, thread


def _call(machine, thread, number, rdi=0, rsi=0, rdx=0, r10=0, r8=0, r9=0):
    thread.regs.gpr[0] = number
    thread.regs.gpr[7] = rdi
    thread.regs.gpr[6] = rsi
    thread.regs.gpr[2] = rdx
    thread.regs.gpr[10] = r10
    thread.regs.gpr[8] = r8
    thread.regs.gpr[9] = r9
    return machine.kernel.dispatch(thread)


def _open(machine, thread, path, flags=0):
    machine.mem.write(0x1000, path.encode() + b"\x00")
    return _call(machine, thread, NR.OPEN, rdi=0x1000, rsi=flags)


def _pipe(machine, thread, flags=None):
    if flags is None:
        assert _call(machine, thread, NR.PIPE, rdi=0x2000) == 0
    else:
        assert _call(machine, thread, NR.PIPE2, rdi=0x2000, rsi=flags) == 0
    return struct.unpack("<ii", machine.mem.read(0x2000, 8))


# -- mmap file-backed reads are pread-style -------------------------------------


def test_mmap_file_backed_does_not_move_fd_offset():
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"A" * PAGE_SIZE + b"B" * PAGE_SIZE)
    fd = _open(machine, thread, "/f")
    _call(machine, thread, NR.LSEEK, rdi=fd, rsi=7, rdx=0)
    base = _call(machine, thread, NR.MMAP, rdi=0, rsi=PAGE_SIZE, rdx=3,
                 r10=MAP_PRIVATE, r8=fd, r9=PAGE_SIZE)
    assert base > 0
    # the mapping sees the file at the mmap offset, not the fd offset
    assert machine.mem.read(base, 4) == b"BBBB"
    # and the descriptor's offset is exactly where lseek left it
    assert machine.kernel.fdt.entry(fd).offset == 7
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x3000, rdx=2)
    assert machine.mem.read(0x3000, 2) == b"AA"


def test_mmap_unaligned_file_offset_einval():
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"x" * 64)
    fd = _open(machine, thread, "/f")
    assert _call(machine, thread, NR.MMAP, rdi=0, rsi=PAGE_SIZE, rdx=3,
                 r10=MAP_PRIVATE, r8=fd, r9=12) == -EINVAL


def test_mmap_then_read_interleaving_shares_one_offset():
    # read a little, mmap, read again: the two reads are contiguous
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"0123456789" + b"z" * PAGE_SIZE)
    fd = _open(machine, thread, "/f")
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x3000, rdx=4)
    _call(machine, thread, NR.MMAP, rdi=0, rsi=PAGE_SIZE, rdx=3,
          r10=MAP_PRIVATE, r8=fd, r9=0)
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x3100, rdx=4)
    assert machine.mem.read(0x3000, 4) == b"0123"
    assert machine.mem.read(0x3100, 4) == b"4567"


# -- MAP_FIXED atomic replace ---------------------------------------------------


def test_map_fixed_requires_aligned_nonzero_address():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.MMAP, rdi=0, rsi=PAGE_SIZE, rdx=3,
                 r10=MAP_ANON_PRIVATE | MAP_FIXED) == -EINVAL
    assert _call(machine, thread, NR.MMAP, rdi=0x40000100, rsi=PAGE_SIZE,
                 rdx=3, r10=MAP_ANON_PRIVATE | MAP_FIXED) == -EINVAL


def test_map_fixed_replaces_existing_mapping_with_zero_pages():
    machine, thread = _machine_with_thread()
    base = 0x40000000
    assert _call(machine, thread, NR.MMAP, rdi=base, rsi=2 * PAGE_SIZE,
                 rdx=3, r10=MAP_ANON_PRIVATE | MAP_FIXED) == base
    machine.mem.write(base, b"\xAA" * 16)
    machine.mem.write(base + PAGE_SIZE, b"\xBB" * 16)
    # replace only the first page: it must come back zeroed, while the
    # second page's contents survive untouched
    assert _call(machine, thread, NR.MMAP, rdi=base, rsi=PAGE_SIZE,
                 rdx=3, r10=MAP_ANON_PRIVATE | MAP_FIXED) == base
    assert machine.mem.read(base, 16) == b"\x00" * 16
    assert machine.mem.read(base + PAGE_SIZE, 16) == b"\xBB" * 16


def test_map_fixed_replace_retires_stale_translations():
    """MAP_FIXED over a live executable mapping — no munmap in between —
    must atomically replace it: cached superblock decodes of the old
    code would otherwise still run after the pages changed."""
    image = build_executable(
        """
        _start:
            mov rax, 9          ; mmap(0x30000000, RWX, ANON|FIXED)
            mov rdi, 0x30000000
            mov rsi, 4096
            mov rdx, 7
            mov r10, 0x32
            mov r8, -1
            mov r9, 0
            syscall
            mov r12, rax
            mov rsi, funca
            mov rdi, r12
            mov rcx, funca_end
            sub rcx, rsi
        copya:
            ld1 rbx, [rsi]
            st1 [rdi], rbx
            add rsi, 1
            add rdi, 1
            sub rcx, 1
            cmp rcx, 0
            jnz copya
            call r12            ; rbx = 1 (old code now cached)
            mov r13, rbx
            mov rax, 9          ; MAP_FIXED straight over the live mapping
            mov rdi, r12
            mov rsi, 4096
            mov rdx, 7
            mov r10, 0x32
            mov r8, -1
            mov r9, 0
            syscall
            mov rsi, funcb
            mov rdi, r12
            mov rcx, funcb_end
            sub rcx, rsi
        copyb:
            ld1 rbx, [rsi]
            st1 [rdi], rbx
            add rsi, 1
            add rdi, 1
            sub rcx, 1
            cmp rcx, 0
            jnz copyb
            call r12            ; stale decode would return 1 again
            add r13, rbx
            mov rax, 231
            mov rdi, r13        ; 1 + 2
            syscall
        funca:
            mov rbx, 1
            ret
        funca_end:
        funcb:
            mov rbx, 2
            ret
        funcb_end:
            nop
        """
    )
    machine, status, _ = run_program(image)
    assert status.kind == "exit"
    assert status.code == 3
    assert machine.cpu.block_invalidations > 0


def test_map_fixed_over_hole_succeeds():
    machine, thread = _machine_with_thread()
    base = 0x50000000
    assert _call(machine, thread, NR.MMAP, rdi=base, rsi=PAGE_SIZE,
                 rdx=3, r10=MAP_ANON_PRIVATE | MAP_FIXED) == base
    assert machine.mem.is_mapped(base)


# -- mprotect / munmap / brk ----------------------------------------------------


def test_mprotect_unaligned_or_empty_einval():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.MPROTECT, rdi=0x1004,
                 rsi=PAGE_SIZE, rdx=0) == -EINVAL
    assert _call(machine, thread, NR.MPROTECT, rdi=0x1000,
                 rsi=0, rdx=0) == -EINVAL


def test_mprotect_unmapped_range_enomem():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.MPROTECT, rdi=0x70000000,
                 rsi=PAGE_SIZE, rdx=3) == -ENOMEM
    # a range straddling a hole is ENOMEM too, even if it starts mapped
    assert _call(machine, thread, NR.MPROTECT, rdi=0x10000,
                 rsi=0x10000, rdx=3) == -ENOMEM


def test_munmap_unaligned_addr_einval():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.MUNMAP, rdi=0x1234,
                 rsi=PAGE_SIZE) == -EINVAL


def test_shrinking_brk_unmaps_released_pages():
    machine, thread = _machine_with_thread()
    machine.kernel.set_brk(0x700000)
    assert _call(machine, thread, NR.BRK, rdi=0x704000) == 0x704000
    machine.mem.write(0x703000, b"heap")
    assert _call(machine, thread, NR.BRK, rdi=0x701000) == 0x701000
    assert machine.mem.is_mapped(0x700000)
    assert not machine.mem.is_mapped(0x701000)
    assert not machine.mem.is_mapped(0x703000)
    # regrowing hands back fresh zero pages, not the old contents
    assert _call(machine, thread, NR.BRK, rdi=0x704000) == 0x704000
    assert machine.mem.read(0x703000, 4) == b"\x00" * 4


# -- fd sharing (dup / dup2) ----------------------------------------------------


def test_dup_shares_open_file_offset():
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"abcdefgh")
    fd = _open(machine, thread, "/f")
    dup_fd = _call(machine, thread, NR.DUP, rdi=fd)
    assert dup_fd != fd
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x3000, rdx=4)
    _call(machine, thread, NR.READ, rdi=dup_fd, rsi=0x3100, rdx=4)
    assert machine.mem.read(0x3000, 4) == b"abcd"
    assert machine.mem.read(0x3100, 4) == b"efgh"


def test_dup2_same_fd_is_validity_check_only():
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"abcd")
    fd = _open(machine, thread, "/f")
    _call(machine, thread, NR.LSEEK, rdi=fd, rsi=2, rdx=0)
    assert _call(machine, thread, NR.DUP2, rdi=fd, rsi=fd) == fd
    assert machine.kernel.fdt.entry(fd).offset == 2  # untouched
    assert _call(machine, thread, NR.DUP2, rdi=999, rsi=999) == -9  # EBADF


def test_dup2_onto_pipe_end_releases_it():
    machine, thread = _machine_with_thread()
    read_fd, write_fd = _pipe(machine, thread)
    machine.kernel.fs.create("/f", b"x")
    plain = _open(machine, thread, "/f")
    # clobbering the only write end with dup2 must drop its writer ref,
    # so the reader now sees EOF instead of blocking forever
    assert _call(machine, thread, NR.DUP2, rdi=plain, rsi=write_fd) == write_fd
    assert _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3000,
                 rdx=4) == 0


# -- signals --------------------------------------------------------------------


def _install_handler(machine, thread, signum, handler=0x400800, mask=0):
    machine.mem.write(0x5000, struct.pack("<QQ", handler, mask))
    assert _call(machine, thread, NR.RT_SIGACTION, rdi=signum,
                 rsi=0x5000) == 0


def test_sigaction_validates_signum_and_reads_back_old():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.RT_SIGACTION, rdi=0) == -EINVAL
    assert _call(machine, thread, NR.RT_SIGACTION, rdi=65) == -EINVAL
    assert _call(machine, thread, NR.RT_SIGACTION, rdi=SIGKILL) == -EINVAL
    _install_handler(machine, thread, SIGUSR1, handler=0x1234, mask=0x55)
    assert _call(machine, thread, NR.RT_SIGACTION, rdi=SIGUSR1,
                 rsi=0, rdx=0x5100) == 0
    assert struct.unpack("<QQ", machine.mem.read(0x5100, 16)) == (0x1234, 0x55)


def test_sigprocmask_block_unblock_setmask():
    machine, thread = _machine_with_thread()
    machine.mem.write(0x5000, struct.pack("<Q", 1 << (SIGUSR1 - 1)))
    assert _call(machine, thread, NR.RT_SIGPROCMASK, rdi=SIG_BLOCK,
                 rsi=0x5000, rdx=0x5100) == 0
    assert struct.unpack("<Q", machine.mem.read(0x5100, 8))[0] == 0
    assert thread.sigmask == 1 << (SIGUSR1 - 1)
    assert _call(machine, thread, NR.RT_SIGPROCMASK, rdi=SIG_UNBLOCK,
                 rsi=0x5000) == 0
    assert thread.sigmask == 0
    # SIGKILL can never be masked
    machine.mem.write(0x5000, struct.pack("<Q", MASK64))
    assert _call(machine, thread, NR.RT_SIGPROCMASK, rdi=SIG_SETMASK,
                 rsi=0x5000) == 0
    assert not thread.sigmask & (1 << (SIGKILL - 1))
    assert _call(machine, thread, NR.RT_SIGPROCMASK, rdi=7,
                 rsi=0x5000) == -EINVAL


def test_kill_wrong_pid_esrch_and_sig0_probe():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.KILL, rdi=4242, rsi=SIGUSR1) == -ESRCH
    assert _call(machine, thread, NR.KILL, rdi=machine.kernel.pid,
                 rsi=0) == 0
    assert machine.kernel.process_pending == 0
    assert _call(machine, thread, NR.TKILL, rdi=99, rsi=SIGUSR1) == -ESRCH
    assert _call(machine, thread, NR.TGKILL, rdi=1, rsi=thread.tid,
                 rdx=SIGUSR1) == -ESRCH


def test_signal_delivery_pushes_frame_and_sigreturn_restores():
    machine, thread = _machine_with_thread()
    _install_handler(machine, thread, SIGUSR1, handler=0x400800, mask=0x800)
    thread.regs.rip = 0x400100
    thread.regs.gpr[11] = 0xDEAD  # canary in a register kill() ignores
    assert _call(machine, thread, NR.KILL, rdi=machine.kernel.pid,
                 rsi=SIGUSR1) == 0
    assert machine.cpu.yield_flag  # raise ends the quantum promptly
    saved_rsp = thread.regs.gpr[4]
    machine.kernel.deliver_pending_signals()
    # redirected into the handler with rdi = signum
    assert thread.regs.rip == 0x400800
    assert thread.regs.gpr[7] == SIGUSR1
    frame_addr = thread.regs.gpr[4]
    assert frame_addr <= saved_rsp - RED_ZONE - SIGFRAME_SIZE
    assert frame_addr % 16 == 0
    # handler runs with the signal + act-mask blocked
    assert thread.sigmask & (1 << (SIGUSR1 - 1))
    assert thread.sigmask & 0x800
    # the frame holds the interrupted context
    values = struct.unpack("<%dQ" % SIGFRAME_QWORDS,
                           machine.mem.read(frame_addr, SIGFRAME_SIZE))
    assert values[11] == 0xDEAD         # pre-signal canary register
    assert values[16] == 0x400100       # pre-signal rip
    assert values[18] == 0              # pre-signal sigmask
    # sigreturn with rsp at the frame restores everything
    thread.regs.gpr[11] = 0
    result = _call(machine, thread, NR.RT_SIGRETURN)
    thread.regs.gpr[0] = result & MASK64
    assert thread.regs.rip == 0x400100
    assert thread.regs.gpr[11] == 0xDEAD
    assert thread.regs.gpr[4] == saved_rsp
    assert thread.sigmask == 0


def test_masked_signal_stays_pending_until_unblocked():
    machine, thread = _machine_with_thread()
    _install_handler(machine, thread, SIGUSR1)
    machine.mem.write(0x5000, struct.pack("<Q", 1 << (SIGUSR1 - 1)))
    _call(machine, thread, NR.RT_SIGPROCMASK, rdi=SIG_BLOCK, rsi=0x5000)
    _call(machine, thread, NR.KILL, rdi=machine.kernel.pid, rsi=SIGUSR1)
    rip_before = thread.regs.rip
    machine.kernel.deliver_pending_signals()
    assert thread.regs.rip == rip_before  # still parked: masked
    assert machine.kernel.process_pending & (1 << (SIGUSR1 - 1))
    machine.cpu.yield_flag = False
    _call(machine, thread, NR.RT_SIGPROCMASK, rdi=SIG_UNBLOCK, rsi=0x5000)
    assert machine.cpu.yield_flag  # unblocking demands prompt delivery
    machine.kernel.deliver_pending_signals()
    assert thread.regs.rip == 0x400800


def test_sig_ign_discards_and_sig_dfl_kills():
    machine, thread = _machine_with_thread()
    _install_handler(machine, thread, SIGUSR1, handler=SIG_IGN)
    _call(machine, thread, NR.KILL, rdi=machine.kernel.pid, rsi=SIGUSR1)
    machine.kernel.deliver_pending_signals()
    assert machine.exit_status is None
    assert machine.kernel.process_pending == 0
    _call(machine, thread, NR.KILL, rdi=machine.kernel.pid, rsi=SIGUSR2)
    machine.kernel.deliver_pending_signals()  # no handler: default kills
    assert machine.exit_status is not None
    assert machine.exit_status.kind == "signal"
    assert machine.exit_status.signal == SIGUSR2


def test_thread_directed_signal_prefers_unblocked_thread():
    machine, thread = _machine_with_thread()
    other = machine.create_thread()
    other.regs.gpr[4] = 0xE000
    _install_handler(machine, thread, SIGUSR1)
    # block SIGUSR1 in the first thread only; a process-directed signal
    # must land on the second
    thread.sigmask = 1 << (SIGUSR1 - 1)
    _call(machine, thread, NR.KILL, rdi=machine.kernel.pid, rsi=SIGUSR1)
    machine.kernel.deliver_pending_signals()
    assert other.regs.rip == 0x400800
    assert thread.regs.rip != 0x400800


def test_signal_interrupts_futex_wait_with_eintr():
    machine, thread = _machine_with_thread()
    _install_handler(machine, thread, SIGUSR1)
    machine.mem.write(0x6000, (1).to_bytes(8, "little"))
    # FUTEX_WAIT on a matching value parks the thread
    assert _call(machine, thread, NR.FUTEX, rdi=0x6000, rsi=0, rdx=1) == 0
    assert thread.blocked and thread.futex_addr == 0x6000
    _call(machine, thread, NR.TKILL, rdi=thread.tid, rsi=SIGUSR1)
    machine.kernel.deliver_pending_signals()
    assert not thread.blocked and thread.futex_addr is None
    assert thread.regs.rip == 0x400800
    frame = machine.mem.read(thread.regs.gpr[4], SIGFRAME_SIZE)
    values = struct.unpack("<%dQ" % SIGFRAME_QWORDS, frame)
    assert values[0] == (-EINTR) & MASK64  # rax the handler returns into


def test_signal_interrupts_channel_wait_with_restart():
    machine, thread = _machine_with_thread()
    _install_handler(machine, thread, SIGUSR1)
    read_fd, _ = _pipe(machine, thread)
    thread.regs.rip = 0x400200  # as if just past the SYSCALL instruction
    result = _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3000,
                   rdx=4)
    assert thread.blocked and thread.wait_channel is not None
    assert result == NR.READ  # rewound: rax still holds the nr
    assert thread.regs.rip == 0x4001FF
    _call(machine, thread, NR.TKILL, rdi=thread.tid, rsi=SIGUSR1)
    machine.kernel.deliver_pending_signals()
    assert not thread.blocked and thread.wait_channel is None
    # the frame's saved rip is the rewound one: returning from the
    # handler transparently restarts the read (SA_RESTART)
    frame = machine.mem.read(thread.regs.gpr[4], SIGFRAME_SIZE)
    values = struct.unpack("<%dQ" % SIGFRAME_QWORDS, frame)
    assert values[16] == 0x4001FF


# -- pipes ----------------------------------------------------------------------


def test_pipe_write_read_roundtrip():
    machine, thread = _machine_with_thread()
    read_fd, write_fd = _pipe(machine, thread)
    machine.mem.write(0x3000, b"ping")
    assert _call(machine, thread, NR.WRITE, rdi=write_fd, rsi=0x3000,
                 rdx=4) == 4
    assert _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3100,
                 rdx=16) == 4
    assert machine.mem.read(0x3100, 4) == b"ping"


def test_pipe2_rejects_unknown_flags():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.PIPE2, rdi=0x2000,
                 rsi=0x7777777) == -EINVAL


def test_pipe_eof_after_all_write_ends_close():
    machine, thread = _machine_with_thread()
    read_fd, write_fd = _pipe(machine, thread)
    dup_write = _call(machine, thread, NR.DUP, rdi=write_fd)
    machine.mem.write(0x3000, b"x")
    _call(machine, thread, NR.WRITE, rdi=write_fd, rsi=0x3000, rdx=1)
    _call(machine, thread, NR.CLOSE, rdi=write_fd)
    # a dup'ed write end still holds the channel open
    assert _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3100,
                 rdx=4) == 1
    _call(machine, thread, NR.CLOSE, rdi=dup_write)
    assert _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3100,
                 rdx=4) == 0  # EOF, not a block


def test_pipe_epipe_after_read_end_closes():
    machine, thread = _machine_with_thread()
    read_fd, write_fd = _pipe(machine, thread)
    _call(machine, thread, NR.CLOSE, rdi=read_fd)
    machine.mem.write(0x3000, b"x")
    assert _call(machine, thread, NR.WRITE, rdi=write_fd, rsi=0x3000,
                 rdx=1) == -EPIPE


def test_pipe_nonblock_empty_read_eagain():
    machine, thread = _machine_with_thread()
    read_fd, _ = _pipe(machine, thread, flags=O_NONBLOCK)
    assert _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3000,
                 rdx=4) == -EAGAIN


def test_blocking_pipe_read_parks_and_wakes_on_write():
    machine, thread = _machine_with_thread()
    writer = machine.create_thread()
    read_fd, write_fd = _pipe(machine, thread)
    _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3000, rdx=4)
    assert thread.blocked
    machine.mem.write(0x3000, b"data")
    assert _call(machine, writer, NR.WRITE, rdi=write_fd, rsi=0x3000,
                 rdx=4) == 4
    assert not thread.blocked  # woken; will re-execute the rewound read


def test_pipe_write_blocks_when_full_and_respects_capacity():
    machine, thread = _machine_with_thread()
    read_fd, write_fd = _pipe(machine, thread)
    capacity = machine.kernel.channels[1].capacity
    machine.mem.map(0x20000000, capacity + PAGE_SIZE, PROT_RW)
    # a write larger than the buffer is short, filling it exactly
    assert _call(machine, thread, NR.WRITE, rdi=write_fd, rsi=0x20000000,
                 rdx=capacity + 100) == capacity
    _call(machine, thread, NR.WRITE, rdi=write_fd, rsi=0x20000000, rdx=1)
    assert thread.blocked  # full pipe parks the writer
    # draining wakes it
    reader = machine.create_thread()
    _call(machine, reader, NR.READ, rdi=read_fd, rsi=0x20000000,
          rdx=PAGE_SIZE)
    assert not thread.blocked


# -- sockets --------------------------------------------------------------------


def test_socketpair_duplex_roundtrip():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.SOCKETPAIR, rdi=1, rsi=1,
                 r10=0x2000) == 0
    fd0, fd1 = struct.unpack("<ii", machine.mem.read(0x2000, 8))
    machine.mem.write(0x3000, b"ab")
    assert _call(machine, thread, NR.WRITE, rdi=fd0, rsi=0x3000, rdx=2) == 2
    assert _call(machine, thread, NR.READ, rdi=fd1, rsi=0x3100, rdx=8) == 2
    assert machine.mem.read(0x3100, 2) == b"ab"
    machine.mem.write(0x3000, b"cd")
    assert _call(machine, thread, NR.WRITE, rdi=fd1, rsi=0x3000, rdx=2) == 2
    assert _call(machine, thread, NR.READ, rdi=fd0, rsi=0x3100, rdx=8) == 2
    assert machine.mem.read(0x3100, 2) == b"cd"


def _sockaddr_in(machine, addr, port):
    machine.mem.write(addr, struct.pack(">HH", 0x0002, port) + b"\x00" * 12)


def test_inet_listen_connect_accept_exchange():
    machine, thread = _machine_with_thread()
    server = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    _sockaddr_in(machine, 0x2000, 8080)
    assert _call(machine, thread, NR.BIND, rdi=server, rsi=0x2000) == 0
    assert _call(machine, thread, NR.LISTEN, rdi=server, rsi=4) == 0
    client = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    # reading an unconnected socket is ENOTCONN, not a hang
    assert _call(machine, thread, NR.READ, rdi=client, rsi=0x3000,
                 rdx=4) == -ENOTCONN
    assert _call(machine, thread, NR.CONNECT, rdi=client, rsi=0x2000) == 0
    conn = _call(machine, thread, NR.ACCEPT, rdi=server, rsi=0, rdx=0)
    assert conn >= 3
    machine.mem.write(0x3000, b"req")
    assert _call(machine, thread, NR.WRITE, rdi=client, rsi=0x3000,
                 rdx=3) == 3
    assert _call(machine, thread, NR.READ, rdi=conn, rsi=0x3100, rdx=8) == 3
    assert machine.mem.read(0x3100, 3) == b"req"
    machine.mem.write(0x3000, b"resp")
    assert _call(machine, thread, NR.WRITE, rdi=conn, rsi=0x3000, rdx=4) == 4
    assert _call(machine, thread, NR.READ, rdi=client, rsi=0x3100,
                 rdx=8) == 4


def test_connect_without_listener_refused_and_bind_conflicts():
    machine, thread = _machine_with_thread()
    client = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    _sockaddr_in(machine, 0x2000, 9999)
    assert _call(machine, thread, NR.CONNECT, rdi=client,
                 rsi=0x2000) == -ECONNREFUSED
    first = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    assert _call(machine, thread, NR.BIND, rdi=first, rsi=0x2000) == 0
    assert _call(machine, thread, NR.LISTEN, rdi=first, rsi=1) == 0
    second = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    assert _call(machine, thread, NR.BIND, rdi=second,
                 rsi=0x2000) == -EADDRINUSE


def test_accept_blocks_until_connect():
    machine, thread = _machine_with_thread()
    client_thread = machine.create_thread()
    server = _call(machine, thread, NR.SOCKET, rdi=2, rsi=1)
    _sockaddr_in(machine, 0x2000, 7000)
    _call(machine, thread, NR.BIND, rdi=server, rsi=0x2000)
    _call(machine, thread, NR.LISTEN, rdi=server, rsi=1)
    _call(machine, thread, NR.ACCEPT, rdi=server, rsi=0, rdx=0)
    assert thread.blocked  # nothing queued yet
    client = _call(machine, client_thread, NR.SOCKET, rdi=2, rsi=1)
    assert _call(machine, client_thread, NR.CONNECT, rdi=client,
                 rsi=0x2000) == 0
    assert not thread.blocked  # connect wakes the acceptor


# -- SysV shared memory ---------------------------------------------------------


def test_shm_attach_write_detach_reattach_persists():
    machine, thread = _machine_with_thread()
    shmid = _call(machine, thread, NR.SHMGET, rdi=0, rsi=64, rdx=0o1600)
    assert shmid >= 1
    base = _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=0, rdx=0)
    assert base > 0 and machine.mem.is_mapped(base)
    machine.mem.write(base, b"shared!!")
    assert _call(machine, thread, NR.SHMDT, rdi=base) == 0
    assert not machine.mem.is_mapped(base)
    again = _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=0, rdx=0)
    assert machine.mem.read(again, 8) == b"shared!!"


def test_shmget_key_lookup_and_size_checks():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.SHMGET, rdi=5, rsi=0,
                 rdx=0o1600) == -EINVAL  # zero size
    assert _call(machine, thread, NR.SHMGET, rdi=5, rsi=64,
                 rdx=0) == -2  # ENOENT without IPC_CREAT
    shmid = _call(machine, thread, NR.SHMGET, rdi=5, rsi=64, rdx=0o1600)
    assert _call(machine, thread, NR.SHMGET, rdi=5, rsi=32, rdx=0) == shmid
    assert _call(machine, thread, NR.SHMGET, rdi=5, rsi=4096,
                 rdx=0) == -EINVAL  # bigger than the segment


def test_shmat_occupied_range_needs_shm_remap():
    machine, thread = _machine_with_thread()
    shmid = _call(machine, thread, NR.SHMGET, rdi=0, rsi=32, rdx=0o1600)
    target = 0x60000000
    machine.mem.map(target, PAGE_SIZE, PROT_RW)
    machine.mem.write(target, b"OLDOLD")
    assert _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=target,
                 rdx=0) == -EINVAL
    assert _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=target,
                 rdx=SHM_REMAP) == target
    assert machine.mem.read(target, 6) == b"\x00" * 6  # replaced
    assert _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=0,
                 rdx=0) == -EINVAL  # single-attach model
    assert _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=0x123,
                 rdx=0) == -EINVAL  # unaligned explicit address


def test_shmctl_rmid_removes_segment():
    machine, thread = _machine_with_thread()
    shmid = _call(machine, thread, NR.SHMGET, rdi=0, rsi=32, rdx=0o1600)
    assert _call(machine, thread, NR.SHMCTL, rdi=shmid, rsi=0) == 0
    assert shmid not in machine.kernel.shm_segments
    assert _call(machine, thread, NR.SHMAT, rdi=shmid, rsi=0,
                 rdx=0) == -EINVAL
    # ids are never reused: the next segment gets a fresh one
    assert _call(machine, thread, NR.SHMGET, rdi=0, rsi=32,
                 rdx=0o1600) == shmid + 1


# -- record/replay tagging ------------------------------------------------------


def test_kernel_state_syscalls_flagged_native():
    machine, thread = _machine_with_thread()
    _call(machine, thread, NR.PIPE, rdi=0x2000)
    assert machine.kernel.last_native
    read_fd, _ = struct.unpack("<ii", machine.mem.read(0x2000, 8))
    _call(machine, thread, NR.GETPID)
    assert not machine.kernel.last_native
    # channel-endpoint I/O must re-execute natively under replay
    _call(machine, thread, NR.READ, rdi=read_fd, rsi=0x3000, rdx=0)
    assert machine.kernel.last_native
    machine.kernel.fs.create("/f", b"x")
    fd = _open(machine, thread, "/f")
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x3000, rdx=1)
    assert not machine.kernel.last_native  # plain file reads replay from log
