"""Focused tests of kernel syscall semantics (beyond the e2e tests)."""

from repro.machine import Machine
from repro.machine.kernel import (
    ARCH_GET_FS,
    ARCH_SET_FS,
    ARCH_SET_GS,
    NR,
    PR_SET_MM,
    PR_SET_MM_BRK,
    PR_SET_MM_START_BRK,
)
from repro.machine.memory import PROT_RW
from repro.observe import hooks


def _machine_with_thread():
    machine = Machine(seed=0)
    machine.mem.map(0x1000, 0x10000, PROT_RW)
    thread = machine.create_thread()
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


def test_unknown_syscall_returns_enosys():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, 9999) == -38


def test_write_records_no_effects_reads_do():
    machine, thread = _machine_with_thread()
    fs = machine.kernel.fs
    fs.create("/f", b"xyz")
    machine.mem.write(0x1000, b"/f\x00")
    fd = _call(machine, thread, NR.OPEN, rdi=0x1000, rsi=0)
    assert fd >= 3
    _call(machine, thread, NR.READ, rdi=fd, rsi=0x2000, rdx=3)
    # the read's buffer write was recorded as a side effect
    assert machine.kernel.last_effects
    addr, data = machine.kernel.last_effects[0]
    assert addr == 0x2000 and data == b"xyz"
    _call(machine, thread, NR.WRITE, rdi=1, rsi=0x2000, rdx=3)
    assert machine.kernel.last_effects == []


def test_lseek_negative_offset_sign_extension():
    machine, thread = _machine_with_thread()
    machine.kernel.fs.create("/f", b"0123456789")
    machine.mem.write(0x1000, b"/f\x00")
    fd = _call(machine, thread, NR.OPEN, rdi=0x1000)
    _call(machine, thread, NR.LSEEK, rdi=fd, rsi=8, rdx=0)
    # SEEK_CUR with -3 passed as a 64-bit two's-complement value
    result = _call(machine, thread, NR.LSEEK, rdi=fd,
                   rsi=(1 << 64) - 3, rdx=1)
    assert result == 5


def test_arch_prctl_set_get_fs():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.ARCH_PRCTL, rdi=ARCH_SET_FS,
                 rsi=0x12340000) == 0
    assert thread.regs.fs_base == 0x12340000
    _call(machine, thread, NR.ARCH_PRCTL, rdi=ARCH_GET_FS, rsi=0x3000)
    assert int.from_bytes(machine.mem.read(0x3000, 8), "little") == 0x12340000
    _call(machine, thread, NR.ARCH_PRCTL, rdi=ARCH_SET_GS, rsi=0x555)
    assert thread.regs.gs_base == 0x555


def test_prctl_set_mm_brk_restores_heap_layout():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.PRCTL, rdi=PR_SET_MM,
                 rsi=PR_SET_MM_START_BRK, rdx=0x600000) == 0
    assert _call(machine, thread, NR.PRCTL, rdi=PR_SET_MM,
                 rsi=PR_SET_MM_BRK, rdx=0x640000) == 0
    assert machine.kernel.brk_start == 0x600000
    assert machine.kernel.brk_end == 0x640000
    # subsequent brk(0) sees the restored layout
    assert _call(machine, thread, NR.BRK, rdi=0) == 0x640000


def test_brk_query_and_grow():
    machine, thread = _machine_with_thread()
    machine.kernel.set_brk(0x700000)
    assert _call(machine, thread, NR.BRK, rdi=0) == 0x700000
    new_end = _call(machine, thread, NR.BRK, rdi=0x702000)
    assert new_end == 0x702000
    machine.mem.write(0x701000, b"heap")  # newly mapped page is usable


def test_mmap_hint_honored_when_free():
    machine, thread = _machine_with_thread()
    base = _call(machine, thread, NR.MMAP, rdi=0x40000000, rsi=8192,
                 rdx=3, r10=0x22, r8=(1 << 64) - 1)
    assert base == 0x40000000
    assert machine.mem.is_mapped(0x40000000)


def test_mmap_zero_length_einval():
    machine, thread = _machine_with_thread()
    assert _call(machine, thread, NR.MMAP, rdi=0, rsi=0, rdx=3,
                 r10=0x22) == -22


def test_gettimeofday_advances_with_cycles():
    machine, thread = _machine_with_thread()
    _call(machine, thread, NR.GETTIMEOFDAY, rdi=0x5000)
    first = int.from_bytes(machine.mem.read(0x5000, 8), "little")
    thread.cycles += machine.kernel.CYCLES_PER_SEC * 3
    _call(machine, thread, NR.GETTIMEOFDAY, rdi=0x5000)
    second = int.from_bytes(machine.mem.read(0x5000, 8), "little")
    assert second == first + 3


def test_exit_group_kills_all_threads():
    machine, thread = _machine_with_thread()
    other = machine.create_thread()
    _call(machine, thread, NR.EXIT_GROUP, rdi=3)
    assert not thread.alive and not other.alive
    assert machine.exit_status.code == 3


def test_clone_child_inherits_registers_with_rax_zero():
    machine, thread = _machine_with_thread()
    thread.regs.set("rbx", 0x77)
    child_tid = _call(machine, thread, NR.CLONE, rdi=0x100,
                      rsi=0x8000, rdx=0x400500)
    child = machine.threads[child_tid]
    assert child.regs.get("rbx") == 0x77
    assert child.regs.rsp == 0x8000
    assert child.regs.rip == 0x400500
    assert child.regs.rax == 0


def test_syscall_trace_names():
    machine, thread = _machine_with_thread()
    with hooks.observed() as obs:
        _call(machine, thread, NR.GETPID)
        _call(machine, thread, NR.BRK, rdi=0)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["kernel.syscalls"] == 2
    assert counters["kernel.syscall.getpid"] == 1
    assert counters["kernel.syscall.brk"] == 1
