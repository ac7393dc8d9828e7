"""Contract tests for constrained-replay divergence.

Each test edits a captured two-thread pinball so that its replay must
leave the recording in one way, then checks the structured
:class:`DivergenceInfo` the replay reports (its kind and thread) and
that ``repro replay`` exits 1 on the saved pinball.  The edits touch the
worker thread (tid 1) only, so the reported tid is the edited thread,
not the first one scheduled.
"""

import dataclasses

import pytest

from repro.core.cli import main
from repro.machine.kernel import NR
from repro.pinplay import LogOptions, RegionSpec, log_region, replay
from repro.workloads import build_executable

WORKER = 1

#: The main thread loops on getpid; the worker alternates getpid
#: (injected on replay) with an anonymous mmap, which changes kernel
#: state and so is re-executed natively and result-checked.
PROGRAM = """
_start:
    mov rax, 56
    mov rdi, 0x100
    mov rsi, wstack_top
    mov rdx, worker
    syscall
    mov r12, 60
main_loop:
    mov rax, 39
    syscall
    mov rcx, 7
main_spin:
    sub rcx, 1
    cmp rcx, 0
    jnz main_spin
    sub r12, 1
    cmp r12, 0
    jnz main_loop
    mov rax, 231
    mov rdi, 0
    syscall
worker:
    mov r12, 60
worker_loop:
    mov rax, 39
    syscall
    mov rax, 9
    mov rdi, 0
    mov rsi, 4096
    mov rdx, 3
    mov r10, 0x22
    mov r8, 0
    mov r9, 0
    syscall
    mov rcx, 5
worker_spin:
    sub rcx, 1
    cmp rcx, 0
    jnz worker_spin
    sub r12, 1
    cmp r12, 0
    jnz worker_loop
    mov rax, 60
    mov rdi, 0
    syscall
"""

DATA = """
wstack:
.zero 2048
wstack_top:
"""


@pytest.fixture(scope="module")
def pinball():
    image = build_executable(PROGRAM, data_source=DATA)
    captured = log_region(image, RegionSpec(start=50, length=900, warmup=0,
                                            name="div"),
                          options=LogOptions(name="div"))
    assert sorted(t.tid for t in captured.threads) == [0, WORKER]
    assert replay(captured).diverged is None
    return captured


def _worker_calls(pinball):
    return [i for i, record in enumerate(pinball.syscalls)
            if record.tid == WORKER]


def _with_syscalls(pinball, syscalls):
    return dataclasses.replace(pinball, syscalls=syscalls)


def _with_worker_icount(pinball, delta):
    threads = [dataclasses.replace(
        record, region_icount=record.region_icount + delta)
        if record.tid == WORKER else record for record in pinball.threads]
    return dataclasses.replace(pinball, threads=threads)


def _assert_diverges(pinball, kind, tmp_path, capsys):
    info = replay(pinball).diverged
    assert info is not None
    assert (info.kind, info.tid) == (kind, WORKER), info
    pinball.save(str(tmp_path))
    capsys.readouterr()
    code = main(["replay", "--pinball", str(tmp_path / pinball.name)])
    assert code == 1
    assert "divergence: %s" % kind in capsys.readouterr().out


def test_unrecorded_syscall(pinball, tmp_path, capsys):
    last = _worker_calls(pinball)[-1]
    edited = _with_syscalls(pinball, pinball.syscalls[:last]
                            + pinball.syscalls[last + 1:])
    _assert_diverges(edited, "syscall-unrecorded", tmp_path, capsys)


def test_syscall_number_mismatch(pinball, tmp_path, capsys):
    syscalls = list(pinball.syscalls)
    first = _worker_calls(pinball)[0]
    syscalls[first] = dataclasses.replace(syscalls[first],
                                          number=NR.GETTIMEOFDAY)
    _assert_diverges(_with_syscalls(pinball, syscalls),
                     "syscall-mismatch", tmp_path, capsys)


def test_native_syscall_result_mismatch(pinball, tmp_path, capsys):
    """An mmap record carries ``native`` from the recording kernel, so
    replay re-executes it and compares its result with the record."""
    syscalls = list(pinball.syscalls)
    mmap = next(i for i in _worker_calls(pinball)
                if syscalls[i].number == NR.MMAP)
    assert syscalls[mmap].native
    syscalls[mmap] = dataclasses.replace(
        syscalls[mmap], result=syscalls[mmap].result + 0x10000)
    _assert_diverges(_with_syscalls(pinball, syscalls),
                     "syscall-result", tmp_path, capsys)


def test_budget_overrun(pinball, tmp_path, capsys):
    _assert_diverges(_with_worker_icount(pinball, -40), "budget-overrun",
                     tmp_path, capsys)


def test_icount_mismatch(pinball, tmp_path, capsys):
    _assert_diverges(_with_worker_icount(pinball, 40), "icount-mismatch",
                     tmp_path, capsys)
