"""Tests for the PinPlay substrate: logging, pinballs, replay, sysstate."""

import dataclasses
import json
import struct

import pytest

from repro.machine.vfs import FileSystem
from repro.pinplay import (
    LogOptions,
    Pinball,
    RegionSpec,
    extract_sysstate,
    log_region,
    replay,
)
from repro.workloads import build_executable

COUNTER_PROGRAM = """
_start:
    mov rbx, 0
    mov rcx, 2000
loop:
    add rbx, rcx
    imul rbx, 3
    ld rax, [scratch]
    add rax, rbx
    st [scratch], rax
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
"""

COUNTER_DATA = "scratch:\n.quad 0\n"


@pytest.fixture(scope="module")
def counter_image():
    return build_executable(COUNTER_PROGRAM, data_source=COUNTER_DATA)


FILE_PROGRAM = """
_start:
    mov rax, 2          ; open("/in.dat") — BEFORE the region
    mov rdi, path
    mov rsi, 0
    syscall
    mov r14, rax        ; keep fd
    mov rcx, 3000       ; region will start inside this delay loop
delay:
    sub rcx, 1
    cmp rcx, 0
    jnz delay
    mov rax, 0          ; read(fd, buf, 8) — INSIDE the region
    mov rdi, r14
    mov rsi, buf
    mov rdx, 8
    syscall
    ld rbx, [buf]
    mov rax, 231
    mov rdi, rbx
    and rdi, 0xff
    syscall
path:
    .asciz "/in.dat"
"""

FILE_DATA = "buf:\n.zero 16\n"


@pytest.fixture(scope="module")
def file_image():
    return build_executable(FILE_PROGRAM, data_source=FILE_DATA)


def _file_fs():
    fs = FileSystem()
    fs.create("/in.dat", bytes([0x2A]) + b"\x00" * 15)
    return fs


def test_log_region_produces_pinball(counter_image):
    region = RegionSpec(start=2000, length=3000, name="test.r0")
    pinball = log_region(counter_image, region, LogOptions(name="test"))
    assert pinball.num_threads == 1
    assert pinball.region_icount == 3000
    assert pinball.pages  # fat pinball has pages
    assert pinball.fat


def test_pinball_captures_register_state(counter_image):
    region = RegionSpec(start=1000, length=500)
    pinball = log_region(counter_image, region)
    regs = pinball.threads[0].regs
    # rip must be inside .text
    assert 0x400000 <= regs.rip < 0x400000 + 4096
    # rcx is the loop counter: it has been decremented from 2000
    assert 0 < regs.get("rcx") < 2000


def test_fat_vs_lazy_page_counts(counter_image):
    region = RegionSpec(start=2000, length=1000)
    fat = log_region(counter_image, region, LogOptions(fat=True))
    lazy = log_region(counter_image, region, LogOptions(fat=False))
    assert set(lazy.pages) <= set(fat.pages)
    assert len(lazy.pages) < len(fat.pages)


def test_replay_is_deterministic(counter_image):
    region = RegionSpec(start=2000, length=3000)
    pinball = log_region(counter_image, region)
    first = replay(pinball, seed=7)
    second = replay(pinball, seed=99)
    assert first.diverged is None
    assert second.diverged is None
    assert first.thread_icounts == second.thread_icounts == {0: 3000}
    # final memory identical
    assert (first.machine.mem.read(0x600000, 8)
            == second.machine.mem.read(0x600000, 8))


def test_replay_reaches_exact_region_end(counter_image):
    region = RegionSpec(start=5000, length=2000)
    pinball = log_region(counter_image, region)
    result = replay(pinball)
    assert result.total_icount == 2000
    assert result.matches_recording


def test_replay_injects_file_reads_without_the_file(file_image):
    """The file only exists at log time; replay injects read() results."""
    region = RegionSpec(start=2000, length=50000, name="file.r0")
    pinball = log_region(file_image, region, fs=_file_fs())
    # replay on a machine with NO /in.dat and no open fd
    result = replay(pinball)
    assert result.matches_recording
    assert result.injected_syscalls >= 1
    # the injected read delivered 0x2a into the buffer
    assert result.machine.mem.read(0x600000, 1)[0] == 0x2A


def test_injectionless_replay_file_read_fails(file_image):
    """-replay:injection 0: the read() re-executes and fails (no fd),
    mimicking a bare ELFie run."""
    region = RegionSpec(start=2000, length=50000)
    pinball = log_region(file_image, region, fs=_file_fs())
    result = replay(pinball, injection=False)
    # program runs to its exit, but the read failed, so the buffer got
    # no data and the exit code differs from the recorded run (0x2a).
    assert result.status.kind == "exit"
    assert result.status.code != 0x2A


def test_pinball_save_load_round_trip(tmp_path, counter_image):
    region = RegionSpec(start=1500, length=2500, warmup=500, name="rt.r1",
                        weight=0.25)
    pinball = log_region(counter_image, region, LogOptions(name="rt"))
    pinball.save(str(tmp_path))
    loaded = Pinball.load(str(tmp_path), "rt")
    assert loaded.region == pinball.region
    assert loaded.threads[0].regs == pinball.threads[0].regs
    assert loaded.pages == pinball.pages
    assert loaded.schedule == pinball.schedule
    assert [r.to_json() for r in loaded.syscalls] == [
        r.to_json() for r in pinball.syscalls
    ]
    # and the loaded pinball replays
    result = replay(loaded)
    assert result.matches_recording


@pytest.fixture(scope="module")
def file_pinball(file_image):
    """A pinball holding every record kind: an open file, a syscall."""
    pinball = log_region(file_image, RegionSpec(start=2000, length=50000,
                                                name="file.r0"),
                         fs=_file_fs())
    assert pinball.open_files and pinball.syscalls
    return pinball


#: One key the writer writes per JSON part of a pinball.
WRITTEN_KEYS = [("result", "next_shmid"), ("result", "open_files"),
                ("region", "weight"), ("thread", "wait_channel"),
                ("syscall", "native"), ("open_file", "offset")]


def _drop(result, thread, syscalls, part, key):
    """Delete *key* from *part* of a pinball's decoded JSON parts."""
    record = {"result": result, "region": result["region"],
              "thread": thread, "syscall": syscalls[0],
              "open_file": result["open_files"][0]}[part]
    del record[key]


@pytest.mark.parametrize("part,key", WRITTEN_KEYS)
def test_pinball_bytes_lacking_a_written_key_are_rejected(file_pinball,
                                                          part, key):
    blob = file_pinball.save_bytes()
    (meta_len,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16:16 + meta_len])
    _drop(meta["result"], meta["threads"][0], meta["syscalls"], part, key)
    edited = json.dumps(meta).encode("utf-8")
    blob = (blob[:8] + struct.pack("<Q", len(edited)) + edited
            + blob[16 + meta_len:])
    with pytest.raises(ValueError, match="lacks key '%s'" % key):
        Pinball.load_bytes(blob)


@pytest.mark.parametrize("part,key", WRITTEN_KEYS)
def test_pinball_directory_lacking_a_written_key_is_rejected(
        tmp_path, file_pinball, part, key):
    prefix = file_pinball.save(str(tmp_path))
    paths = {"result": prefix + ".result", "sel": prefix + ".sel",
             "thread": "%s.%d.reg" % (prefix, file_pinball.threads[0].tid)}
    parts = {}
    for name, path in paths.items():
        with open(path) as handle:
            parts[name] = json.load(handle)
    _drop(parts["result"], parts["thread"], parts["sel"], part, key)
    for name, path in paths.items():
        with open(path, "w") as handle:
            json.dump(parts[name], handle)
    with pytest.raises(ValueError, match="lacks key '%s'" % key):
        Pinball.load(str(tmp_path), file_pinball.name)


def test_pinball_files_on_disk(tmp_path, counter_image):
    region = RegionSpec(start=1000, length=1000)
    pinball = log_region(counter_image, region, LogOptions(name="disk"))
    pinball.save(str(tmp_path))
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"disk.text", "disk.0.reg", "disk.sel", "disk.race",
                     "disk.result"}


def test_warmup_extends_captured_window(counter_image):
    region = RegionSpec(start=5000, length=1000, warmup=2000)
    pinball = log_region(counter_image, region)
    # captured window covers warmup + region
    assert pinball.region_icount == 3000
    # register state is from the warmup start
    regs = pinball.threads[0].regs
    assert regs.rip != 0


def test_region_past_program_end_raises(counter_image):
    region = RegionSpec(start=10_000_000, length=100)
    with pytest.raises(ValueError):
        log_region(counter_image, region)


def test_stack_range_detection(counter_image):
    region = RegionSpec(start=1000, length=100)
    pinball = log_region(counter_image, region)
    start, end = pinball.stack_range()
    rsp = pinball.threads[0].regs.rsp
    assert start <= rsp < end


def test_sysstate_extracts_fd_proxy(file_image):
    region = RegionSpec(start=2000, length=50000)
    pinball = log_region(file_image, region, fs=_file_fs())
    state = extract_sysstate(pinball)
    fd_files = state.fd_files
    assert len(fd_files) == 1
    proxy = fd_files[0]
    assert proxy.name == "FD_%d" % proxy.restore_fd
    assert bytes(proxy.data[:1]) == b"\x2a"


def test_sysstate_brk_log(counter_image):
    region = RegionSpec(start=1000, length=1000)
    pinball = log_region(counter_image, region)
    state = extract_sysstate(pinball)
    assert "first_brk 0x" in state.brk_log()
    assert state.last_brk >= state.first_brk >= 0


def test_sysstate_write_to_filesystem(file_image):
    region = RegionSpec(start=2000, length=50000)
    pinball = log_region(file_image, region, fs=_file_fs())
    state = extract_sysstate(pinball)
    fs = FileSystem()
    workdir = state.write_to(fs, "/work")
    assert workdir == "/work"
    assert fs.exists("/work/BRK.log")
    fd_proxy = state.fd_files[0]
    assert fs.contents("/work/" + fd_proxy.name)[:1] == b"\x2a"


def test_sysstate_named_file_opened_in_region():
    source = """
    _start:
        mov rcx, 500
    warm:
        sub rcx, 1
        cmp rcx, 0
        jnz warm
        mov rax, 2          ; open inside the region
        mov rdi, path
        mov rsi, 0
        syscall
        mov rdi, rax
        mov rax, 0
        mov rsi, buf
        mov rdx, 4
        syscall
        mov rax, 231
        mov rdi, 0
        syscall
    path:
        .asciz "/data/cfg.txt"
    """
    image = build_executable(source, data_source="buf:\n.zero 8\n")
    fs = FileSystem()
    fs.create("/data/cfg.txt", b"WXYZ")
    pinball = log_region(image, RegionSpec(start=400, length=50000), fs=fs)
    state = extract_sysstate(pinball)
    named = state.named_files
    assert len(named) == 1
    assert named[0].name == "/data/cfg.txt"
    assert bytes(named[0].data) == b"WXYZ"
    out = FileSystem()
    state.write_to(out, "/ss")
    assert out.contents("/data/cfg.txt") == b"WXYZ"
    assert out.contents("/ss/data/cfg.txt") == b"WXYZ"


WAITERS_PROGRAM = """
_start:
    mov rax, 22
    mov rdi, fds
    syscall
    mov rax, 56
    mov rdi, 0x100
    mov rsi, rstack_top
    mov rdx, reader
    syscall
    mov rax, 56
    mov rdi, 0x100
    mov rsi, wstack_top
    mov rdx, waiter
    syscall
    mov rcx, 1000
spin:
    sub rcx, 1
    cmp rcx, 0
    jnz spin
    mov rax, 1          ; write(4, msg, 8): wakes the pipe reader
    mov rdi, 4
    mov rsi, msg
    mov rdx, 8
    syscall
    mov rax, 202        ; futex(flag, FUTEX_WAKE, 1): wakes the waiter
    mov rdi, flag
    mov rsi, 1
    mov rdx, 1
    syscall
    mov rcx, 200
tail:
    sub rcx, 1
    cmp rcx, 0
    jnz tail
    mov rax, 231
    mov rdi, 0
    syscall
reader:
    mov rax, 0          ; read(3, inbox, 8): blocks on the empty pipe
    mov rdi, 3
    mov rsi, inbox
    mov rdx, 8
    syscall
    mov rax, 60
    mov rdi, 0
    syscall
waiter:
    mov rax, 202        ; futex(flag, FUTEX_WAIT, 0): blocks
    mov rdi, flag
    mov rsi, 0
    mov rdx, 0
    syscall
    mov rax, 60
    mov rdi, 0
    syscall
"""

WAITERS_DATA = """
fds:
.quad 0
flag:
.quad 0
msg:
.quad 0x1122334455667788
inbox:
.quad 0
rstack:
.zero 1024
rstack_top:
.quad 0
wstack:
.zero 1024
wstack_top:
.quad 0
"""


def test_every_blocked_thread_is_in_its_captured_wait_queue():
    """The kernel keeps every blocked thread in the wait queue of what
    it waits on, and the pinball captures those queues, so replay
    restores a blocked thread's place from them alone: the in-region
    futex wake finds its waiter and returns the recorded 1."""
    image = build_executable(WAITERS_PROGRAM, data_source=WAITERS_DATA)
    pinball = log_region(image, RegionSpec(start=1500, length=2000))
    blocked = {t.tid: t for t in pinball.threads if t.blocked}
    assert sorted(blocked) == [1, 2]
    for record in blocked.values():
        if record.futex_addr is not None:
            assert record.tid in pinball.futex_waiters[record.futex_addr]
        else:
            assert record.tid in pinball.channel_waiters[record.wait_channel]
    assert blocked[1].wait_channel is not None
    assert blocked[2].futex_addr is not None
    assert replay(pinball).diverged is None
    # the queues are what the wake relies on
    lost = dataclasses.replace(pinball, futex_waiters={})
    assert replay(lost).diverged.kind == "syscall-result"


def test_multithreaded_log_and_replay():
    from repro.workloads import ProgramBuilder, PhaseSpec

    builder = ProgramBuilder(
        name="mt", threads=4,
        phases=[PhaseSpec("compute", 2000, buffer_kb=16),
                PhaseSpec("stream", 2000, buffer_kb=16)],
    )
    image = builder.build()
    region = RegionSpec(start=8000, length=20000, name="mt.r0")
    pinball = log_region(image, region, seed=3)
    assert pinball.num_threads >= 2
    result = replay(pinball)
    assert result.matches_recording
    assert result.total_icount == sum(
        t.region_icount for t in pinball.threads
    )


def test_multithreaded_replay_repeatable():
    from repro.workloads import ProgramBuilder, PhaseSpec

    builder = ProgramBuilder(
        name="mt2", threads=4,
        phases=[PhaseSpec("pointer_chase", 3000, buffer_kb=16)],
    )
    image = builder.build()
    region = RegionSpec(start=5000, length=15000)
    pinball = log_region(image, region, seed=11)
    a = replay(pinball, seed=1)
    b = replay(pinball, seed=2)
    assert a.diverged is None and b.diverged is None
    assert a.thread_icounts == b.thread_icounts
