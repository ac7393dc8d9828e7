"""Fidelity fuzzing: randomized PX workloads through the round-trip.

``generate_case`` derives a randomized workload — threads, self-
modifying stores, mmap churn, file reads, syscalls, mid-block PMU
traps, multi-block loops — from a seed, and ``run_case`` drives it through the full
record -> constrained replay -> ELFie pipeline under the differential
verifier.  ``fuzz`` loops generation under a wall-clock budget;
``minimize_case`` shrinks a failing case (fewer features, threads,
iterations, a smaller region) while it still fails, producing the
minimal seed that is persisted into the regression corpus.

Everything is deterministic in the case description: the same
:class:`FuzzCase` always builds the same program and the same region,
so corpus replays are exact.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.pinball2elf import Pinball2Elf, Pinball2ElfOptions
from repro.machine.cpu import set_default_dispatch
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.logger import LogOptions, log_region
from repro.pinplay.regions import RegionSpec
from repro.pinplay.sysstate import extract_sysstate
from repro.verify.verifier import (
    FidelityReport,
    verify_elfie_entry,
    verify_pinball,
)
from repro.workloads.compile import build_executable

#: Every generatable workload ingredient.
ALL_FEATURES: Tuple[str, ...] = (
    "arith",      # register arithmetic (always useful filler)
    "syscalls",   # getpid/time/write churn
    "files",      # open/read/lseek against a pre-created input file
    "mmap",       # anonymous mmap + store/load + munmap churn
    "smc",        # copy code into an RWX mapping and call it
    "smcwrite",   # heat the copied code hot, then overwrite it in place
    "futex",      # worker threads + futex wait/wake handshakes
    "pmu",        # mid-block PMU trap ends the program via a handler
    "loops",      # counted work loops (harvestable back-edge markers)
    "signals",    # rt_sigaction + kill(self) + handler/sigreturn churn
    "pipes",      # pipe() write/read round-trips through a channel
    "shm",        # SysV shmget/shmat/store/shmdt (sometimes leaked)
    "aslr",       # load the image at a randomized base (not an action:
                  # the whole pipeline runs with an ASLR slide)
    "ifloops",    # counted if/else loops with a side exit: hot enough
                  # to run as multi-block compiled loops
)

#: Cases :func:`minimize_case` may try while shrinking one failure.
MINIMIZE_STEPS = 32

_INPUT_PATH = "/fuzz_in.dat"
_INPUT_BYTES = bytes((7 * i + 3) & 0xFF for i in range(64))


@dataclass(frozen=True)
class FuzzCase:
    """A deterministic description of one fuzz workload + region."""

    seed: int
    threads: int = 1
    iterations: int = 4
    features: Tuple[str, ...] = ("arith",)
    #: Region start as a percentage of the program's total icount.
    region_pos: int = 10
    #: Region length as a percentage of the program's total icount.
    region_len_pct: int = 50
    #: Marker-delimited region: instead of cutting the window on the
    #: percentage icounts directly, snap both boundaries to work-marker
    #: crossings (LoopPoint slice boundaries harvested from the image).
    #: Exercises marker-delimited ELFie regions through the verifier.
    region_marker: bool = False

    @property
    def name(self) -> str:
        return "fuzz-%d" % self.seed

    @property
    def aslr_seed(self) -> Optional[int]:
        """Slide seed for the whole pipeline, or None for base loads.

        Derived from the case seed so corpus replays use the same base
        without widening the persisted JSON schema.
        """
        return self.seed if "aslr" in self.features else None

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "threads": self.threads,
            "iterations": self.iterations,
            "features": list(self.features),
            "region_pos": self.region_pos,
            "region_len_pct": self.region_len_pct,
            "region_marker": self.region_marker,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FuzzCase":
        """The case :meth:`to_json` wrote.  Every key is read and none
        is defaulted: a case missing one raises ValueError naming it,
        rather than replaying a different case than the one pinned."""
        try:
            return cls(
                seed=data["seed"],
                threads=data["threads"],
                iterations=data["iterations"],
                features=tuple(data["features"]),
                region_pos=data["region_pos"],
                region_len_pct=data["region_len_pct"],
                region_marker=data["region_marker"],
            )
        except KeyError as exc:
            raise ValueError("fuzz case lacks key %s" % exc) from None


@dataclass
class FuzzOutcome:
    """What happened when a case went through the round-trip."""

    case: FuzzCase
    ok: bool
    #: Pipeline stage that failed: "build" | "record" | "dispatch" |
    #: "replay" | "elfie" — or "" on success.  "build"/"record" failures
    #: indicate an ungeneratable case (treated as invalid, not a
    #: divergence); "dispatch" is an interpreter-tier divergence (the
    #: selected dispatch tier disagreed with the slow loop).
    stage: str = ""
    detail: str = ""
    report: Optional[FidelityReport] = None

    @property
    def is_divergence(self) -> bool:
        return not self.ok and self.stage in ("dispatch", "replay", "elfie")


def generate_case(seed: int) -> FuzzCase:
    """Derive a randomized case from *seed* (deterministically)."""
    rng = random.Random(seed)
    pool = [f for f in ALL_FEATURES if f != "arith"]
    count = rng.randint(1, min(4, len(pool)))
    features = ("arith",) + tuple(sorted(rng.sample(pool, count)))
    threads = rng.randint(2, 3) if "futex" in features else 1
    iterations = rng.randint(1, 6)
    region_pos = rng.randint(0, 60)
    region_len_pct = rng.randint(10, 90)
    # Marker-delimited regions need harvestable work loops to land on.
    region_marker = "loops" in features and rng.random() < 0.5
    return FuzzCase(
        seed=seed,
        threads=threads,
        iterations=iterations,
        features=features,
        region_pos=region_pos,
        region_len_pct=region_len_pct,
        region_marker=region_marker,
    )


# -- program generation ---------------------------------------------------


def _main_action(feature: str, rng: random.Random, index: int,
                 lines: List[str]) -> None:
    if feature == "arith":
        for _ in range(rng.randint(2, 5)):
            reg = rng.choice(("rbx", "rdx", "r9"))
            lines.append("    %s %s, %d"
                         % (rng.choice(("add", "sub", "xor")), reg,
                            rng.randint(1, 255)))
    elif feature == "syscalls":
        which = rng.choice(("getpid", "time", "write"))
        if which == "getpid":
            lines += ["    mov rax, 39", "    syscall",
                      "    add rbx, rax"]
        elif which == "time":
            lines += ["    mov rax, 201", "    mov rdi, 0", "    syscall",
                      "    add rbx, rax"]
        else:
            lines += ["    mov rax, 1", "    mov rdi, 1",
                      "    mov rsi, msg", "    mov rdx, 4", "    syscall"]
    elif feature == "files":
        if rng.random() < 0.4:
            offset = rng.randrange(0, len(_INPUT_BYTES), 8)
            lines += ["    mov rax, 8          ; lseek(r14, %d, SET)" % offset,
                      "    mov rdi, r14", "    mov rsi, %d" % offset,
                      "    mov rdx, 0", "    syscall"]
        lines += ["    mov rax, 0          ; read(r14, buf, 8)",
                  "    mov rdi, r14", "    mov rsi, buf",
                  "    mov rdx, 8", "    syscall",
                  "    ld rcx, [buf]", "    add rbx, rcx"]
    elif feature == "mmap":
        value = rng.randint(1, 0xFFFF)
        lines += [
            "    mov rax, 9          ; mmap(0, 4096, RW, PRIV|ANON)",
            "    mov rdi, 0", "    mov rsi, 4096", "    mov rdx, 3",
            "    mov r10, 0x22", "    mov r8, -1", "    mov r9, 0",
            "    syscall", "    mov r13, rax",
            "    mov rcx, %d" % value,
            "    st [r13], rcx", "    ld rdx, [r13]", "    add rbx, rdx",
        ]
        if rng.random() < 0.5:
            lines += ["    mov rax, 11         ; munmap",
                      "    mov rdi, r13", "    mov rsi, 4096",
                      "    syscall"]
        else:
            lines += ["    mov rax, 10         ; mprotect(r13, 4096, R)",
                      "    mov rdi, r13", "    mov rsi, 4096",
                      "    mov rdx, 1", "    syscall"]
    elif feature == "signals":
        masked = rng.random() < 0.4
        if masked:
            # Raise while blocked, then unmask: delivery happens at the
            # slice the unblocking sigprocmask ends, not the kill.
            lines += ["    mov rax, 14         ; sigprocmask(BLOCK, usr1)",
                      "    mov rdi, 0", "    mov rsi, blockmask",
                      "    mov rdx, 0", "    syscall"]
        lines += [
            "    mov rax, 39         ; getpid",
            "    syscall",
            "    mov rdi, rax",
            "    mov rsi, 10         ; kill(pid, SIGUSR1)",
            "    mov rax, 62",
            "    syscall",
        ]
        if masked:
            lines += ["    mov rax, 14         ; sigprocmask(UNBLOCK, usr1)",
                      "    mov rdi, 1", "    mov rsi, blockmask",
                      "    mov rdx, 0", "    syscall"]
        lines += ["    ld rdx, [signote]", "    add rbx, rdx"]
    elif feature == "pipes":
        chunk = rng.randint(1, 4)
        lines += [
            "    mov rcx, pipefds",
            "    ld4 rdi, [rcx+4]    ; write end",
            "    mov rax, 1",
            "    mov rsi, msg",
            "    mov rdx, %d" % chunk,
            "    syscall",
            "    mov rcx, pipefds",
            "    ld4 rdi, [rcx]      ; read end (data queued: no block)",
            "    mov rax, 0",
            "    mov rsi, pipebuf",
            "    mov rdx, %d" % chunk,
            "    syscall",
            "    ld4 rcx, [pipebuf]",
            "    add rbx, rcx",
        ]
    elif feature == "shm":
        value = rng.randint(1, 0xFFFF)
        lines += [
            "    mov rax, 29         ; shmget(IPC_PRIVATE, 4096, CREAT)",
            "    mov rdi, 0", "    mov rsi, 4096", "    mov rdx, 512",
            "    syscall", "    mov r13, rax",
            "    mov rax, 30         ; shmat(shmid, 0, 0)",
            "    mov rdi, r13", "    mov rsi, 0", "    mov rdx, 0",
            "    syscall", "    mov r12, rax",
            "    mov rcx, %d" % value,
            "    st [r12], rcx", "    ld rdx, [r12]", "    add rbx, rdx",
            "    mov rax, 67         ; shmdt(addr)",
            "    mov rdi, r12", "    syscall",
        ]
        if rng.random() < 0.7:
            lines += ["    mov rax, 31         ; shmctl(shmid, IPC_RMID)",
                      "    mov rdi, r13", "    mov rsi, 0",
                      "    mov rdx, 0", "    syscall"]
        # else: leak the detached segment into the region's kernel state
    elif feature == "loops":
        trips = rng.randint(3, 9)
        step = rng.randint(1, 63)
        lines += [
            "    mov rcx, %d" % trips,
            "loop_%d:" % index,
            "    add rbx, %d" % step,
            "    sub rcx, 1",
            "    cmp rcx, 0",
            "    jnz loop_%d" % index,
        ]
    elif feature == "ifloops":
        # The test, both arms, the exit check and the latch form one
        # multi-block loop; its side exit fires mid-count half the time.
        trips = rng.randint(12, 40)
        exit_at = (rng.randint(1, trips - 1) if rng.random() < 0.5
                   else 0)
        odd, even = rng.randint(1, 63), rng.randint(1, 63)
        lines += [
            "    mov rcx, %d" % trips,
            "ifl_top_%d:" % index,
            "    mov rdx, rcx", "    and rdx, 1", "    cmp rdx, 0",
            "    jz ifl_even_%d" % index,
            "    add rbx, %d" % odd,
            "    jmp ifl_next_%d" % index,
            "ifl_even_%d:" % index,
            "    xor rbx, %d" % even,
            "ifl_next_%d:" % index,
            "    cmp rcx, %d" % exit_at,
            "    jz ifl_out_%d" % index,
            "    sub rcx, 1", "    cmp rcx, 0",
            "    jnz ifl_top_%d" % index,
            "ifl_out_%d:" % index,
        ]
    elif feature == "smc":
        lines += [
            "    mov rax, 9          ; mmap(0, 4096, RWX, PRIV|ANON)",
            "    mov rdi, 0", "    mov rsi, 4096", "    mov rdx, 7",
            "    mov r10, 0x22", "    mov r8, -1", "    mov r9, 0",
            "    syscall", "    mov r12, rax",
            "    mov rsi, func", "    mov rdi, r12",
            "    mov rcx, func_end", "    sub rcx, rsi",
            "smc_copy_%d:" % index,
            "    ld1 rdx, [rsi]", "    st1 [rdi], rdx",
            "    add rsi, 1", "    add rdi, 1", "    sub rcx, 1",
            "    cmp rcx, 0", "    jnz smc_copy_%d" % index,
            "    call r12", "    add rbx, rdx",
        ]
    elif feature == "smcwrite":
        # Copy `func` into an RWX mapping, call it enough times to heat
        # the copy into the block cache and the compiled tier, then
        # copy over it again *in place*: every st1 of the second pass
        # writes into a now-executable page, so the interpreter must
        # drop the cached blocks and the compiled body mid-run.
        lines += [
            "    mov rax, 9          ; mmap(0, 4096, RWX, PRIV|ANON)",
            "    mov rdi, 0", "    mov rsi, 4096", "    mov rdx, 7",
            "    mov r10, 0x22", "    mov r8, -1", "    mov r9, 0",
            "    syscall", "    mov r12, rax",
            "    mov rsi, func", "    mov rdi, r12",
            "    mov rcx, func_end", "    sub rcx, rsi",
            "smcw_copy_%d:" % index,
            "    ld1 rdx, [rsi]", "    st1 [rdi], rdx",
            "    add rsi, 1", "    add rdi, 1", "    sub rcx, 1",
            "    cmp rcx, 0", "    jnz smcw_copy_%d" % index,
            "    mov r15, %d" % rng.randint(6, 9),
            "smcw_call_%d:" % index,
            "    call r12", "    add rbx, rdx",
            "    sub r15, 1", "    cmp r15, 0",
            "    jnz smcw_call_%d" % index,
            "    mov rsi, func", "    mov rdi, r12",
            "    mov rcx, func_end", "    sub rcx, rsi",
            "smcw_rw_%d:" % index,
            "    ld1 rdx, [rsi]", "    st1 [rdi], rdx",
            "    add rsi, 1", "    add rdi, 1", "    sub rcx, 1",
            "    cmp rcx, 0", "    jnz smcw_rw_%d" % index,
            "    call r12", "    add rbx, rdx",
        ]


def _program_source(case: FuzzCase) -> Tuple[str, str]:
    """Build (text source, data source) for *case*."""
    rng = random.Random(case.seed * 7919 + 17)
    lines: List[str] = ["_start:", "    mov rbx, %d" % (case.seed & 0xFF)]
    data: List[str] = ["msg:", '    .asciz "fzz\\n"']

    workers = case.threads - 1 if "futex" in case.features else 0
    if "files" in case.features:
        lines += [
            "    mov rax, 2          ; open(input, O_RDONLY)",
            "    mov rdi, inpath", "    mov rsi, 0", "    syscall",
            "    mov r14, rax",
            # consume a prefix now so the region starts mid-file: the
            # descriptor's *real* offset at region start is nonzero.
            "    mov rax, 0", "    mov rdi, r14", "    mov rsi, buf",
            "    mov rdx, 8", "    syscall",
        ]
        data += ["inpath:", '    .asciz "%s"' % _INPUT_PATH,
                 "buf:", "    .zero 16"]
    if "signals" in case.features:
        lines += [
            "    mov rax, 13         ; rt_sigaction(SIGUSR1, sigact, 0)",
            "    mov rdi, 10", "    mov rsi, sigact", "    mov rdx, 0",
            "    syscall",
        ]
        # `.quad sighandler` is an absolute address slot: the builder
        # records it in .pxreloc, so ASLR cases keep a valid handler.
        data += ["sigact:", "    .quad sighandler", "    .quad 0",
                 "signote:", "    .quad 0",
                 "blockmask:", "    .quad 512   ; 1 << (SIGUSR1 - 1)"]
    if "pipes" in case.features:
        lines += [
            "    mov rax, 22         ; pipe(pipefds)",
            "    mov rdi, pipefds", "    syscall",
        ]
        data += ["pipefds:", "    .quad 0",
                 "pipebuf:", "    .zero 16"]
    for worker in range(workers):
        lines += [
            "    mov rax, 56         ; clone worker %d" % worker,
            "    mov rdi, 0x100",
            "    mov rsi, wstack%d_top" % worker,
            "    mov rdx, worker%d" % worker,
            "    syscall",
        ]
        data += ["wflag%d:" % worker, "    .quad 0",
                 "    .zero 2048", "wstack%d_top:" % worker,
                 "    .quad 0"]

    actionable = [f for f in case.features
                  if f not in ("futex", "pmu", "aslr")]
    for index in range(case.iterations * 3):
        _main_action(rng.choice(actionable), rng, index, lines)

    # With workers around, the main thread does one read that can
    # genuinely block — worker 0 feeds the 4 bytes from its epilogue —
    # exercising the blocking-read park/re-execute path mid-program.
    if workers and "pipes" in case.features:
        lines += [
            "    mov rcx, pipefds",
            "    ld4 rdi, [rcx]      ; blocking read: worker 0 feeds it",
            "    mov rax, 0",
            "    mov rsi, pipebuf",
            "    mov rdx, 4",
            "    syscall",
            "    ld4 rcx, [pipebuf]",
            "    add rbx, rcx",
        ]

    # Join the workers: futex-wait until each posts its flag.
    for worker in range(workers):
        lines += [
            "wait%d:" % worker,
            "    ld4 rcx, [wflag%d]" % worker,
            "    cmp rcx, 0",
            "    jnz joined%d" % worker,
            "    mov rax, 202        ; futex(WAIT, wflag, 0)",
            "    mov rdi, wflag%d" % worker,
            "    mov rsi, 0", "    mov rdx, 0", "    syscall",
            "    jmp wait%d" % worker,
            "joined%d:" % worker,
            "    add rbx, rcx",
        ]

    if "pmu" in case.features:
        threshold = 16 + (case.seed % 23)  # lands mid-way through spin
        lines += [
            "    mov rax, 298        ; perf_event_open(INSTR, %d)" % threshold,
            "    mov rdi, 0", "    mov rsi, %d" % threshold,
            "    mov rdx, finish", "    syscall",
            "spin:",
            "    add rbx, 1", "    add rbx, 1", "    add rbx, 1",
            "    add rbx, 1", "    add rbx, 1",
            "    jmp spin",
        ]
    lines += [
        "finish:",
        "    mov rdi, rbx",
        "    and rdi, 0xff",
        "    mov rax, 231        ; exit_group(checksum)",
        "    syscall",
    ]
    for worker in range(workers):
        spins = 5 + 3 * worker + (case.seed % 7)
        if worker == 0 and ("signals" in case.features
                            or "pipes" in case.features):
            # Long enough that the main thread usually reaches its
            # blocking read / join futex wait first, so the epilogue's
            # pokes land on a genuinely parked thread.
            spins += 40
        lines += [
            "worker%d:" % worker,
            "    mov rcx, %d" % spins,
            "wloop%d:" % worker,
            "    add rdx, 3", "    sub rcx, 1", "    cmp rcx, 0",
            "    jnz wloop%d" % worker,
        ]
        if worker == 0:
            # Worker 0's epilogue pokes the main thread: a cross-thread
            # signal that can land while main sits in its join futex
            # wait (the -EINTR + handler + restart path), and the pipe
            # bytes that satisfy main's blocking read.
            if "signals" in case.features:
                lines += [
                    "    mov rax, 200        ; tkill(main, SIGUSR1)",
                    "    mov rdi, 0",
                    "    mov rsi, 10",
                    "    syscall",
                ]
            if "pipes" in case.features:
                lines += [
                    "    mov rcx, pipefds",
                    "    ld4 rdi, [rcx+4]",
                    "    mov rax, 1          ; feed main's blocking read",
                    "    mov rsi, msg",
                    "    mov rdx, 4",
                    "    syscall",
                ]
        lines += [
            "    mov rcx, 1",
            "    st4 [wflag%d], rcx" % worker,
            "    mov rax, 202        ; futex(WAKE, wflag, 1)",
            "    mov rdi, wflag%d" % worker,
            "    mov rsi, 1", "    mov rdx, 1", "    syscall",
            "    mov rax, 60         ; exit(0)",
            "    mov rdi, 0", "    syscall",
        ]
    if "signals" in case.features:
        # Registers are frame-saved/restored around delivery, so the
        # handler reports through memory; rdi holds the signal number.
        lines += [
            "sighandler:",
            "    ld rcx, [signote]",
            "    add rcx, rdi",
            "    st [signote], rcx",
            "    mov rax, 15         ; rt_sigreturn",
            "    syscall",
        ]
    if "smc" in case.features or "smcwrite" in case.features:
        lines += [
            "func:",
            "    mov rdx, 11",
            "    add rdx, rbx",
            "    and rdx, 0xff",
            "    ret",
            "func_end:",
            "    nop",
        ]
    return "\n".join(lines), "\n".join(data)


def _case_fs(case: FuzzCase) -> FileSystem:
    fs = FileSystem()
    if "files" in case.features:
        fs.create(_INPUT_PATH, _INPUT_BYTES)
    return fs


def build_case(case: FuzzCase) -> Tuple[bytes, FileSystem]:
    """Assemble the case's program; returns (ELF image, input fs)."""
    source, data = _program_source(case)
    return build_executable(source, data_source=data), _case_fs(case)


def _measure(image: bytes, fs: FileSystem, seed: int,
             aslr_seed: Optional[int] = None) -> Optional[int]:
    """Total icount of a clean native run, or None if it misbehaves."""
    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, aslr_seed=aslr_seed)
    status = machine.run(max_instructions=2_000_000)
    if status.kind != "exit":
        return None
    return machine.executed_total


def _pick_marker_region(case: FuzzCase, image: bytes, fs: FileSystem,
                        seed: int) -> Optional[RegionSpec]:
    """A region whose boundaries land on work-marker crossings.

    Harvests the image's loop markers, profiles marker-delimited slices
    (a small slice granule — fuzz loops are short), and snaps the
    percentage window to slice boundaries: the start is a slice start,
    the end an *interior* slice boundary, so both edges are exact
    work-loop crossing counts the LoopPoint replay meter can find.

    Profiling always runs at the link-time base: an ASLR slide changes
    addresses, never control flow, so marker icounts are base-invariant.
    """
    from repro.looppoint.profile import collect_looppoint
    profile = collect_looppoint(image, slice_markers=4, seed=seed, fs=fs)
    slices = profile.slices
    if len(slices) < 2:
        return None  # loop-free: no interior marker boundary to cut at
    start_index = min(case.region_pos * len(slices) // 100,
                      len(slices) - 2)
    start = slices[start_index].start_icount
    target = max(1, profile.total_icount * case.region_len_pct // 100)
    end_index = start_index
    while (end_index < len(slices) - 2
           and slices[end_index].end_icount - start < target):
        end_index += 1
    length = slices[end_index].end_icount - start
    if length < 4:
        return None
    return RegionSpec(start=start, length=length, warmup=0,
                      name=case.name)


def _pick_region(case: FuzzCase, total: int) -> Optional[RegionSpec]:
    if total < 16:
        return None
    start = min(total * case.region_pos // 100, total - 8)
    length = max(8, total * case.region_len_pct // 100)
    length = min(length, total - start - 1)
    if length < 4:
        start = 0
        length = max(8, total // 2)
    return RegionSpec(start=start, length=length, warmup=0,
                      name=case.name)


def _dispatch_divergence(case: FuzzCase, image: bytes, seed: int,
                         dispatch: str) -> str:
    """Arch-state diff between the selected tier and the slow loop.

    Runs the case natively twice — once per tier, each on a fresh
    filesystem — and compares exit status plus every thread's retired
    counters and final registers.  A non-empty string is the divergence
    detail; bit-identity across dispatch tiers is the fast path's
    ground-truth contract.
    """
    states = {}
    for tier in (dispatch, "slow"):
        prev = set_default_dispatch(tier)
        try:
            machine = Machine(seed=seed, fs=_case_fs(case))
            load_elf(machine, image, aslr_seed=case.aslr_seed)
            status = machine.run(max_instructions=2_000_000)
        finally:
            set_default_dispatch(prev)
        states[tier] = (status.kind, status.code, tuple(sorted(
            (t.tid, t.icount, t.cycles, t.branches, t.llc_misses,
             tuple(t.regs.gpr), t.regs.rip, t.regs.flags.to_word())
            for t in machine.threads.values())))
    if states[dispatch] != states["slow"]:
        return ("architectural state diverged between %r and slow "
                "dispatch" % dispatch)
    return ""


def run_case(case: FuzzCase, seed: int = 0, check_elfie: bool = True,
             dispatch: Optional[str] = None) -> FuzzOutcome:
    """Drive one case through record -> replay -> ELFie verification.

    With *dispatch*, every Machine in the pipeline runs on that dispatch
    tier, and the case is first cross-checked tier-vs-slow natively
    (stage "dispatch" on mismatch).
    """
    if dispatch is not None:
        previous = set_default_dispatch(dispatch)
        try:
            if dispatch != "slow":
                try:
                    image, _ = build_case(case)
                except Exception as exc:
                    return FuzzOutcome(case=case, ok=False, stage="build",
                                       detail=str(exc))
                detail = _dispatch_divergence(case, image, seed, dispatch)
                if detail:
                    return FuzzOutcome(case=case, ok=False,
                                       stage="dispatch", detail=detail)
            return run_case(case, seed=seed, check_elfie=check_elfie)
        finally:
            set_default_dispatch(previous)
    try:
        image, fs = build_case(case)
    except Exception as exc:  # generator produced unassemblable code
        return FuzzOutcome(case=case, ok=False, stage="build",
                           detail=str(exc))
    total = _measure(image, fs, seed, aslr_seed=case.aslr_seed)
    if total is None:
        return FuzzOutcome(case=case, ok=False, stage="build",
                           detail="native run did not exit gracefully")
    if case.region_marker:
        region = _pick_marker_region(case, image, _case_fs(case), seed)
        if region is None:
            return FuzzOutcome(case=case, ok=False, stage="build",
                               detail="no interior work-marker boundary "
                                      "for a marker-delimited region")
    else:
        region = _pick_region(case, total)
        if region is None:
            return FuzzOutcome(case=case, ok=False, stage="build",
                               detail="program too short (%d instructions)"
                               % total)
    try:
        pinball = log_region(image, region, seed=seed, fs=_case_fs(case),
                             options=LogOptions(name=case.name),
                             aslr_seed=case.aslr_seed)
    except Exception as exc:
        return FuzzOutcome(case=case, ok=False, stage="record",
                           detail=str(exc))

    report = verify_pinball(image, pinball, seed=seed, fs=_case_fs(case),
                            aslr_seed=case.aslr_seed)
    if not report.ok:
        return FuzzOutcome(case=case, ok=False, stage="replay",
                           detail=str(report.divergence), report=report)

    if check_elfie:
        state = extract_sysstate(pinball)
        elfie_fs = _case_fs(case)
        workdir = state.write_to(elfie_fs)
        artifact = Pinball2Elf(
            pinball, Pinball2ElfOptions(sysstate=state)).convert()
        entry = verify_elfie_entry(artifact.image, pinball, seed=seed,
                                   fs=elfie_fs, workdir=workdir)
        if not entry.ok:
            return FuzzOutcome(case=case, ok=False, stage="elfie",
                               detail=entry.detail, report=report)
    return FuzzOutcome(case=case, ok=True, report=report)


def aslr_invariance(case: FuzzCase, aslr_seed: int,
                    seed: int = 0) -> FuzzOutcome:
    """Check that region selection and replay are invariant to the base.

    Builds *case*'s workload once, selects one icount window, and
    captures it twice — at the link base and at the ``aslr_seed`` slide.
    The slid capture must replay bit-identically against its own native
    run (the lockstep digest verifier), and the two captures must
    describe the same architectural work: same tids, same per-thread
    region icounts, every thread's entry rip displaced by exactly the
    slide, and the same in-region syscall sequence.
    """
    from repro.machine.loader import aslr_slide
    from repro.pinplay.replayer import replay

    try:
        image, _ = build_case(case)
    except Exception as exc:
        return FuzzOutcome(case=case, ok=False, stage="build",
                           detail=str(exc))
    totals = [_measure(image, _case_fs(case), seed, aslr_seed=aslr)
              for aslr in (None, aslr_seed)]
    if None in totals:
        return FuzzOutcome(case=case, ok=False, stage="build",
                           detail="native run did not exit gracefully")
    if totals[0] != totals[1]:
        return FuzzOutcome(
            case=case, ok=False, stage="aslr",
            detail="whole-run icount not slide-invariant: %d at base, "
                   "%d slid" % (totals[0], totals[1]))
    region = _pick_region(case, totals[0])
    if region is None:
        return FuzzOutcome(case=case, ok=False, stage="build",
                           detail="program too short (%d instructions)"
                           % totals[0])
    pinballs = []
    for aslr in (None, aslr_seed):
        try:
            pinball = log_region(image, region, seed=seed,
                                 fs=_case_fs(case),
                                 options=LogOptions(name=case.name),
                                 aslr_seed=aslr)
        except Exception as exc:
            return FuzzOutcome(case=case, ok=False, stage="record",
                               detail=str(exc))
        result = replay(pinball)
        if result.diverged is not None:
            return FuzzOutcome(case=case, ok=False, stage="replay",
                               detail=str(result.diverged))
        pinballs.append(pinball)
    report = verify_pinball(image, pinballs[1], seed=seed,
                            fs=_case_fs(case), aslr_seed=aslr_seed)
    if not report.ok:
        return FuzzOutcome(case=case, ok=False, stage="replay",
                           detail=str(report.divergence), report=report)
    slide = aslr_slide(aslr_seed)
    plain, slid = pinballs
    base_threads = {t.tid: t for t in plain.threads}
    slid_threads = {t.tid: t for t in slid.threads}
    if sorted(base_threads) != sorted(slid_threads):
        return FuzzOutcome(case=case, ok=False, stage="aslr",
                           detail="captured thread sets differ across bases")
    for tid, base_thread in base_threads.items():
        other = slid_threads[tid]
        if base_thread.region_icount != other.region_icount:
            return FuzzOutcome(
                case=case, ok=False, stage="aslr",
                detail="tid %d region icount differs across bases: "
                       "%d vs %d" % (tid, base_thread.region_icount,
                                     other.region_icount))
        if base_thread.regs.rip + slide != other.regs.rip:
            return FuzzOutcome(
                case=case, ok=False, stage="aslr",
                detail="tid %d entry rip not displaced by the slide: "
                       "0x%x vs 0x%x (slide 0x%x)"
                       % (tid, base_thread.regs.rip, other.regs.rip, slide))
    base_calls = [(r.tid, r.number) for r in plain.syscalls]
    slid_calls = [(r.tid, r.number) for r in slid.syscalls]
    if base_calls != slid_calls:
        return FuzzOutcome(case=case, ok=False, stage="aslr",
                           detail="in-region syscall sequence differs "
                                  "across bases")
    return FuzzOutcome(case=case, ok=True, report=report)


# -- minimization ------------------------------------------------------------


def _reductions(case: FuzzCase) -> List[FuzzCase]:
    """Candidate simpler cases, most aggressive first."""
    out: List[FuzzCase] = []
    for feature in case.features:
        if feature == "arith":
            continue
        smaller = tuple(f for f in case.features if f != feature)
        candidate = replace(case, features=smaller)
        if "futex" not in smaller:
            candidate = replace(candidate, threads=1)
        out.append(candidate)
    if case.threads > 2:
        out.append(replace(case, threads=case.threads - 1))
    if case.iterations > 1:
        out.append(replace(case, iterations=case.iterations // 2))
    if case.region_marker:
        out.append(replace(case, region_marker=False))
    if case.region_pos > 0:
        out.append(replace(case, region_pos=0))
    if case.region_len_pct < 100:
        out.append(replace(case, region_len_pct=100))
    return out


def minimize_case(case: FuzzCase, seed: int = 0,
                  dispatch: Optional[str] = None) -> FuzzCase:
    """Greedily shrink a failing case while it keeps failing."""
    outcome = run_case(case, seed=seed, dispatch=dispatch)
    if outcome.ok:
        return case
    steps = 0
    changed = True
    while changed and steps < MINIMIZE_STEPS:
        changed = False
        for candidate in _reductions(case):
            steps += 1
            if not run_case(candidate, seed=seed,
                            dispatch=dispatch).is_divergence:
                continue
            case = candidate
            changed = True
            break
    return case


# -- the fuzz loop ------------------------------------------------------------


@dataclass
class FuzzSummary:
    """Aggregate result of one fuzz campaign."""

    cases_run: int = 0
    invalid: int = 0
    failures: List[FuzzOutcome] = field(default_factory=list)
    minimized: Dict[int, FuzzCase] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _load_fuzz_checkpoint(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _save_fuzz_checkpoint(path: str, next_seed: int,
                          summary: FuzzSummary) -> None:
    state = {
        "next_seed": next_seed,
        "cases_run": summary.cases_run,
        "invalid": summary.invalid,
        "failures": [{"case": outcome.case.to_json(),
                      "stage": outcome.stage,
                      "detail": outcome.detail}
                     for outcome in summary.failures],
        "minimized": {str(seed): case.to_json()
                      for seed, case in summary.minimized.items()},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(state, handle, indent=1)
    os.replace(tmp, path)


def fuzz(time_budget: float = 30.0, start_seed: int = 0,
         max_cases: Optional[int] = None, seed: int = 0,
         minimize: bool = True,
         checkpoint_path: Optional[str] = None,
         dispatch: Optional[str] = None) -> FuzzSummary:
    """Generate and verify cases until the wall-clock budget expires.

    Failing cases are minimized (when *minimize* is set) and collected;
    the CLI persists them into the regression corpus.  *dispatch* pins
    every pipeline Machine to one dispatch tier and adds a native
    tier-vs-slow cross-check per case.

    With *checkpoint_path*, the campaign persists its progress (next
    seed, counters, failures) to that JSON file after every case and
    resumes from it on the next invocation — and it also polls the
    process preemption context so a draining worker's SIGTERM ends the
    campaign at a case boundary with the checkpoint current.
    """
    obs = hooks.OBS
    summary = FuzzSummary()
    case_seed = start_seed
    if checkpoint_path:
        state = _load_fuzz_checkpoint(checkpoint_path)
        if state is not None:
            case_seed = int(state.get("next_seed", start_seed))
            summary.cases_run = int(state.get("cases_run", 0))
            summary.invalid = int(state.get("invalid", 0))
            for record in state.get("failures", []):
                failed = FuzzCase.from_json(record["case"])
                summary.failures.append(FuzzOutcome(
                    case=failed, ok=False, stage=record["stage"],
                    detail=record["detail"]))
            for key, value in state.get("minimized", {}).items():
                summary.minimized[int(key)] = FuzzCase.from_json(value)
    deadline = time.monotonic() + time_budget
    while time.monotonic() < deadline:
        if max_cases is not None and summary.cases_run >= max_cases:
            break
        if checkpoint_path:
            from repro.snapshot import preempt
            if preempt.requested():
                break  # drain: the checkpoint already holds the progress
        case = generate_case(case_seed)
        case_seed += 1
        outcome = run_case(case, seed=seed, dispatch=dispatch)
        summary.cases_run += 1
        if obs.enabled:
            obs.count("verify.fuzz_cases")
        if outcome.ok:
            pass
        elif not outcome.is_divergence:
            summary.invalid += 1
        else:
            if obs.enabled:
                obs.count("verify.fuzz_failures")
                obs.instant("verify.fuzz_failure", "verify",
                            case=case.to_json(), stage=outcome.stage,
                            detail=outcome.detail)
            if minimize:
                summary.minimized[case.seed] = minimize_case(
                    case, seed=seed, dispatch=dispatch)
            summary.failures.append(outcome)
        if checkpoint_path:
            _save_fuzz_checkpoint(checkpoint_path, case_seed, summary)
    return summary
