"""Irregular multi-threaded workloads for LoopPoint evaluation.

The SPMD builder in :mod:`repro.workloads.builder` models OpenMP-style
programs: every thread runs the same phase schedule between barriers.
LoopPoint's motivation is the workloads that model does *not* cover —
programs whose threads make unequal, schedule-dependent progress, so a
global instruction count is a poor clock.  This module generates three
such shapes directly as PX assembly:

``producer_consumer``
    One producer publishes items into a buffer; consumer threads claim
    items with an atomic ticket counter and pause-spin until their item
    is published.  Item processing dispatches on the item index to one
    of three kernels with very different CPI (integer mixing, divide
    chains, scattered memory chases), so the program has real phases.
    A ``spin_delay`` knob inserts a pause-loop in the producer between
    items: raising it stretches the consumers' wait time without adding
    a single instruction of real work, which is the scenario where
    instruction counts mislead and marker counts do not.

``barrier_phases``
    SPMD phases separated by active-wait barriers; phases cycle through
    the three kernels, and a *straggler* (thread 0 running a
    ``spin_delay`` pause-loop before each barrier) makes every other
    thread spin proportionally longer.  Again the real work is
    independent of the knob.

``work_stealing``
    Threads race on a shared task counter (xadd); a task's kernel and
    size depend irregularly on its index, so the per-thread work split
    is schedule-dependent.  Finished workers futex-wake the main
    thread, which futex-waits on per-worker completion flags.

All three keep the machine's deterministic-scheduling invariant: for a
fixed seed the interleaving, and therefore every profile, is exactly
reproducible — while *across* seeds the spin time (and therefore every
icount-based boundary) shifts, which is what the LoopPoint-vs-SimPoint
benchmark measures.  The synchronization idioms are the ones the
LoopPoint harvester classifies as *sync* (``pause`` spin bodies, futex
wait loops), so varying ``spin_delay`` must leave the work-marker
vectors near-identical — that property is tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.workloads.compile import build_executable

#: Same input-set scaling the SPEC-like suites use.
from repro.workloads.spec import INPUT_SCALES

#: Mixing constants for the integer work loops (splitmix64 / MMIX).
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 6364136223846793005
_MIX_C = 1442695040888963407

_DATA_BASE = 0x600000
_STACK_BYTES = 8192
#: Shared scatter buffer for the memory-chase kernel (power of two).
_WBUF_BYTES = 1 << 16
_WBUF_MASK = (_WBUF_BYTES // 8) - 1


def _spawn(worker: int, entry: str) -> List[str]:
    """Clone one worker thread onto its generated stack."""
    return [
        "    mov rax, 56",
        "    mov rdi, 0x100",
        "    mov rsi, wstack_%d_top" % worker,
        "    mov rdx, %s" % entry,
        "    syscall",
    ]


def _stack_data(worker: int) -> List[str]:
    return ["wstack_%d:" % worker,
            "    .zero %d" % _STACK_BYTES,
            "wstack_%d_top:" % worker,
            "    .quad 0"]


def _pause_delay(label: str, count: int) -> List[str]:
    """A pure pause-spin delay loop; harvested as a *spin* marker.

    Emitted even for ``count == 0`` (skipped at runtime) so the static
    marker map — and every marker offset — is identical across
    ``spin_delay`` values; only dynamic spin time varies.
    """
    return [
        "    mov rcx, %d" % count,
        "    cmp rcx, 0",
        "    jz %s_done" % label,
        "%s:" % label,
        "    pause",
        "    sub rcx, 1",
        "    cmp rcx, 0",
        "    jnz %s" % label,
        "%s_done:" % label,
    ]


# -- the three work kernels (distinct CPI; all are *work* markers) ----------


def _mix_loop(label: str) -> List[str]:
    """Register-only integer mixing; CPI near 1."""
    return [
        "%s:" % label,
        "    imul rbx, %d" % _MIX_B,
        "    add rbx, %d" % _MIX_C,
        "    mov rdx, rbx",
        "    shr rdx, 33",
        "    xor rbx, rdx",
        "    sub rcx, 1",
        "    cmp rcx, 0",
        "    jnz %s" % label,
    ]


def _div_loop(label: str) -> List[str]:
    """Integer-division chain; very high CPI."""
    return [
        "    mov rax, 0xfffffffffffffffb",
        "%s:" % label,
        "    mov rbx, rcx",
        "    add rbx, 3",
        "    div rax, rbx",
        "    add rax, %d" % _MIX_C,
        "    sub rcx, 1",
        "    cmp rcx, 0",
        "    jnz %s" % label,
    ]


def _chase_loop(label: str) -> List[str]:
    """LCG-scattered loads/stores over the shared buffer; miss-bound
    CPI between the other two."""
    return [
        "    mov rsi, wbuf",
        "%s:" % label,
        "    imul rbx, 2862933555777941757",
        "    add rbx, 3037000493",
        "    mov rdx, rbx",
        "    shr rdx, 17",
        "    and rdx, %d" % _WBUF_MASK,
        "    shl rdx, 3",
        "    add rdx, rsi",
        "    ld rax, [rdx]",
        "    add rax, 1",
        "    st [rdx], rax",
        "    sub rcx, 1",
        "    cmp rcx, 0",
        "    jnz %s" % label,
    ]


_KERNELS = (_mix_loop, _div_loop, _chase_loop)


def _dispatch_work(prefix: str, count: Optional[int],
                   index_reg: str) -> List[str]:
    """Run ``count`` iterations of the kernel picked by ``index_reg & 3``
    (0, 1 -> mix; 2 -> divide; 3 -> chase): runtime-irregular work.
    ``count=None`` means the caller already loaded rcx."""
    lines = ([] if count is None else ["    mov rcx, %d" % count]) + [
        "    mov rbx, %s" % index_reg,
        "    add rbx, %d" % _MIX_A,
        "    mov rdx, %s" % index_reg,
        "    and rdx, 3",
        "    cmp rdx, 2",
        "    jl %s_mix_entry" % prefix,
        "    jz %s_div_entry" % prefix,
        "    jmp %s_chase_entry" % prefix,
        "%s_mix_entry:" % prefix,
    ]
    lines += _mix_loop("%s_mix" % prefix)
    lines += ["    jmp %s_done" % prefix, "%s_div_entry:" % prefix]
    lines += _div_loop("%s_div" % prefix)
    lines += ["    jmp %s_done" % prefix, "%s_chase_entry:" % prefix]
    lines += _chase_loop("%s_chase" % prefix)
    lines += ["%s_done:" % prefix]
    return lines


def _futex_join(workers: int) -> List[str]:
    """Main-thread join: futex-wait until each worker posts its flag.

    The wait loop body contains ``mov rax, 202`` + ``syscall``, the
    futex idiom the harvester classifies as *futex* sync.
    """
    lines: List[str] = []
    for worker in range(1, workers + 1):
        lines += [
            "join_wait_%d:" % worker,
            "    ld rax, [dflag_%d]" % worker,
            "    cmp rax, 0",
            "    jnz join_done_%d" % worker,
            "    mov rax, 202",
            "    mov rdi, dflag_%d" % worker,
            "    mov rsi, 0",
            "    mov rdx, 0",
            "    syscall",
            "    jmp join_wait_%d" % worker,
            "join_done_%d:" % worker,
        ]
    return lines


def _worker_exit_via_flag() -> List[str]:
    """Worker epilogue: post the per-thread flag (indexed by r15) and
    futex-wake the joiner, then exit."""
    return [
        "    mov rdi, dflag_0",
        "    mov rax, r15",
        "    shl rax, 3",
        "    add rdi, rax",
        "    mov rcx, 1",
        "    st [rdi], rcx",
        "    mov rax, 202",
        "    mov rsi, 1",
        "    mov rdx, 1",
        "    syscall",
        "    mov rax, 60",
        "    mov rdi, 0",
        "    syscall",
    ]


def _flag_data(workers: int) -> List[str]:
    # Contiguous 8-byte flags so workers can index them by thread id.
    lines = []
    for worker in range(workers + 1):
        lines += ["dflag_%d:" % worker, "    .quad 0"]
    return lines


def _common_data(app: "MTApp") -> List[str]:
    data = ["wbuf:", "    .zero %d" % _WBUF_BYTES]
    data += _flag_data(app.threads - 1)
    for worker in range(1, app.threads):
        data += _stack_data(worker)
    return data


# ---------------------------------------------------------------------------
# producer / consumer


def _producer_consumer(app: "MTApp", scale: float) -> Tuple[str, str]:
    items = max(1, int(app.items * scale))
    work = max(1, int(app.work_iters * scale))
    consumers = app.threads - 1
    code: List[str] = ["_start:"]
    for worker in range(1, app.threads):
        code += _spawn(worker, "consumer_%d" % worker)
    code += ["    mov r15, 0",
             "    mov r14, 0"]
    # producer: publish `items` items, each preceded by real work and
    # followed by the spin_delay pause loop (sync, not work)
    code += [
        "prod_loop:",
        "    cmp r14, %d" % items,
        "    jae prod_done",
        "    mov rcx, %d" % work,
        "    mov rbx, r14",
        "    add rbx, %d" % _MIX_A,
    ]
    code += _chase_loop("prod_work")
    code += _pause_delay("prod_delay", app.spin_delay)
    code += [
        "    mov rdi, published",
        "    mov rax, 1",
        "    xadd [rdi], rax",
        "    add r14, 1",
        "    jmp prod_loop",
        "prod_done:",
    ]
    code += _futex_join(consumers)
    code += ["    mov rax, 231", "    mov rdi, 0", "    syscall"]

    for worker in range(1, app.threads):
        code += [
            "consumer_%d:" % worker,
            "    mov r15, %d" % worker,
            "cons_loop_%d:" % worker,
            "    mov rdi, claim",
            "    mov rax, 1",
            "    xadd [rdi], rax",
            "    cmp rax, %d" % items,
            "    jae cons_done_%d" % worker,
            "    mov r13, rax",
            "    add r13, 1",
            # pause-spin until the claimed item is published (sync)
            "cons_wait_%d:" % worker,
            "    ld rcx, [published]",
            "    cmp rcx, r13",
            "    jae cons_go_%d" % worker,
            "    pause",
            "    jmp cons_wait_%d" % worker,
            "cons_go_%d:" % worker,
        ]
        code += _dispatch_work("cons_%d" % worker, work, "r13")
        code += ["    jmp cons_loop_%d" % worker,
                 "cons_done_%d:" % worker]
        code += _worker_exit_via_flag()

    data: List[str] = ["claim:", "    .quad 0",
                       "published:", "    .quad 0"]
    data += _common_data(app)
    return "\n".join(code), "\n".join(data)


# ---------------------------------------------------------------------------
# barrier phases with a straggler


def _barrier_phases(app: "MTApp", scale: float) -> Tuple[str, str]:
    iters = max(1, int(app.work_iters * scale))
    code: List[str] = ["_start:"]
    for worker in range(1, app.threads):
        code += _spawn(worker, "bworker_%d" % worker)
    code += ["    mov r15, 0", "    jmp bbody"]
    for worker in range(1, app.threads):
        code += ["bworker_%d:" % worker,
                 "    mov r15, %d" % worker,
                 "    jmp bbody"]
    code += ["bbody:"]
    for phase in range(app.phases):
        # cycle the kernels so consecutive phases differ sharply in CPI
        kernel = _KERNELS[phase % len(_KERNELS)]
        phase_iters = iters * (1 + phase % 2)
        code += ["    mov rcx, %d" % phase_iters,
                 "    mov rbx, r15",
                 "    add rbx, %d" % (_MIX_A + phase)]
        code += kernel("ph%d_work" % phase)
        # the straggler: only thread 0 delays, everyone else spins at
        # the barrier for the corresponding extra time
        code += ["    cmp r15, 0",
                 "    jnz ph%d_nodelay" % phase]
        code += _pause_delay("ph%d_straggle" % phase, app.spin_delay)
        code += ["ph%d_nodelay:" % phase,
                 "    call barrier_%d" % phase]
    code += [
        "    cmp r15, 0",
        "    jz bmain_exit",
        "    mov rax, 60",
        "    mov rdi, 0",
        "    syscall",
        "bmain_exit:",
        "    mov rax, 231",
        "    mov rdi, 0",
        "    syscall",
    ]
    for phase in range(app.phases):
        # the builder's active-wait idiom: xadd arrival + pause spin
        code += [
            "barrier_%d:" % phase,
            "    mov rdx, bar_%d_count" % phase,
            "    mov rax, 1",
            "    xadd [rdx], rax",
            "bar_%d_spin:" % phase,
            "    ld rax, [rdx]",
            "    cmp rax, %d" % app.threads,
            "    jae bar_%d_exit" % phase,
            "    pause",
            "    jmp bar_%d_spin" % phase,
            "bar_%d_exit:" % phase,
            "    ret",
        ]
    data: List[str] = []
    for phase in range(app.phases):
        data += ["bar_%d_count:" % phase, "    .quad 0"]
    data += _common_data(app)
    return "\n".join(code), "\n".join(data)


# ---------------------------------------------------------------------------
# work stealing


def _work_stealing(app: "MTApp", scale: float) -> Tuple[str, str]:
    tasks = max(1, int(app.items * scale))
    iters = max(1, int(app.work_iters * scale))
    code: List[str] = ["_start:"]
    for worker in range(1, app.threads):
        code += _spawn(worker, "sworker_%d" % worker)
    code += ["    mov r15, 0", "    jmp steal"]
    for worker in range(1, app.threads):
        code += ["sworker_%d:" % worker,
                 "    mov r15, %d" % worker,
                 "    jmp steal"]
    # shared stealing loop: every thread races on the task counter, and
    # a task's kernel and size depend irregularly on its index, so
    # which thread ends up with how much work is schedule-dependent
    code += [
        "steal:",
        "steal_loop:",
        "    mov rdi, taskctr",
        "    mov rax, 1",
        "    xadd [rdi], rax",
        "    cmp rax, %d" % tasks,
        "    jae steal_done",
        "    mov r13, rax",
    ]
    # claim backoff: a pause-loop after winning the ticket, modelling
    # contention on a shared task queue.  Pure synchronization — the
    # pause body makes the harvester classify both this loop and the
    # enclosing steal_loop as sync, so varying spin_delay perturbs
    # every icount in the program without touching the work markers
    # (the task kernels) or their crossing counts.
    code += _pause_delay("sback", app.spin_delay)
    code += [
        "    mov rcx, r13",
        "    and rcx, 7",
        "    add rcx, 1",
        "    imul rcx, %d" % iters,
    ]
    code += _dispatch_work("task", None, "r13")
    code += [
        "    jmp steal_loop",
        "steal_done:",
        "    cmp r15, 0",
        "    jz smain_join",
    ]
    code += _worker_exit_via_flag()
    code += ["smain_join:"]
    code += _futex_join(app.threads - 1)
    code += ["    mov rax, 231", "    mov rdi, 0", "    syscall"]
    data: List[str] = ["taskctr:", "    .quad 0"]
    data += _common_data(app)
    return "\n".join(code), "\n".join(data)


_GENERATORS = {
    "producer_consumer": _producer_consumer,
    "barrier_phases": _barrier_phases,
    "work_stealing": _work_stealing,
}


@dataclass(frozen=True)
class MTApp:
    """One irregular-MT workload, buildable like a :class:`SpecApp`."""

    name: str
    kind: str                 # key into _GENERATORS
    threads: int = 4
    #: Items (producer/consumer) or tasks (work stealing).
    items: int = 48
    #: Inner work-loop iterations per item / task / phase unit.
    work_iters: int = 160
    #: Barrier-phase count (barrier_phases only).
    phases: int = 6
    #: Pause-loop iterations of pure synchronization delay.  Varying
    #: this changes spin time only — never the work-marker offsets or
    #: the amount of real work.
    spin_delay: int = 0

    def with_spin_delay(self, spin_delay: int) -> "MTApp":
        return replace(self, spin_delay=spin_delay)

    def source(self, input_set: str = "train") -> Tuple[str, str]:
        """(code, data) assembly for an input set."""
        scale = INPUT_SCALES[input_set]
        return _GENERATORS[self.kind](self, scale)

    def build(self, input_set: str = "train") -> bytes:
        code, data = self.source(input_set)
        return build_executable(code, data_source=data + "\n",
                                data_base=_DATA_BASE)


#: The irregular-MT suite; resolvable through ``workloads.get_app``.
MT_APPS: Dict[str, MTApp] = {
    app.name: app
    for app in [
        MTApp(name="mt.prodcons", kind="producer_consumer",
              threads=4, items=48, work_iters=160, spin_delay=40),
        MTApp(name="mt.barrier", kind="barrier_phases",
              threads=4, work_iters=220, phases=6, spin_delay=120),
        MTApp(name="mt.steal", kind="work_stealing",
              threads=4, items=56, work_iters=90, spin_delay=80),
    ]
}
