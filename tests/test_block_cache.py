"""Superblock translation cache: equivalence, invalidation, SMC, PMU.

The fast dispatch path must be architecturally bit-identical to the
per-instruction slow path (which is the reference interpreter), and the
page-granular invalidation protocol must keep cached decodes coherent
with guest-visible memory across self-modifying stores and address-range
reuse through mmap/munmap/mprotect.
"""

import functools
import os
import subprocess
import sys

import pytest

from repro.core.elfie import run_to_marker
from repro.isa.instructions import Op, instruction_size
from repro.machine import Machine, load_elf
from repro.machine import cpu as cpu_module
from repro.machine.compile import COMPILER
from repro.machine.cpu import DISPATCH_TIERS, set_default_dispatch
from repro.machine.memory import PROT_READ
from repro.machine.scheduler import Scheduler
from repro.machine.tool import Tool
from repro.observe import hooks
from repro.simpoint.bbv import _BlockCounter
from repro.snapshot import capture, restore, snapshot_digest
from repro.verify.digest import arch_digest
from repro.workloads import build_executable, run_program


RACY_SOURCE = """
    _start:
        mov rax, 56
        mov rdi, 0x100
        mov rsi, stack_top
        mov rdx, child
        syscall
        mov rcx, 300
    bump:
        ld rbx, [counter]
        add rbx, 1
        st [counter], rbx
        sub rcx, 1
        cmp rcx, 0
        jnz bump
    wait:
        ld rbx, [done_flag]
        cmp rbx, 1
        jnz wait
        ld rdi, [counter]
        and rdi, 0xff
        mov rax, 231
        syscall
    child:
        mov rcx, 300
    bump2:
        ld rbx, [counter]
        add rbx, 1
        st [counter], rbx
        sub rcx, 1
        cmp rcx, 0
        jnz bump2
        mov rbx, 1
        st [done_flag], rbx
        mov rax, 60
        mov rdi, 0
        syscall
"""

RACY_DATA = """
    counter:
        .quad 0
    done_flag:
        .quad 0
    stack:
        .zero 2048
    stack_top:
        .quad 0
"""


def _run(image, seed=0, fast=True, max_instructions=None, tier=None):
    machine = Machine(seed=seed)
    load_elf(machine, image)
    if tier is not None:
        machine.cpu.set_dispatch(tier)
    else:
        machine.cpu.fast_dispatch = fast
    status = machine.run(max_instructions=max_instructions)
    return machine, status


def _arch_state(machine, status):
    return (
        status.kind, status.code, status.signal,
        machine.stdout(),
        tuple(sorted(
            (t.tid, t.icount, t.cycles, t.branches, t.llc_misses)
            for t in machine.threads.values())),
    )


# -- fast path == slow path ---------------------------------------------------


def test_fast_and_slow_paths_are_bit_identical_multithreaded():
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    for seed in range(6):
        fast = _arch_state(*_run(image, seed=seed, fast=True))
        slow = _arch_state(*_run(image, seed=seed, fast=False))
        assert fast == slow


def test_fast_and_slow_paths_agree_on_stdout_and_files():
    image = build_executable(
        """
        _start:
            mov rcx, 5
        again:
            mov rax, 1
            mov rdi, 1
            mov rsi, msg
            mov rdx, 6
            syscall
            sub rcx, 1
            cmp rcx, 0
            jnz again
            mov rax, 231
            mov rdi, 0
            syscall
        msg:
            .ascii "hello\\n"
        """
    )
    fast = _arch_state(*_run(image, fast=True))
    slow = _arch_state(*_run(image, fast=False))
    assert fast == slow
    assert fast[3] == b"hello\n" * 5


def test_bbv_vectors_identical_on_both_paths():
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)

    def profile(force_slow):
        machine = Machine(seed=3)
        load_elf(machine, image)
        counter = _BlockCounter()
        machine.attach(counter)
        if force_slow:
            machine.cpu.fast_dispatch = False
        vectors = []
        index = 0
        while True:
            status = machine.run(max_instructions=(index + 1) * 500)
            vectors.append(counter.take(machine))
            index += 1
            if status.kind != "stopped":
                break
        return vectors

    assert profile(False) == profile(True)


def test_block_counter_matches_per_instruction_reference():
    """The block-only delta counter must reproduce the vectors of the
    classic per-instruction counter (instructions attributed to the most
    recently entered block of the same thread)."""

    class _Reference(Tool):
        wants_instructions = True
        wants_blocks = True

        def __init__(self):
            self.current = {}
            self._open = {}

        def on_basic_block(self, machine, thread, pc):
            self._open[thread.tid] = pc

        def on_instruction(self, machine, thread, pc, insn):
            block = self._open.get(thread.tid)
            if block is not None:
                self.current[block] = self.current.get(block, 0) + 1

        def take(self):
            vector = self.current
            self.current = {}
            return vector

    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)

    def drive(counter, take):
        machine = Machine(seed=1)
        load_elf(machine, image)
        machine.attach(counter)
        vectors = []
        index = 0
        while True:
            status = machine.run(max_instructions=(index + 1) * 400)
            vectors.append(take(machine))
            index += 1
            if status.kind != "stopped":
                break
        return vectors

    reference = _Reference()
    expected = drive(reference, lambda machine: reference.take())
    counter = _BlockCounter()
    got = drive(counter, counter.take)
    assert got == expected


# -- PMU exactness ------------------------------------------------------------


def test_pmu_trap_mid_block_fires_at_exact_icount():
    """A trap armed to land mid-way through a long straight-line block
    must redirect at the exact icount (paper: region boundaries are
    icount-addressed; an off-by-one shifts every Fig 9 region)."""
    threshold = 37
    image = build_executable(
        """
        _start:
            mov rax, 298
            mov rdi, 0
            mov rsi, %d
            mov rdx, handler
            syscall
        spin:
            %s
            jmp spin
        handler:
            mov rax, 334        ; perf_read(INSTRUCTIONS)
            mov rdi, 0
            syscall
            mov rdi, rax
            and rdi, 0xff
            mov rax, 231
            syscall
        """ % (threshold, "\n            ".join(["add rbx, 1"] * 16))
    )
    # perf_event_open handles with icount=4, arming trap_at = 5 + threshold;
    # the handler's perf_read executes 2 instructions after redirect.
    expected_read = 5 + threshold + 2
    for tier in DISPATCH_TIERS:
        machine, status = _run(image, tier=tier)
        assert status.kind == "exit", tier
        assert status.code == expected_read & 0xFF, tier
        assert machine.threads[0].icount == expected_read + 5, tier


def test_pmu_counting_trap_identical_on_both_paths():
    image = build_executable(
        """
        _start:
            mov rax, 298        ; perf_event_open(INSTR, 50, no handler)
            mov rdi, 0
            mov rsi, 50
            mov rdx, 0
            syscall
        forever:
            jmp forever
        """
    )
    fast = _arch_state(*_run(image, fast=True))
    slow = _arch_state(*_run(image, fast=False))
    assert fast == slow


# -- self-modifying code ------------------------------------------------------


def test_host_write_to_code_page_invalidates_cached_decode():
    """Patching an instruction in place through AddressSpace.write must
    be visible to the next fetch (the latent SMC staleness bug)."""
    image = build_executable(
        """
        _start:
        patch_me:
            mov rbx, 5
            cmp rbx, 9
            jnz patch_me
            mov rax, 231
            mov rdi, rbx
            syscall
        """
    )
    machine = Machine(seed=0)
    loaded = load_elf(machine, image)
    status = machine.run(max_instructions=1000)
    assert status.kind == "stopped"  # spinning on the unpatched immediate
    invalidations_before = machine.cpu.block_invalidations
    # Patch the MOV_RI immediate (low byte at opcode+reg offset) in the
    # read-only executable .text, as a debugger would.
    machine.mem.write(loaded.symbols["patch_me"] + 2, b"\x09",
                      access=PROT_READ)
    assert machine.cpu.block_invalidations > invalidations_before
    status = machine.run(max_instructions=200_000)
    assert status.kind == "exit"
    assert status.code == 9


def test_guest_store_patches_code_in_its_own_block():
    """A store that rewrites an instruction *ahead of itself* in the same
    straight-line run must take effect before that instruction executes,
    on both dispatch paths, and on repeated executions."""
    patch_offset = instruction_size(Op.ST1) + 2  # imm low byte of the MOV
    image = build_executable(
        """
        _start:
            mov rax, 9          ; mmap(0, 4096, RWX, ANON, -1, 0)
            mov rdi, 0
            mov rsi, 4096
            mov rdx, 7
            mov r10, 0x22
            mov r8, -1
            mov r9, 0
            syscall
            mov r12, rax
            mov rsi, func
            mov rdi, r12
            mov rcx, func_end
            sub rcx, rsi
        copy:
            ld1 rbx, [rsi]
            st1 [rdi], rbx
            add rsi, 1
            add rdi, 1
            sub rcx, 1
            cmp rcx, 0
            jnz copy
            mov r14, r12
            add r14, %d
            mov r15, 33
            call r12            ; patches itself, returns rbx = 33
            mov r13, rbx
            mov r15, 44
            call r12            ; stale decode would return 33 again
            cmp rbx, r13
            jz stale
            mov rdi, rbx
            mov rax, 231
            syscall
        stale:
            mov rax, 231
            mov rdi, 255
            syscall
        func:
            st1 [r14], r15
            mov rbx, 11
            ret
        func_end:
            nop
        """ % patch_offset
    )
    for tier in DISPATCH_TIERS:
        _, status = _run(image, tier=tier)
        assert status.kind == "exit", tier
        assert status.code == 44, tier


def test_block_cache_invalidation_across_mmap_reuse():
    """mmap -> execute -> munmap -> mmap the same range -> execute new
    code; then mprotect + patch + mprotect back.  Stale blocks at the
    reused entry PC would replay the old code."""
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
            call r12            ; rbx = 1
            mov r13, rbx
            mov rax, 11         ; munmap(r12, 4096)
            mov rdi, r12
            mov rsi, 4096
            syscall
            mov rax, 9          ; mmap the same range again
            mov rdi, 0x30000000
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
            call r12            ; rbx = 2
            add r13, rbx
            mov rax, 10         ; mprotect(r12, 4096, RW)
            mov rdi, r12
            mov rsi, 4096
            mov rdx, 3
            syscall
            mov rbx, 4          ; patch funcb's immediate to 4
            mov r14, r12
            add r14, 2
            st1 [r14], rbx
            mov rax, 10         ; mprotect(r12, 4096, RWX)
            mov rdi, r12
            mov rsi, 4096
            mov rdx, 7
            syscall
            call r12            ; rbx = 4
            add r13, rbx
            mov rax, 231
            mov rdi, r13        ; 1 + 2 + 4
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
    for tier in DISPATCH_TIERS:
        machine, status = _run(image, tier=tier)
        assert status.kind == "exit", tier
        assert status.code == 7, tier
        if tier != "slow":
            assert machine.cpu.block_invalidations > 0, tier


# -- dispatch-path flipping ---------------------------------------------------


def test_attach_detach_flips_dispatch_path_mid_run():
    class _Counter(Tool):
        wants_instructions = True

        def __init__(self):
            self.count = 0

        def on_instruction(self, machine, thread, pc, insn):
            self.count += 1

    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    machine = Machine(seed=2)
    load_elf(machine, image)
    assert machine.cpu.fast_dispatch is True
    machine.run(max_instructions=500)
    assert machine.executed_total == 500

    tool = _Counter()
    machine.attach(tool)
    assert machine.cpu.fast_dispatch is False
    machine.run(max_instructions=1100)
    assert tool.count == 600  # every instruction of the slow window

    machine.detach(tool)
    assert machine.cpu.fast_dispatch is True
    status = machine.run()
    assert tool.count == 600  # fast path never calls on_instruction

    # Budget stops clamp quanta, so the interleaving depends on the stop
    # pattern; replaying the same stops on a single dispatch path must
    # produce the same architectural state as the flipping run.
    def replay(fast):
        reference = Machine(seed=2)
        load_elf(reference, image)
        reference.cpu.fast_dispatch = fast
        reference.run(max_instructions=500)
        reference.run(max_instructions=1100)
        return _arch_state(reference, reference.run())

    assert _arch_state(machine, status) == replay(True) == replay(False)


def test_schedule_trace_accounts_partial_quanta():
    """Recorded slices must sum to the executed icount even when threads
    exit or redirect mid-quantum (replay alignment depends on it)."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    for fast in (True, False):
        machine = Machine(seed=4)
        load_elf(machine, image)
        machine.cpu.fast_dispatch = fast
        machine.scheduler.record = True
        status = machine.run()
        assert status.kind == "exit"
        assert sum(s.quantum for s in machine.scheduler.trace) \
            == machine.executed_total
        assert machine.executed_total == machine.total_icount()


# -- telemetry ----------------------------------------------------------------


def test_block_cache_metrics_are_emitted():
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    with hooks.observed() as obs:
        machine, status = _run(image)
    assert status.kind == "exit"
    counters = obs.metrics.snapshot()["counters"]
    assert counters["cpu.block_cache.hits"] == machine.cpu.block_hits
    assert counters["cpu.block_cache.misses"] == machine.cpu.block_misses
    assert machine.cpu.block_hits > machine.cpu.block_misses
    histograms = obs.metrics.snapshot()["histograms"]
    assert histograms["cpu.block_cache.block_length"]["count"] \
        == machine.cpu.block_misses


def test_fast_forward_runs_without_instruction_tools():
    """Plain execution (the logger's fast-forward substrate) populates
    and reuses the block cache."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    machine, _, _ = run_program(image)
    assert machine.cpu.block_hits > 0
    assert machine.cpu.fast_dispatch is True


# -- dispatch tiers: superblocks + threaded-code compilation -------------------


@pytest.fixture(params=("slow", "block", "compiled"))
def tier(request, monkeypatch):
    """The dispatch tier a parametrized test runs on.  "block" is the
    compiled tier with codegen held off, so every block runs on the
    interpreted block loop (the path cold, uncompilable and
    memory-hooked blocks take)."""
    if request.param == "block":
        monkeypatch.setattr(cpu_module, "COMPILE_THRESHOLD", sys.maxsize)
        return "compiled"
    return request.param


def test_all_dispatch_tiers_bit_identical_racy_mt():
    """Both tiers — per-instruction interpretation and superblocks with
    threaded-code compilation — must retire the identical architectural
    state on a racy multi-threaded workload, across scheduler seeds."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    for seed in range(4):
        reference = None
        for tier in DISPATCH_TIERS:
            machine, status = _run(image, seed=seed, tier=tier)
            state = _arch_state(machine, status)
            if reference is None:
                reference = state
            else:
                assert state == reference, (tier, seed)
            if seed == 0 and tier == "compiled":
                # The compiled tier must actually engage, not silently
                # fall back to the interpreted block loop.
                assert machine.cpu.compiled_calls > 0
                assert machine.cpu.block_hits > 0
                assert machine.cpu.compiled_blocks > 0


def test_stepped_run_matches_straight_run_per_tier():
    """Budget stops land mid-block and mid-compiled-block (quantum
    spills); a stepped run must be indistinguishable from a straight
    one on every tier."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    for tier in DISPATCH_TIERS:
        straight, done = _run(image, seed=5, tier=tier)
        stepped = Machine(seed=5)
        load_elf(stepped, image)
        stepped.cpu.set_dispatch(tier)
        budget = 700
        while True:
            status = stepped.run(max_instructions=budget)
            if status.kind != "stopped":
                break
            budget += 700
        assert _arch_state(stepped, status) \
            == _arch_state(straight, done), tier


def test_page_invalidation_mid_run_matches_slow():
    """Dropping one code page mid-run on the compiled tier re-decodes
    its blocks and does not perturb execution."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    machine = Machine(seed=0)
    load_elf(machine, image)
    machine.cpu.set_dispatch("compiled")
    assert machine.run(max_instructions=2000).kind == "stopped"
    cpu = machine.cpu
    assert cpu.compiled_calls > 0
    page = next(iter(cpu._block_index))
    dropped = cpu.block_invalidations
    cpu._invalidate_code_page(page)
    assert cpu.block_invalidations > dropped
    assert page not in cpu._block_index
    assert not any(page in block.pages
                   for block in cpu.block_cache.values())
    status = machine.run()

    slow = Machine(seed=0)
    load_elf(slow, image)
    slow.cpu.set_dispatch("slow")
    assert slow.run(max_instructions=2000).kind == "stopped"
    assert _arch_state(machine, status) == _arch_state(slow, slow.run())


def test_block_cache_lru_eviction_under_tiny_cap():
    """Past the cap the coldest blocks are evicted, from the per-Cpu
    block cache and from the process-wide compiled-shape cache alike;
    eviction never changes architectural results."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    reference = _arch_state(*_run(image, seed=1, tier="slow"))
    machine = Machine(seed=1)
    load_elf(machine, image)
    machine.cpu.set_dispatch("compiled")
    machine.cpu.block_cache_limit = 4
    status = machine.run()
    cpu = machine.cpu
    assert cpu.block_evictions > 0
    assert len(cpu.block_cache) <= 4
    assert _arch_state(machine, status) == reference

    limit, evictions = COMPILER.cache_limit, COMPILER.evictions
    COMPILER.cache.clear()
    COMPILER.cache_limit = 2
    try:
        machine, status = _run(image, seed=1, tier="compiled")
        assert len(COMPILER.cache) <= 2
    finally:
        COMPILER.cache_limit = limit
    assert COMPILER.evictions > evictions
    assert machine.cpu.compiled_blocks > 2
    assert _arch_state(machine, status) == reference


def test_self_loop_blocks_compile_to_spinning_functions():
    """A block whose taken edge targets its own entry compiles to a
    generated function that spins internally; budget spills step the
    interpreted prefix.  Both must stay bit-identical to the
    per-instruction loop."""
    image = build_executable(
        """
        _start:
            mov rcx, 500
        again:
            add rbx, 3
            sub rcx, 1
            cmp rcx, 0
            jnz again
            mov rdi, rbx
            and rdi, 0xff
            mov rax, 231
            syscall
        """
    )
    machine, status = _run(image, tier="compiled")
    assert status.kind == "exit"
    cpu = machine.cpu
    assert cpu.compiled_calls > 0
    blocks = list(cpu.block_cache.values())
    assert any(b.compiled is not None and b.loop is not None
               and b.loop.__px_loop__ == 1 for b in blocks)
    reference = _arch_state(*_run(image, tier="slow"))
    assert _arch_state(machine, status) == reference

    # A budget that ends inside a block spills through the interpreted
    # prefix at every stop.
    stepped = Machine(seed=0)
    load_elf(stepped, image)
    stepped.cpu.set_dispatch("compiled")
    status = stepped.run(max_instructions=7)
    while status.kind == "stopped":
        status = stepped.run(max_instructions=stepped.executed_total + 7)
    assert _arch_state(stepped, status) == reference


#: A self-loop that patches an instruction ahead of its store once it
#: has spun a few passes: from pass 8 on, ``st1`` hits the immediate of
#: the ``mov rbx`` below it (the store address is ``scratch`` before).
SPIN_SMC_SOURCE = """
_start:
    mov rax, 9          ; mmap(0, 4096, RWX, ANON, -1, 0)
    mov rdi, 0
    mov rsi, 4096
    mov rdx, 7
    mov r10, 0x22
    mov r8, -1
    mov r9, 0
    syscall
    mov r14, rax
    mov rsi, func
    mov rdi, r14
    mov rcx, func_end
    sub rcx, rsi
copy:
    ld1 rbx, [rsi]
    st1 [rdi], rbx
    add rsi, 1
    add rdi, 1
    sub rcx, 1
    cmp rcx, 0
    jnz copy
    mov r12, scratch
    mov r13, r14
    add r13, %d
    sub r13, r12
    mov r15, 33
    mov rdx, 0
    call r14
    mov rdi, rdx
    and rdi, 0xff
    mov rax, 231
    syscall
func:
    mov rcx, 0
floop:
    add rcx, 1
    mov rdi, rcx
    shr rdi, 3
    imul rdi, r13
    add rdi, r12
    st1 [rdi], r15
    mov rbx, 11
    add rdx, rbx
    cmp rcx, 12
    jnz floop
    ret
func_end:
    nop
"""
_SPIN_PATCH = (instruction_size(Op.MOV_RI) + instruction_size(Op.ADD_RI)
               + instruction_size(Op.MOV_RR) + instruction_size(Op.SHR_RI)
               + instruction_size(Op.IMUL_RR) + instruction_size(Op.ADD_RR)
               + instruction_size(Op.ST1) + 2)

#: A self-loop whose divide faults on its 17th pass.
SPIN_FAULT_SOURCE = """
_start:
    mov rcx, 0
again:
    mov rsi, rcx
    shr rsi, 4
    mov rdx, 1
    sub rdx, rsi
    div rax, rdx
    add rcx, 1
    jmp again
"""


def test_self_loop_spin_exits_count_completed_branches(tier):
    """A fault or an SMC break inside a compiled self-loop spin still
    counts the branch of every iteration completed before it."""
    smc = build_executable(SPIN_SMC_SOURCE % _SPIN_PATCH,
                           data_source="scratch:\n    .quad 0\n")
    fault = build_executable(SPIN_FAULT_SOURCE)
    for seed in range(3):
        machine, status = _run(smc, seed=seed, tier=tier)
        assert status.kind == "exit"
        assert status.code == (7 * 11 + 5 * 33) & 0xff
        assert _arch_state(machine, status) \
            == _arch_state(*_run(smc, seed=seed, tier="slow"))
        machine, status = _run(fault, seed=seed, tier=tier)
        assert status.kind == "signal" and status.signal == 8
        assert _arch_state(machine, status) \
            == _arch_state(*_run(fault, seed=seed, tier="slow"))


#: RACY_SOURCE with a MARKER inside both threads' hot loops, so marker
#: blocks get compiled.
MARKER_SOURCE = RACY_SOURCE.replace(
    "add rbx, 1", "add rbx, 1\n        marker 0x42")


class _MarkerLog(Tool):
    """Logs every marker event; requests a stop at the *stop_at*-th."""

    wants_instructions = False
    wants_markers = True

    def __init__(self, stop_at=None):
        self.events = []
        self.stop_at = stop_at

    def on_marker(self, machine, thread):
        self.events.append((thread.tid, thread.icount, thread.cycles,
                            machine.total_icount()))
        if len(self.events) == self.stop_at:
            machine.request_stop("marker %d" % self.stop_at)


def _marker_run(image, tier, seed, stop_at=None):
    machine = Machine(seed=seed)
    load_elf(machine, image)
    machine.cpu.set_dispatch(tier)
    log = _MarkerLog(stop_at)
    machine.attach(log)
    stopped = None
    if stop_at is not None:
        stopped = machine.run()
        assert stopped.kind == "stopped", tier
        # the stop lands immediately after the marker that requested it
        assert machine.executed_total == log.events[-1][3], tier
        stopped = (stopped.detail, _arch_state(machine, stopped),
                   arch_digest(machine))
    status = machine.run()
    return machine, log.events, stopped, _arch_state(machine, status)


def test_marker_hook_fires_identically_on_every_tier(tier):
    """One event per retired MARKER, with the same thread, icount and
    cycles on every tier, and a stop requested in the hook lands at the
    same point; the racy schedule is unchanged by the marker stop."""
    image = build_executable(MARKER_SOURCE, data_source=RACY_DATA)
    for seed in range(3):
        _, ref_events, _, ref_state = _marker_run(image, "slow", seed)
        machine, events, _, state = _marker_run(image, tier, seed)
        assert len(events) == 600  # 300 iterations in each thread
        assert {tid for tid, *_ in events} == {0, 1}
        assert events == ref_events
        assert state == ref_state
        for stop_at in (1, 301, 599):
            got = _marker_run(image, tier, seed, stop_at)
            want = _marker_run(image, "slow", seed, stop_at)
            assert got[1:] == want[1:], (seed, stop_at)
            assert got[3] == state
    if tier == "compiled":
        # Marker blocks run from the cache, compiled unless codegen is
        # held off.
        assert machine.cpu.block_hits > 0
        assert (machine.cpu.compiled_calls > 0) \
            == (cpu_module.COMPILE_THRESHOLD != sys.maxsize)


def test_marker_block_split_keeps_state_digests(tier):
    """Blocks end at MARKER whether or not a marker tool is attached;
    per-thread state digests at every step of a stepped run still match
    the per-instruction loop."""
    image = build_executable(MARKER_SOURCE, data_source=RACY_DATA)

    def digests(dispatch):
        machine = Machine(seed=5)
        load_elf(machine, image)
        machine.cpu.set_dispatch(dispatch)
        out, budget = [], 0
        while True:
            budget += 333
            status = machine.run(max_instructions=budget)
            out.append((arch_digest(machine), _arch_state(machine, status)))
            if status.kind != "stopped":
                return out

    assert digests(tier) == digests("slow")


def test_snapshot_mid_compiled_execution_round_trips():
    """Capturing mid-compiled-execution drops derived state (block and
    compiled caches), round-trips digest-identically, and the resumed
    run finishes bit-identically to a straight run."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    previous = set_default_dispatch("compiled")
    try:
        straight = Machine(seed=3)
        load_elf(straight, image)
        done = straight.run()
        assert done.kind == "exit"

        interrupted = Machine(seed=3)
        load_elf(interrupted, image)
        assert interrupted.run(max_instructions=1500).kind == "stopped"
        assert interrupted.cpu.compiled_calls > 0
        first = capture(interrupted)
        resumed = restore(first)
        # Derived state never travels: the resumed machine re-decodes
        # and re-compiles from guest memory.
        assert not resumed.cpu.block_cache
        assert snapshot_digest(capture(resumed)) == snapshot_digest(first)
        status = resumed.run()
        assert status.kind == "exit"
        assert status.code == done.code
        assert resumed.mem.snapshot() == straight.mem.snapshot()
        assert _arch_state(resumed, status)[4] \
            == _arch_state(straight, done)[4]
    finally:
        set_default_dispatch(previous)


def test_snapshot_with_removed_chain_counters_resumes():
    """A cpu state carrying keys restore does not read (here the
    removed chained tier's ``chain_hits``/``reported_chain_hits``)
    still restores and resumes bit-identically to a straight run:
    restore reads the keys its layout writes and ignores the rest."""
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    straight = Machine(seed=3)
    load_elf(straight, image)
    done = straight.run()

    interrupted = Machine(seed=3)
    load_elf(interrupted, image)
    assert interrupted.run(max_instructions=1500).kind == "stopped"
    current = capture(interrupted)
    legacy = capture(interrupted)
    legacy.state["machine"]["cpu"].update(
        chain_hits=123, reported_chain_hits=120)
    for snapshot in (current, legacy):
        resumed = restore(snapshot)
        assert not hasattr(resumed.cpu, "chain_hits")
        status = resumed.run()
        assert status.kind == "exit"
        assert resumed.mem.snapshot() == straight.mem.snapshot()
        assert _arch_state(resumed, status) == _arch_state(straight, done)
    assert snapshot_digest(capture(restore(legacy))) \
        == snapshot_digest(current)


def test_repro_dispatch_env_is_validated():
    """An unknown ``REPRO_DISPATCH`` tier fails at import with the same
    error ``set_default_dispatch`` raises; a known one is honoured."""
    def default_under(value):
        env = dict(os.environ, REPRO_DISPATCH=value,
                   PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.machine.cpu import default_dispatch; "
             "print(default_dispatch())"],
            env=env, capture_output=True, text=True)

    for removed in ("chain", "block"):
        proc = default_under(removed)
        assert proc.returncode != 0
        assert "ValueError: unknown dispatch tier: %r" % removed \
            in proc.stderr
    proc = default_under("slow")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "slow"


# -- slice boundaries of a lone thread ----------------------------------------
#
# On the fast tiers a lone runnable thread takes its next slice without
# leaving the dispatch loop, and a block straddling the slice end runs
# whole.  The schedule (recorded trace, RNG state, round-robin cursor)
# must still match the per-slice slow tier exactly, whatever ends the
# run: a fault, a clone, a signal, or a budget stop.


def _sched_run(image, tier, seed, max_instructions=None):
    machine = Machine(seed=seed)
    load_elf(machine, image)
    machine.cpu.set_dispatch(tier)
    machine.scheduler.record = True
    return machine, machine.run(max_instructions=max_instructions)


def _sched_state(machine, status):
    scheduler = machine.scheduler
    return (_arch_state(machine, status), status.detail,
            arch_digest(machine), machine.mem.snapshot(),
            machine.executed_total, list(scheduler.trace),
            scheduler._rng.getstate(), scheduler._next_index)


def _first_quantum(seed):
    return Scheduler(seed=seed).pick([0]).quantum


def _boundaries(trace):
    total, out = 0, []
    for entry in trace:
        total += entry.quantum
        out.append(total)
    return out


#: Straight-line loop body around a fault that fires on the 9th pass
#: (``rsi`` = pass >> 3), ``{pad}`` instructions into the block, so the
#: block is compiled by then and slice ends fall all over it.
_FAULT_SOURCE = """
_start:
{handler}
    mov rdi, scratch
    mov rcx, 0
again:
{pad}
    mov rsi, rcx
    shr rsi, 3
{fault}
{tail}
    add rcx, 1
    jmp again
sighandler:
    mov rax, 15
    syscall
"""
_FAULT_DATA = """
sigact:
    .quad sighandler
    .quad 0
scratch:
    .quad 0
"""
_FAULTS = {
    # page fault at scratch + (1 << 40) with a SIGSEGV handler installed
    # (synchronous faults stay fatal; the handler must change nothing)
    "segv": ("""
    mov rax, 13
    mov rdi, 11
    mov rsi, sigact
    mov rdx, 0
    syscall""", """
    shl rsi, 40
    add rsi, rdi
    ld rax, [rsi]"""),
    "divide": ("", """
    mov rdx, 1
    sub rdx, rsi
    div rax, rdx"""),
}
_TAIL = 40


@functools.lru_cache(maxsize=None)
def _fault_case(fault, pad, seed):
    """(image, slow-tier state, where the slice end fell) for one case."""
    handler, fault_code = _FAULTS[fault]
    image = build_executable(
        _FAULT_SOURCE.format(
            handler=handler, fault=fault_code,
            pad="\n".join(["    add rbx, 1"] * pad),
            tail="\n".join(["    add rbx, 2"] * _TAIL)),
        data_source=_FAULT_DATA)
    slow, status = _sched_run(image, "slow", seed)
    assert status.kind == "signal"
    at = slow.threads[0].icount            # instructions before the fault
    start = at - (pad + 4)                 # the faulting block
    end = start + pad + 5 + _TAIL + 2
    kinds = set()
    for boundary in _boundaries(slow.scheduler.trace):
        if start < boundary < end:
            kinds.add("prefix" if boundary > at else
                      "at" if boundary == at else "crossed")
    return image, _sched_state(slow, status), kinds


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_lone_thread_fault_in_straddling_block(tier, fault):
    """A fault before the slice end leaves the scheduler untouched; one
    at or after it sees the pick already made, as on the per-slice
    loop."""
    kinds = set()
    for pad in range(60):
        for seed in range(3):
            image, reference, where = _fault_case(fault, pad, seed)
            kinds |= where
            machine, status = _sched_run(image, tier, seed)
            assert _sched_state(machine, status) == reference, (pad, seed)
    assert kinds == {"prefix", "at", "crossed"}


def test_lone_thread_clone_at_slice_end(tier):
    """A clone retiring as the slice's last instruction hands the next
    pick back to round-robin: the child runs next."""
    for seed in range(3):
        first = _first_quantum(seed)
        for delta in (-1, 0, 1):
            nops = "\n".join(["    nop"] * (first - 5 + delta))
            image = build_executable(
                RACY_SOURCE.replace("_start:", "_start:\n" + nops, 1),
                data_source=RACY_DATA)
            slow, slow_status = _sched_run(image, "slow", seed)
            assert slow_status.kind == "exit"
            if delta == 0:
                assert slow.scheduler.trace[0].quantum == first
                assert slow.scheduler.trace[1].tid == 1
            machine, status = _sched_run(image, tier, seed)
            assert _sched_state(machine, status) \
                == _sched_state(slow, slow_status), (seed, delta)


_KILL_SOURCE = """
_start:
    mov rax, 13
    mov rdi, 10
    mov rsi, sigact
    mov rdx, 0
    syscall
{nops}
    mov rax, 39
    syscall
    mov rdi, rax
    mov rsi, 10
    mov rax, 62
    syscall
    mov rcx, 200
spin:
    add rbx, 1
    sub rcx, 1
    cmp rcx, 0
    jnz spin
    ld rdi, [signote]
    add rdi, rbx
    and rdi, 0xff
    mov rax, 231
    syscall
sighandler:
    ld rcx, [signote]
    add rcx, rdi
    st [signote], rcx
    mov rax, 15
    syscall
"""
_KILL_DATA = """
sigact:
    .quad sighandler
    .quad 0
signote:
    .quad 0
"""


def test_lone_thread_kill_self_at_slice_end(tier):
    """kill(self) yields: around the slice end the signal is delivered
    at the same boundary and the shortened slice is recorded."""
    for seed in range(3):
        first = _first_quantum(seed)
        for delta in (-2, -1, 0, 1):
            # the kill retires as instruction first + delta
            nops = "\n".join(["    nop"] * (first - 11 + delta))
            image = build_executable(_KILL_SOURCE.format(nops=nops),
                                     data_source=_KILL_DATA)
            slow, slow_status = _sched_run(image, "slow", seed)
            assert slow_status.kind == "exit"
            assert slow_status.code == (10 + 200) & 0xff
            assert slow.scheduler.trace[0].quantum \
                == min(first, first + delta)
            machine, status = _sched_run(image, tier, seed)
            assert _sched_state(machine, status) \
                == _sched_state(slow, slow_status), (seed, delta)


_LOOP_BODY = 40
_LOOP_SOURCE = """
_start:
    mov rcx, 60
again:
{body}
    sub rcx, 1
    cmp rcx, 0
    jnz again
    mov rdi, rbx
    and rdi, 0xff
    mov rax, 231
    syscall
""".format(body="\n".join(["    add rbx, 1"] * _LOOP_BODY))


def _stop_and_resume(image, tier, seed, budget):
    machine, stopped = _sched_run(image, tier, seed, budget)
    assert stopped.kind == "stopped"
    assert machine.executed_total == budget
    snapshot = capture(machine)
    resumed = restore(snapshot)
    assert snapshot_digest(capture(resumed)) == snapshot_digest(snapshot)
    resumed.cpu.set_dispatch(tier)
    return _sched_state(resumed, resumed.run())


def test_lone_thread_budget_stop_mid_straddle_resumes(tier):
    """A budget stop inside a block that straddles a slice end, then a
    snapshot round trip, resumes digest-identical to a straight run."""
    image = build_executable(_LOOP_SOURCE)
    seed = 2
    slow, slow_status = _sched_run(image, "slow", seed)
    reference = _sched_state(slow, slow_status)
    straight, status = _sched_run(image, tier, seed)
    assert _sched_state(straight, status) == reference
    n = _LOOP_BODY + 3
    starts = [0] + list(range(n + 1, slow.executed_total, n))
    boundaries = _boundaries(slow.scheduler.trace)
    mid_straddle = 0
    for budget in range(401, 1600, 37):
        start = max(s for s in starts if s < budget)
        if any(start < b < budget for b in boundaries) \
                and budget not in starts:
            mid_straddle += 1
        state = _stop_and_resume(image, tier, seed, budget)
        # The budget cut splits one recorded slice in two; everything
        # else matches the straight run.
        assert state[:5] + state[6:] == reference[:5] + reference[6:]
        assert state == _stop_and_resume(image, "slow", seed, budget)
    assert mid_straddle >= 5


class _AttachAtMarker(Tool):
    """At the first marker, attaches a per-instruction counter."""

    wants_instructions = False
    wants_markers = True

    def __init__(self):
        self.counter = _InstructionCount()

    def on_marker(self, machine, thread):
        if self.counter not in machine.tools:
            machine.attach(self.counter)


class _InstructionCount(Tool):
    wants_instructions = True

    def __init__(self):
        self.count = 0

    def on_instruction(self, machine, thread, pc, insn):
        self.count += 1


def test_lone_thread_tool_attached_mid_run_applies_next_slice(tier):
    """A tool attached from a hook takes effect at the next slice end on
    every tier; an extended slice must not carry the old tool lists."""
    image = build_executable(
        _LOOP_SOURCE.replace("jnz again", "marker 0x42\n    jnz again"))

    def counted(dispatch):
        machine = Machine(seed=3)
        load_elf(machine, image)
        machine.cpu.set_dispatch(dispatch)
        machine.scheduler.record = True
        tool = _AttachAtMarker()
        machine.attach(tool)
        status = machine.run()
        return tool.counter.count, _sched_state(machine, status)

    count, state = counted(tier)
    assert count > 0
    assert (count, state) == counted("slow")


class _BlockEntries(Tool):
    """Records every basic-block entry."""

    wants_instructions = False
    wants_blocks = True

    def __init__(self):
        self.entries = []

    def on_basic_block(self, machine, thread, pc):
        self.entries.append((thread.tid, thread.icount, pc))


def test_block_tool_attached_mid_run_sees_only_true_entries(tier):
    """``Thread.new_block`` stays exact with no block tool attached, so
    a block tool attached after the ROI marker or a budget stop sees
    exactly the tail of the entries a tool attached at load sees -- no
    phantom entry where a thread stopped inside a block."""
    image = build_executable(MARKER_SOURCE, data_source=RACY_DATA)

    def entries(stop):
        machine = Machine(seed=2)
        load_elf(machine, image)
        machine.cpu.set_dispatch(tier)
        if stop is not None:
            stop(machine)
        tool = _BlockEntries()
        machine.attach(tool)
        machine.run()
        return tool.entries

    full = entries(None)
    # The budget stops cut both threads' last slices inside a block.
    for stop in (lambda m: run_to_marker(m, 10**6),
                 lambda m: m.run(max_instructions=703),
                 lambda m: m.run(max_instructions=709)):
        tail = entries(stop)
        assert 0 < len(tail) < len(full)
        assert tail == full[-len(tail):]


# -- compiled loops -----------------------------------------------------------
#
# Hot loops of up to compile.LOOP_BLOCKS blocks on one page run inside
# one generated function.  Every way out of it -- a side exit, the
# budget (quantum, lone-thread room, PMU trap, icount limit), an SMC
# break, a fault -- must leave exactly the state the per-block loop
# leaves, schedule included.

#: A 6-block loop with an if/else body and a side exit on every edge
#: that leaves it: m0 and m3/m4 exit when taken, m2 and m5 fall out.
#: ``t0``..``t5`` are the passes (``rcx``) at which each exit fires; m2
#: runs on odd passes and m3 on even ones.  Exits set ``r15`` to the
#: member number and jump to ``done``.
_LOOP6 = """
    mov rcx, 0
    jmp m0
m0:
    add rcx, 1
    add rbx, rcx
    cmp rcx, {t0}
    jz exit0
m1:
    mov rdx, rcx
    and rdx, 1
    cmp rdx, 0
    jz m3
m2:
    add rbx, 3
    cmp rcx, {t2}
    jnz m4
    mov r15, 2
    jmp done
m3:
{m3}
    xor rbx, rcx
    cmp rcx, {t3}
    jz exit3
m4:
    add rbx, 7
    cmp rcx, {t4}
    jz exit4
m5:
    sub rbx, 1
    cmp rcx, {t5}
    jnz m0
    mov r15, 5
    jmp done
exit0:
    mov r15, 0
    jmp done
exit3:
    mov r15, 3
    jmp done
exit4:
    mov r15, 4
    jmp done
"""

#: A 2-block loop: the head exits when taken, the body falls out.
_LOOP2 = """
    mov rcx, 0
    jmp head
head:
    add rcx, 1
    add rbx, rcx
    cmp rcx, {t0}
    jz exit0
body:
    xor rbx, rcx
    cmp rcx, {t1}
    jnz head
    mov r15, 1
    jmp done
exit0:
    mov r15, 0
    jmp done
"""

_NEVER = 1 << 30

_EXIT_WITH_R15 = """
done:
    mov rdi, r15
    mov rax, 231
    syscall
"""


def _loop_body(loop, m3="", **exits):
    thresholds = {"t%d" % i: _NEVER for i in range(6)}
    thresholds.update(exits)
    return loop.format(m3=m3, **thresholds)


def _loop_program(loop, head="", tail=_EXIT_WITH_R15, **exits):
    return "_start:\n" + head + _loop_body(loop, **exits) + tail


def _loop_sizes(machine):
    """Member counts of the multi-block loops the compiled tier built."""
    return sorted(block.loop.__px_loop__
                  for block in machine.cpu.block_cache.values()
                  if block.loop is not None
                  and block.loop.__px_loop__ > 1)


def _compiles(machine):
    """True when *machine* ran on the compiled tier with codegen on."""
    return (machine.cpu.dispatch_tier == "compiled"
            and cpu_module.COMPILE_THRESHOLD != sys.maxsize)


@pytest.mark.parametrize("members, exit_id, exits", [
    (2, 0, {"t0": 301}),
    (2, 1, {"t1": 301}),
    (6, 0, {"t0": 301}),
    (6, 2, {"t2": 301}),
    (6, 3, {"t3": 300}),
    (6, 4, {"t4": 301}),
    (6, 5, {"t5": 301}),
])
def test_loop_side_exits_match_slow(tier, members, exit_id, exits):
    """Leaving a 2-block or a 6-block compiled loop through each of its
    side edges retires what the per-instruction loop retires."""
    loop = _LOOP2 if members == 2 else _LOOP6
    image = build_executable(_loop_program(loop, **exits))
    for seed in range(3):
        slow, slow_status = _sched_run(image, "slow", seed)
        assert slow_status.kind == "exit"
        assert slow_status.code == exit_id
        machine, status = _sched_run(image, tier, seed)
        assert _sched_state(machine, status) \
            == _sched_state(slow, slow_status), seed
        if _compiles(machine):
            assert members in _loop_sizes(machine)


_LOOP_MT = """
_start:
    mov rax, 56
    mov rdi, 0x100
    mov rsi, stack_top
    mov rdx, child
    syscall
""" + _loop_body(_LOOP6, t5=601) + """
done:
    cmp r14, 0
    jnz child_done
wait:
    ld rbx, [done_flag]
    cmp rbx, 1
    jnz wait
    mov rdi, r15
    mov rax, 231
    syscall
child_done:
    mov rbx, 1
    st [done_flag], rbx
    mov rax, 60
    mov rdi, 0
    syscall
child:
    mov r14, 1
    mov rcx, 301
    jmp m0
"""


def test_loop_quantum_expiry_with_two_runnable_threads(tier):
    """With two runnable threads every slice end is a hard stop: the
    loop returns before a member that would cross it, and the header
    spills that member, as the per-block loop does."""
    image = build_executable(_LOOP_MT, data_source=RACY_DATA)
    for seed in range(4):
        slow, slow_status = _sched_run(image, "slow", seed)
        assert slow_status.kind == "exit" and slow_status.code == 5
        machine, status = _sched_run(image, tier, seed)
        assert _sched_state(machine, status) \
            == _sched_state(slow, slow_status), seed
        if _compiles(machine):
            assert 6 in _loop_sizes(machine)


def test_loop_lone_thread_straddles_many_slices(tier):
    """A lone thread's loop spins across many slice ends in one call;
    the picks for every boundary it crossed are committed after it."""
    image = build_executable(_loop_program(_LOOP6, t5=3001))
    for seed in range(3):
        slow, slow_status = _sched_run(image, "slow", seed)
        machine, status = _sched_run(image, tier, seed)
        assert _sched_state(machine, status) \
            == _sched_state(slow, slow_status), seed
        if _compiles(machine):
            assert 10 * machine.cpu.compiled_calls \
                < len(machine.scheduler.trace)


_PMU_HEAD = """
    mov rax, 298
    mov rdi, 0
    mov rsi, {threshold}
    mov rdx, handler
    syscall
"""
_PMU_TAIL = """
done:
    mov rdi, r15
    mov rax, 231
    syscall
handler:
    mov rax, 334        ; perf_read(INSTRUCTIONS)
    mov rdi, 0
    syscall
    mov rdi, rax
    and rdi, 0xff
    mov rax, 231
    syscall
"""


def test_loop_pmu_trap_and_icount_limit_land_inside(tier):
    """A PMU trap and an icount limit armed to land anywhere inside a
    spinning loop fire at the exact instruction."""
    for threshold in range(300, 340, 3):
        image = build_executable(_loop_program(
            _LOOP6, head=_PMU_HEAD.format(threshold=threshold),
            tail=_PMU_TAIL))
        slow, slow_status = _sched_run(image, "slow", 1)
        assert slow_status.kind == "exit"
        assert slow_status.code == (5 + threshold + 2) & 0xff
        machine, status = _sched_run(image, tier, 1)
        assert _sched_state(machine, status) \
            == _sched_state(slow, slow_status), threshold

    image = build_executable(_loop_program(_LOOP6, t5=201))

    def limited(dispatch, limit):
        machine = Machine(seed=2)
        load_elf(machine, image)
        machine.cpu.set_dispatch(dispatch)
        machine.scheduler.record = True
        machine.threads[0].icount_limit = limit
        stopped = machine.run()
        assert stopped.kind == "stopped"
        assert machine.threads[0].icount == limit
        first = _sched_state(machine, stopped)
        machine.threads[0].icount_limit = cpu_module.NO_TRAP
        return first, _sched_state(machine, machine.run())

    for limit in range(1000, 1040, 3):
        assert limited(tier, limit) == limited("slow", limit), limit


def test_loop_fault_in_non_head_member(tier):
    """A divide fault in m3, which is never the loop head, materializes
    the exact state: completed members, the retired prefix, picks."""
    image = build_executable(_loop_program(
        _LOOP6, m3="    mov rsi, 400\n    sub rsi, rcx\n    div rax, rsi"))
    for seed in range(3):
        slow, slow_status = _sched_run(image, "slow", seed)
        assert slow_status.kind == "signal" and slow_status.signal == 8
        machine, status = _sched_run(image, tier, seed)
        assert _sched_state(machine, status) \
            == _sched_state(slow, slow_status), seed


#: A 2-block loop copied into an RWX page: from pass 8 on, the head's
#: ``st1`` patches the immediate of ``mov rbx, 11`` in the other member
#: (before that it stores to ``scratch``).
LOOP_SMC_SOURCE = SPIN_SMC_SOURCE.split("func:")[0] + """
func:
    mov rcx, 0
    jmp floop
fbody:
    mov rbx, 11
    add rdx, rbx
    cmp rcx, 12
    jnz floop
    ret
floop:
    add rcx, 1
    mov rdi, rcx
    shr rdi, 3
    imul rdi, r13
    add rdi, r12
    st1 [rdi], r15
    jmp fbody
func_end:
    nop
"""
_LOOP_PATCH = instruction_size(Op.MOV_RI) + instruction_size(Op.JMP) + 2


def test_loop_smc_store_into_its_own_page(tier):
    """A store from inside a compiled loop into its own code page breaks
    the spin at the store, drops the head with its loop, and the patched
    member runs with its new bytes."""
    image = build_executable(LOOP_SMC_SOURCE % _LOOP_PATCH,
                             data_source="scratch:\n    .quad 0\n")
    for seed in range(3):
        machine, status = _run(image, seed=seed, tier=tier)
        assert status.kind == "exit"
        assert status.code == (7 * 11 + 5 * 33) & 0xff
        assert _arch_state(machine, status) \
            == _arch_state(*_run(image, seed=seed, tier="slow"))
        if _compiles(machine):
            assert machine.cpu.block_invalidations > 0

    # Under the merge-safe BBV counter the self-loop spins; its SMC
    # break stops between two steps, which is no block entry.
    spin = build_executable(SPIN_SMC_SOURCE % _SPIN_PATCH,
                            data_source="scratch:\n    .quad 0\n")

    def vectors(counter, dispatch):
        machine = Machine(seed=0)
        load_elf(machine, spin)
        machine.cpu.set_dispatch(dispatch)
        machine.attach(counter)
        machine.run()
        return counter.take(machine)

    assert vectors(_BlockCounter(), tier) \
        == vectors(_ReferenceBlockCounter(), "slow")


def test_loop_survives_lru_eviction_of_a_member(tier):
    """Evicting a member block while the head stays cached changes
    nothing: the loop runs on from its generated code (the member's
    bytes are unchanged), and a return to the header rebuilds it."""
    image = build_executable(_loop_program(_LOOP6, t5=601))
    slow, slow_status = _sched_run(image, "slow", 1)
    machine, stopped = _sched_run(image, tier, 1, 2000)
    assert stopped.kind == "stopped"
    cpu = machine.cpu
    heads = [block for block in cpu.block_cache.values()
             if block.loop is not None]
    if _compiles(machine):
        head = heads[0]
        assert head.loop.__px_loop__ == 6
        for block in cpu.block_cache.values():
            block.stamp = 0 if block is not head else cpu._stamp
        cpu.block_cache_limit = len(cpu.block_cache)
        evicted = cpu.block_evictions
        cpu._evict_blocks()
        assert cpu.block_evictions > evicted
        assert cpu.block_cache.get(head.entry) is head
    status = machine.run()
    assert _sched_state(machine, status)[:3] \
        == _sched_state(slow, slow_status)[:3]


def test_loop_snapshot_mid_loop_resumes(tier):
    """A budget stop inside a spinning loop, then a snapshot round
    trip, resumes digest-identical to a straight run."""
    image = build_executable(_loop_program(_LOOP6, t5=101))
    seed = 2
    slow, slow_status = _sched_run(image, "slow", seed)
    reference = _sched_state(slow, slow_status)
    for budget in range(301, 1200, 41):
        state = _stop_and_resume(image, tier, seed, budget)
        # The budget cut splits one recorded slice in two; everything
        # else matches the straight run.
        assert state[:5] + state[6:] == reference[:5] + reference[6:]
        assert state == _stop_and_resume(image, "slow", seed, budget)


class _ReferenceBlockCounter(Tool):
    """Per-instruction BBV oracle: every retired instruction counts for
    the most recently entered block of its thread."""

    wants_instructions = True
    wants_blocks = True

    def __init__(self):
        self.current = {}
        self._open = {}

    def on_basic_block(self, machine, thread, pc):
        self._open[thread.tid] = pc

    def on_instruction(self, machine, thread, pc, insn):
        block = self._open.get(thread.tid)
        if block is not None:
            self.current[block] = self.current.get(block, 0) + 1

    def take(self, machine):
        vector = self.current
        self.current = {}
        return vector


#: A self-loop nested in a 3-block loop (its block heads both: it turns
#: hot once the outer blocks are cached), a self-loop entered by
#: fall-through from the block a MARKER ends (its first pass is no
#: block entry), then a 6-block loop.
_BBV_LOOPS = """
_start:
    mov r8, 0
outer:
    mov rcx, 0
    jmp inner
inner:
    add rcx, 1
    add rbx, rcx
    cmp rcx, 3
    jnz inner
    add r8, 1
    cmp r8, 250
    jnz outer
    mov rcx, 0
    marker 0x11
spin:
    add rcx, 1
    sub rbx, rcx
    cmp rcx, 300
    jnz spin
""" + _loop_body(_LOOP6, t5=401) + _EXIT_WITH_R15


def _bbv_drive(image, counter, tier, slice_size=500, seed=1):
    """BBV vectors of *image* taken every *slice_size* instructions."""
    machine = Machine(seed=seed)
    load_elf(machine, image)
    machine.cpu.set_dispatch(tier)
    machine.attach(counter)
    vectors = []
    index = 0
    while True:
        status = machine.run(max_instructions=(index + 1) * slice_size)
        vectors.append(counter.take(machine))
        index += 1
        if status.kind != "stopped":
            return machine, vectors


class _PerEntry(_BlockCounter):
    """The BBV counter without loop exits: every entry is dispatched."""

    accepts_loop_exits = False


def test_loop_bbv_matches_per_instruction_reference():
    """Under the BBV counter compiled loops keep spinning -- a 3-block
    loop whose head is a self-loop, a self-loop first entered by
    fall-through, and a 6-block loop -- and the vectors equal the
    per-instruction oracle's at every slice stop."""
    image = build_executable(_BBV_LOOPS)
    _, expected = _bbv_drive(image, _ReferenceBlockCounter(), "slow")
    spun, got = _bbv_drive(image, _BlockCounter(), "compiled")
    assert got == expected
    per_entry, got = _bbv_drive(image, _PerEntry(), "compiled")
    assert got == expected
    # The loops spun: the outer loop's 250 passes and the two
    # self-loops' ~1,000 iterations took a few dozen calls.
    assert 3 in _loop_sizes(spun) and 6 in _loop_sizes(spun)
    assert 10 * spun.cpu.compiled_calls < per_entry.cpu.compiled_calls


class _LoopExitLog(_BlockCounter):
    """The BBV counter, logging each loop exit's member count, stop
    member and partial steps."""

    def __init__(self):
        super().__init__()
        self.exits = []

    def on_loop_exit(self, machine, thread, pc, members, counts, stop,
                     partial):
        self.exits.append((len(members), stop, partial))
        super().on_loop_exit(machine, thread, pc, members, counts, stop,
                             partial)


@pytest.mark.parametrize("slice_size", [97, 500, 4001])
def test_loop_bbv_spins_capped_by_slice_boundaries(tier, slice_size):
    """A 6-block loop spins under the BBV counter until each slice
    boundary caps it; the vectors equal the per-instruction oracle's."""
    image = build_executable(_loop_program(_LOOP6, t5=3001))
    _, expected = _bbv_drive(image, _ReferenceBlockCounter(), "slow",
                             slice_size)
    counter = _LoopExitLog()
    machine, got = _bbv_drive(image, counter, tier, slice_size)
    assert got == expected
    if _compiles(machine):
        assert 6 in _loop_sizes(machine)
        spins = [entry for entry in counter.exits if entry[0] == 6]
        # ~45K instructions: one spin per slice, not one call per block.
        assert len(spins) >= len(got) - 2
        assert machine.cpu.compiled_calls < 4 * len(got) + 50


#: LOOP_SMC_SOURCE with the store moved out of the head: on passes
#: 8-15 and 24-31, ``fbody``'s ``st1`` stores 33 over the immediate of
#: ``mov rbx, 11`` in the head ``floop`` (elsewhen, to ``scratch``).
LOOP_SMC_BODY_SOURCE = SPIN_SMC_SOURCE.split("func:")[0] + """
func:
    mov rcx, 0
    jmp floop
floop:
    add rcx, 1
    mov rbx, 11
    add rdx, rbx
    jmp fbody
fbody:
    mov rdi, rcx
    shr rdi, 3
    and rdi, 1
    imul rdi, r13
    add rdi, r12
    st1 [rdi], r15
    cmp rcx, 40
    jnz floop
    ret
func_end:
    nop
"""
_LOOP_BODY_PATCH = (instruction_size(Op.MOV_RI) + instruction_size(Op.JMP)
                    + instruction_size(Op.ADD_RI) + 2)


def test_loop_bbv_smc_break_in_non_head_member(tier):
    """An SMC store in the loop's second member breaks the spin there:
    the counter reopens that member *partial* steps back, and the
    vectors equal the per-instruction oracle's."""
    image = build_executable(LOOP_SMC_BODY_SOURCE % _LOOP_BODY_PATCH,
                             data_source="scratch:\n    .quad 0\n")
    for seed in range(3):
        _, expected = _bbv_drive(image, _ReferenceBlockCounter(), "slow",
                                 300, seed)
        counter = _LoopExitLog()
        machine, got = _bbv_drive(image, counter, tier, 300, seed)
        assert got == expected
        assert machine.threads[0].exit_code == (8 * 11 + 32 * 33) & 0xff
        if _compiles(machine):
            # The breaks: member 1, six steps in (the st1 retired).
            assert (2, 1, 6) in counter.exits


def test_loop_bbv_fault_in_non_head_member(tier):
    """A divide fault in m3 ends the spin two steps into m3: the
    counter credits the completed members and leaves m3 open, so the
    last slice's vector holds the retired prefix."""
    image = build_executable(_loop_program(
        _LOOP6, m3="    mov rsi, 400\n    sub rsi, rcx\n    div rax, rsi"))
    for seed in range(2):
        oracle = _ReferenceBlockCounter()
        _, expected = _bbv_drive(image, oracle, "slow", 700, seed)
        # The oracle also counts the divide, which faulted unretired.
        expected[-1][oracle._open[0]] -= 1
        counter = _LoopExitLog()
        machine, got = _bbv_drive(image, counter, tier, 700, seed)
        assert machine.exit_status.signal == 8
        assert got == expected
        if _compiles(machine):
            assert counter.exits[-1] == (6, 3, 2)


def test_loop_bbv_preempted_profile_resumes_identically(tier):
    """A preemptible ``collect_bbv`` suspended mid-profile, with a loop
    spinning across its slices, resumes to the straight run's profile
    (and that equals the per-instruction tier's)."""
    import threading

    from repro.simpoint.bbv import collect_bbv
    from repro.snapshot import preempt
    from repro.snapshot.preempt import Preempted

    class _AfterPolls:
        """A preemption flag that raises itself after *polls* polls."""

        def __init__(self, polls):
            self.polls = polls

        def is_set(self):
            self.polls -= 1
            return self.polls < 0

        def set(self):
            self.polls = 0

        def clear(self):
            pass

    image = build_executable(_loop_program(_LOOP6, t5=3001))
    previous = set_default_dispatch(tier)
    event = preempt.GLOBAL._event
    try:
        straight = collect_bbv(image, 700, seed=2)
        preempt.reset()
        preempt.GLOBAL._event = _AfterPolls(9)
        with pytest.raises(Preempted) as caught:
            collect_bbv(image, 700, seed=2, preemptible=True)
        assert caught.value.snapshot.extra["index"] == 9
        preempt.GLOBAL._event = threading.Event()
        preempt.set_resume(caught.value.snapshot)
        resumed = collect_bbv(image, 700, seed=2, preemptible=True)
        set_default_dispatch("slow")
        reference = collect_bbv(image, 700, seed=2)
    finally:
        set_default_dispatch(previous)
        preempt.GLOBAL._event = event
        preempt.reset()
    for profile in (resumed, straight):
        assert profile.vectors == reference.vectors
        assert profile.slice_cycles == reference.slice_cycles
        assert profile.slice_icounts == reference.slice_icounts


def test_roi_watcher_first_entries_come_before_every_spin(tier):
    """In an ELFie without a ROI marker, each thread's first entry at
    its ``.tN.start`` is the startup's jump from another page, which
    the dispatch header reports: every compiled loop spins only after
    the entry the ROI watcher keeps, so its loop-exit hook does
    nothing, and the entry counts equal a per-entry watcher's."""
    from repro.core import Pinball2Elf, Pinball2ElfOptions
    from repro.core.elfie import _RoiWatcher, prepare_elfie_machine
    from repro.isa.encoding import decode
    from repro.machine.memory import PAGE_SHIFT
    from repro.pinplay import RegionSpec, log_region

    image = build_executable(_loop_program(_LOOP6, t5=3001))
    pinball = log_region(image, RegionSpec(start=1003, length=20000,
                                           name="loop6.r0"))
    elfie = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True)).convert().image

    class _Spy(_RoiWatcher):
        spins = 0

        def on_loop_exit(self, machine, thread, pc, members, *exit):
            # Before its entry, a thread spins only in startup loops.
            if thread.tid not in self.entry_icount:
                assert self.roi_rips.isdisjoint(
                    pc + offset for offset, _ in members)
            else:
                self.spins += 1

    class _PerEntry(_RoiWatcher):
        accepts_loop_exits = False

    def entries(watcher_class, dispatch):
        machine, loaded = prepare_elfie_machine(elfie, seed=1)
        machine.cpu.set_dispatch(dispatch)
        starts = [value for name, value in loaded.symbols.items()
                  if name.startswith(".t") and name.endswith(".start")]
        pc = loaded.symbols["__elfie_thread_init_0"]
        insn, size = decode(machine.mem.fetch(pc))
        while insn.op != Op.JMPABS:
            pc += size
            insn, size = decode(machine.mem.fetch(pc))
        assert starts and all(start >> PAGE_SHIFT != pc >> PAGE_SHIFT
                              for start in starts)
        watcher = watcher_class(starts)
        machine.attach(watcher)
        assert machine.run().kind == "exit"
        return machine, watcher

    machine, spy = entries(_Spy, tier)
    assert spy.entry_icount
    assert spy.entry_icount == entries(_PerEntry, tier)[1].entry_icount \
        == entries(_RoiWatcher, "slow")[1].entry_icount
    if _compiles(machine):
        assert spy.spins > 0


# -- predecoded entries and the process-wide decode memo ----------------------


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty decode memo for one test (the real one is process-wide
    and already warm from earlier tests)."""
    memo = {}
    monkeypatch.setattr(cpu_module, "_DECODE_MEMO", memo)
    return memo


def test_second_machine_reuses_decode_memo_entries(tier, fresh_memo):
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    first, _ = _run(image, seed=3, tier=tier)
    decoded = len(fresh_memo)
    assert decoded and first.cpu.decode_cache
    for insn, size, opint, is_branch in fresh_memo.values():
        assert (size, opint, is_branch) == (insn.size, int(insn.op),
                                            insn.is_branch)
    second, status = _run(image, seed=3, tier=tier)
    # No new decodes: the second machine's entries are the first's.
    assert len(fresh_memo) == decoded
    assert second.cpu.decode_cache.keys() == first.cpu.decode_cache.keys()
    for pc, entry in second.cpu.decode_cache.items():
        assert entry is first.cpu.decode_cache[pc]
    fresh_memo.clear()
    cold, cold_status = _run(image, seed=3, tier=tier)
    assert _arch_state(second, status) == _arch_state(cold, cold_status)
    assert arch_digest(second) == arch_digest(cold)


_MEMO_SMC_SOURCE = """
    _start:
    patch_me:
        mov rbx, 5
        cmp rbx, 9
        jnz patch_me
        mov rax, 231
        mov rdi, rbx
        syscall
"""


@pytest.mark.parametrize("dispatch", DISPATCH_TIERS)
def test_smc_after_warm_decode_memo_runs_the_new_bytes(dispatch, fresh_memo):
    """The memo is keyed by instruction bytes, not PC: a patch made
    after another machine decoded the old bytes at the same PC executes
    the new instruction, whether the patch lands before the first fetch
    or after this machine cached the old decode."""
    image = build_executable(_MEMO_SMC_SOURCE)
    warm, status = _run(image, tier=dispatch, max_instructions=1000)
    assert status.kind == "stopped" and fresh_memo
    for patch_first in (True, False):
        machine = Machine(seed=0)
        loaded = load_elf(machine, image)
        machine.cpu.set_dispatch(dispatch)
        if not patch_first:
            assert machine.run(max_instructions=1000).kind == "stopped"
        machine.mem.write(loaded.symbols["patch_me"] + 2, b"\x09",
                          access=PROT_READ)
        status = machine.run(max_instructions=200_000)
        assert (status.kind, status.code) == ("exit", 9), patch_first


_EDGE_PAGE = 0x30000000
#: The stub copied to the end of the RWX page: ``add rcx, 1`` (6 bytes)
#: then the first 3 bytes of a 10-byte ``mov rbx, imm64``.
_EDGE_STUB = instruction_size(Op.ADD_RI) + 3
_EDGE_SOURCE = """
    _start:
        mov rbx, 0x1122334455667788 ; the memo now holds this encoding
        mov rax, 9          ; mmap(0x30000000, RWX, ANON|FIXED)
        mov rdi, %(page)d
        mov rsi, 4096
        mov rdx, 7
        mov r10, 0x32
        mov r8, -1
        mov r9, 0
        syscall
        mov rsi, stub
        mov rdi, %(at)d
        mov rcx, %(n)d
    copy:
        ld1 rbx, [rsi]
        st1 [rdi], rbx
        add rsi, 1
        add rdi, 1
        sub rcx, 1
        cmp rcx, 0
        jnz copy
        mov r12, %(at)d
        call r12
    stub:
        add rcx, 1
        mov rbx, 0x1122334455667788
""" % {"page": _EDGE_PAGE, "at": _EDGE_PAGE + 4096 - _EDGE_STUB,
       "n": _EDGE_STUB}


def test_truncated_fetch_at_exec_page_edge_faults_at_same_icount(fresh_memo):
    """The memo holds the full ``mov rbx, imm64`` encoding, yet the same
    opcode cut off by the end of the executable mapping still faults
    before it retires, on every tier and with the memo cold or warm."""
    image = build_executable(_EDGE_SOURCE)
    states = []
    for dispatch in DISPATCH_TIERS:
        fresh_memo.clear()
        for _ in ("cold", "warm"):
            machine, status = _run(image, tier=dispatch)
            assert (status.kind, status.signal) == ("signal", 11)
            thread = machine.threads[0]
            assert thread.regs.rip == _EDGE_PAGE + 4096 - 3
            states.append(_arch_state(machine, status))
    # mov + mmap (8) + 3 movs + the 7-instruction copy loop per byte +
    # mov + call + the stub's add: the truncated mov never retires.
    assert states[0][4][0][1] == 1 + 8 + 3 + 7 * _EDGE_STUB + 2 + 1
    assert all(state == states[0] for state in states)


def test_decode_memo_stays_within_its_bound(tier, monkeypatch, fresh_memo):
    image = build_executable(RACY_SOURCE, data_source=RACY_DATA)
    reference, ref_status = _run(image, seed=2, tier=tier)
    assert len(fresh_memo) > 8
    fresh_memo.clear()
    monkeypatch.setattr(cpu_module, "DECODE_MEMO_LIMIT", 8)
    sizes = []
    real_decode_at = cpu_module.Cpu._decode_at

    def decode_at(self, pc):
        entry = real_decode_at(self, pc)
        sizes.append(len(fresh_memo))
        return entry

    monkeypatch.setattr(cpu_module.Cpu, "_decode_at", decode_at)
    machine, status = _run(image, seed=2, tier=tier)
    assert sizes and max(sizes) <= 8
    assert _arch_state(machine, status) == _arch_state(reference, ref_status)
