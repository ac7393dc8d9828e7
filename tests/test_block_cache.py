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
    generated function that spins internally; budget spills run the
    compiled partial variant.  Both must stay bit-identical to the
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
    assert any(b.compiled is not None and b.compiled_loop for b in blocks)
    assert any(b.compiled_part is not None for b in blocks)
    reference = _arch_state(*_run(image, tier="slow"))
    assert _arch_state(machine, status) == reference

    # A budget that ends inside a block spills through the partial
    # variant at every stop.
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
    """Snapshots written before the chained tier was removed carry
    ``chain_hits``/``reported_chain_hits`` in the cpu state; they still
    restore and resume bit-identically to a straight run."""
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
