"""Tests for pinball2elf: the paper's core contribution."""

import dataclasses
import struct

import pytest

from repro.core import (
    MarkerSpec,
    Pinball2Elf,
    Pinball2ElfOptions,
    run_elfie,
)
from repro.core.markers import decode_marker, marker_tag
from repro.core.startup import StartupGenerator
from repro.elf import ElfFile, ET_EXEC, ET_REL, PT_LOAD, SHF_ALLOC
from repro.isa.assembler import Assembler
from repro.isa.instructions import Op
from repro.machine.memory import PAGE_SIZE
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.pinplay import LogOptions, RegionSpec, extract_sysstate, log_region
from repro.workloads import ProgramBuilder, PhaseSpec, build_executable

LOOP_SOURCE = """
_start:
    mov rbx, 7
    mov rcx, 20000
    fmov xmm3, 2.75
loop:
    imul rbx, 13
    add rbx, rcx
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


@pytest.fixture(scope="module")
def loop_pinball():
    image = build_executable(LOOP_SOURCE, data_source="scratch:\n.quad 0\n")
    region = RegionSpec(start=50000, length=30000, name="loop.r0")
    return log_region(image, region)


@pytest.fixture(scope="module")
def basic_elfie(loop_pinball):
    options = Pinball2ElfOptions(perf_exit=True,
                                 marker=MarkerSpec("sniper", 0x42))
    return Pinball2Elf(loop_pinball, options).convert()


def test_elfie_is_valid_elf_executable(basic_elfie):
    elf = ElfFile(basic_elfie.image)
    assert elf.header.e_type == ET_EXEC
    assert elf.entry == basic_elfie.entry
    assert any(s.p_type == PT_LOAD for s in elf.segments)


def test_elfie_sections_mirror_pinball_layout(loop_pinball, basic_elfie):
    elf = ElfFile(basic_elfie.image)
    names = [section.name for section in elf.sections]
    assert any(name.startswith(".text.") for name in names)
    assert any(name.startswith(".data.") for name in names)
    assert ".text.elfie" in names
    # every captured page address is covered by some section
    covered = []
    for section in elf.sections:
        if section.name.startswith((".text.", ".data.", ".stack.")):
            covered.append((section.addr, section.addr + len(section.data)))
    for addr in loop_pinball.pages:
        assert any(start <= addr < end for start, end in covered), hex(addr)


def test_stack_sections_are_non_allocatable(loop_pinball, basic_elfie):
    elf = ElfFile(basic_elfie.image)
    stack_sections = [s for s in elf.sections if s.name.startswith(".stack.")]
    assert stack_sections
    for section in stack_sections:
        assert not section.flags & SHF_ALLOC
    # and no PT_LOAD segment covers the stack range
    stack_start, stack_end = loop_pinball.stack_range()
    for segment in elf.segments:
        assert not (segment.p_vaddr < stack_end
                    and stack_start < segment.p_vaddr + segment.p_memsz)


def test_elfie_graceful_exit_at_recorded_icount(loop_pinball, basic_elfie):
    run = run_elfie(basic_elfie.image, seed=3)
    assert run.graceful
    recorded = loop_pinball.threads[0].region_icount
    app = run.app_icounts[0]
    # app icount = region length + exit-handler instructions (~150)
    assert recorded <= app <= recorded + 400


class _StopAtRip(Tool):
    """Stops the machine the first time a thread reaches an address."""

    wants_instructions = True

    def __init__(self, rip):
        self.rip = rip
        self.hit_thread = None
        self.snapshot = None

    def on_instruction(self, machine, thread, pc, insn):
        if pc == self.rip and self.hit_thread is None:
            self.hit_thread = thread.tid
            # snapshot BEFORE the instruction at rip executes
            self.snapshot = thread.regs.copy()
            machine.request_stop("roi reached")


def test_elfie_starts_with_exact_captured_state(loop_pinball, basic_elfie):
    """The heart of the paper: at the first application instruction, the
    ELFie's registers and touched memory equal the pinball's capture."""
    from repro.core.elfie import prepare_elfie_machine

    record = loop_pinball.threads[0]
    machine, _ = prepare_elfie_machine(basic_elfie.image, seed=9)
    stopper = _StopAtRip(record.regs.rip)
    machine.attach(stopper)
    status = machine.run(max_instructions=2_000_000)
    assert status.detail == "roi reached"
    captured = record.regs
    live = stopper.snapshot
    assert live.gpr == captured.gpr          # includes rsp
    assert live.rip == captured.rip
    assert live.fs_base == captured.fs_base
    assert live.gs_base == captured.gs_base
    assert live.xmm == captured.xmm
    assert live.flags.to_word() == captured.flags.to_word()
    # captured memory matches, page by page (stack included post-remap)
    for addr, (prot, data) in loop_pinball.pages.items():
        assert machine.mem.read(addr, 64, access=0x1) == data[:64], hex(addr)


def test_elfie_memory_layout_matches_pinball(loop_pinball, basic_elfie):
    """All pinball pages are mapped at their original addresses."""
    from repro.core.elfie import prepare_elfie_machine

    machine, _ = prepare_elfie_machine(basic_elfie.image, seed=1)
    stack_start, stack_end = loop_pinball.stack_range()
    for addr in loop_pinball.pages:
        if stack_start <= addr < stack_end:
            continue  # stack pages appear only after startup remap
        assert machine.mem.is_mapped(addr), hex(addr)


class _ReferenceRoiWatcher(Tool):
    """Per-instruction ROI-entry oracle: a thread enters its ROI at its
    first MARKER or captured ``.tN.start`` address, whichever it
    executes first."""

    wants_instructions = True

    def __init__(self, roi_rips):
        self.roi_rips = set(roi_rips)
        self.entry_icount = {}

    def on_instruction(self, machine, thread, pc, insn):
        if thread.tid not in self.entry_icount and (
                insn.op == Op.MARKER or pc in self.roi_rips):
            self.entry_icount[thread.tid] = thread.icount


def _reference_roi_counts(image, seed):
    from repro.core.elfie import prepare_elfie_machine

    machine, loaded = prepare_elfie_machine(image, seed=seed)
    watcher = _ReferenceRoiWatcher(
        value for name, value in loaded.symbols.items()
        if name.startswith(".t") and name.endswith(".start"))
    machine.attach(watcher)
    machine.run()
    entries = watcher.entry_icount
    return ({tid: machine.threads[tid].icount - entry
             for tid, entry in entries.items()}, dict(entries))


@pytest.fixture(scope="module")
def four_thread_pinball():
    image = ProgramBuilder(
        name="mt", threads=4,
        phases=[PhaseSpec("compute", 4000, buffer_kb=16),
                PhaseSpec("stream", 4000, buffer_kb=16)],
    ).build()
    return log_region(image, RegionSpec(start=20000, length=40000,
                                        name="mt.r0"), seed=3)


@pytest.mark.parametrize("marker", [MarkerSpec("sniper", 0x42), None],
                         ids=["marker", "no-marker"])
@pytest.mark.parametrize("threads", [1, 4])
def test_roi_entry_counts_match_per_instruction_reference(
        loop_pinball, four_thread_pinball, marker, threads):
    pinball = loop_pinball if threads == 1 else four_thread_pinball
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=marker)).convert()
    run = run_elfie(artifact.image, seed=4)
    assert len(run.startup_icounts) == threads
    assert (run.app_icounts, run.startup_icounts) \
        == _reference_roi_counts(artifact.image, seed=4)


def test_elfie_without_perf_exit_runs_past_region(loop_pinball):
    """Without the graceful-exit counter the ELFie keeps running — here
    to the program's own exit (the captured program is self-contained)."""
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        perf_exit=False, marker=MarkerSpec("sniper", 1))).convert()
    run = run_elfie(artifact.image, seed=2)
    assert run.graceful
    assert run.app_icounts[0] > loop_pinball.threads[0].region_icount


def test_marker_encoding_round_trip():
    for marker_type, tag in (("sniper", 0x42), ("ssc", 0x1234),
                             ("simics", 0x7)):
        encoded = marker_tag(marker_type, tag)
        assert decode_marker(encoded) == (marker_type, tag)


def test_marker_spec_parse():
    spec = MarkerSpec.parse("ssc:0x10")
    assert spec.marker_type == "ssc"
    assert spec.tag == 0x10
    assert MarkerSpec.parse("99").marker_type == "sniper"
    with pytest.raises(ValueError):
        MarkerSpec("bogus", 1)


def test_marker_instruction_present_before_roi(loop_pinball):
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        marker=MarkerSpec("ssc", 0x77))).convert()
    from repro.core.elfie import prepare_elfie_machine

    machine, _ = prepare_elfie_machine(artifact.image, seed=0)
    seen = []

    class MarkerWatch(Tool):
        wants_instructions = True

        def on_instruction(self, machine, thread, pc, insn):
            if insn.op == Op.MARKER:
                seen.append(insn.operands[0])
                machine.request_stop("marker")

    machine.attach(MarkerWatch())
    machine.run(max_instructions=2_000_000)
    assert seen
    assert decode_marker(seen[0]) == ("ssc", 0x77)


def test_object_output_with_linker_script(loop_pinball):
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        output="object")).convert()
    elf = ElfFile(artifact.image)
    assert elf.header.e_type == ET_REL
    assert elf.segments == []
    assert artifact.linker_script is not None
    from repro.elf import LinkerScript

    script = LinkerScript.parse(artifact.linker_script)
    assert script.entry_symbol == "_elfie_start"
    assert script.regions


def test_context_dump_listing(loop_pinball):
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        dump_contexts=True)).convert()
    listing = artifact.context_listing
    assert listing is not None
    assert ".t0.rax:" in listing
    assert ".t0.rip:" in listing
    assert ".t0.xmm3:" in listing


def test_debug_symbols_present(basic_elfie):
    elf = ElfFile(basic_elfie.image)
    symbols = elf.symbol_map()
    assert "_elfie_start" in symbols
    assert ".t0.rax" in symbols
    assert ".t0.start" in symbols
    assert "elfie_on_start" in symbols
    # .t0.start is the captured rip
    assert symbols[".t0.start"] == symbols[".t0.start"]


def test_symbol_values_point_into_context(loop_pinball, basic_elfie):
    """.t0.rax must address the captured rax value inside the ELFie."""
    from repro.core.elfie import prepare_elfie_machine

    elf = ElfFile(basic_elfie.image)
    symbols = elf.symbol_map()
    machine, _ = prepare_elfie_machine(basic_elfie.image, seed=0)
    rax_addr = symbols[".t0.rax"]
    assert (int.from_bytes(machine.mem.read(rax_addr, 8), "little")
            == loop_pinball.threads[0].regs.get("rax"))
    flags_addr = symbols[".t0.rflags"]
    assert (int.from_bytes(machine.mem.read(flags_addr, 8), "little")
            == loop_pinball.threads[0].regs.flags.to_word())


def test_elfie_save_writes_artifacts(tmp_path, loop_pinball):
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        output="object", dump_contexts=True)).convert()
    path = str(tmp_path / "loop.elfie")
    artifact.save(path)
    assert (tmp_path / "loop.elfie").exists()
    assert (tmp_path / "loop.elfie.lds").exists()
    assert (tmp_path / "loop.elfie.ctx.s").exists()


def test_user_callback_code_is_linked(loop_pinball):
    user = """
elfie_on_start:
    mov rax, 1
    mov rdi, 2
    mov rsi, __user_msg
    mov rdx, 5
    syscall
    ret
__user_msg:
    .ascii "hello"
"""
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        perf_exit=True, user_code=user,
        user_defines=("elfie_on_start",))).convert()
    run = run_elfie(artifact.image, seed=0)
    assert run.stderr.startswith(b"hello")


def test_monitor_thread_calls_elfie_on_exit(loop_pinball):
    user = """
elfie_on_exit:
    mov rax, 1
    mov rdi, 2
    mov rsi, __exit_msg
    mov rdx, 4
    syscall
    ret
__exit_msg:
    .ascii "DONE"
"""
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        perf_exit=True, monitor=True, user_code=user,
        user_defines=("elfie_on_exit",))).convert()
    run = run_elfie(artifact.image, seed=0)
    assert run.graceful
    assert b"DONE" in run.stderr


def test_monitor_thread_without_user_exit_hook_links_the_default(
        loop_pinball):
    """``--monitor`` without a user ``elfie_on_exit`` links the silent
    default: the ELFie still stops gracefully on its counters."""
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        perf_exit=True, monitor=True)).convert()
    run = run_elfie(artifact.image, seed=0)
    assert run.graceful
    assert run.perfle_counters()


def test_sysstate_fd_preopen_end_to_end():
    """A file opened before the region is read inside it: a bare ELFie
    fails the read, a sysstate ELFie reproduces the data (§II-C2)."""
    source = """
    _start:
        mov rax, 2
        mov rdi, path
        mov rsi, 0
        syscall
        mov r14, rax
        mov rcx, 5000
    delay:
        sub rcx, 1
        cmp rcx, 0
        jnz delay
        mov rax, 0          ; read(fd, buf, 8) inside the region
        mov rdi, r14
        mov rsi, buf
        mov rdx, 8
        syscall
        mov r13, rax        ; bytes read
        mov rcx, 2000
    tail:
        sub rcx, 1
        cmp rcx, 0
        jnz tail
        mov rax, 231
        mov rdi, r13
        syscall
    path:
        .asciz "/inputs/data.bin"
    """
    image = build_executable(source, data_source="buf:\n.zero 16\n")
    fs = FileSystem()
    fs.create("/inputs/data.bin", b"PAYLOAD!")
    region = RegionSpec(start=3000, length=20000, name="fd.r0")
    pinball = log_region(image, region, fs=fs)
    state = extract_sysstate(pinball)
    assert state.fd_files

    # Bare ELFie: the read fails (no such descriptor) — control flow
    # continues with r13 = error.
    bare = Pinball2Elf(pinball, Pinball2ElfOptions(perf_exit=False)).convert()
    bare_run = run_elfie(bare.image, seed=1)
    assert bare_run.status.kind == "exit"
    assert bare_run.status.code != 8

    # Sysstate ELFie run in the sysstate workdir: read succeeds.
    sysstate_fs = FileSystem()
    workdir = state.write_to(sysstate_fs, "/sysstate")
    fixed = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=False, sysstate=state)).convert()
    fixed_run = run_elfie(fixed.image, seed=1, fs=sysstate_fs,
                          workdir=workdir)
    assert fixed_run.status.kind == "exit"
    assert fixed_run.status.code == 8
    # and the data read matches the original
    assert fixed_run.machine.mem.read(0x600000, 8) == b"PAYLOAD!"


def test_sysstate_brk_restore(loop_pinball):
    state = extract_sysstate(loop_pinball)
    artifact = Pinball2Elf(loop_pinball, Pinball2ElfOptions(
        sysstate=state)).convert()
    run = run_elfie(artifact.image, seed=0)
    assert run.graceful
    assert run.machine.kernel.brk_end == state.first_brk


def test_multithreaded_elfie_restores_all_threads():
    builder = ProgramBuilder(
        name="mt", threads=4,
        phases=[PhaseSpec("compute", 4000, buffer_kb=16),
                PhaseSpec("stream", 4000, buffer_kb=16)],
    )
    image = builder.build()
    region = RegionSpec(start=20000, length=40000, name="mt.r0")
    pinball = log_region(image, region, seed=3)
    assert pinball.num_threads == 4
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 9))).convert()
    run = run_elfie(artifact.image, seed=4)
    # all four threads entered application code
    assert len(run.startup_icounts) == 4
    assert run.graceful or run.status.kind == "exit"


def test_multithreaded_elfie_icount_varies_with_seed():
    """ELFie non-determinism: with no per-thread exit counters, spin
    loops make per-thread instruction counts differ across scheduler
    seeds (the Fig. 11 effect)."""
    builder = ProgramBuilder(
        name="mtnd", threads=4,
        phases=[PhaseSpec("compute", 3000, buffer_kb=16),
                PhaseSpec("pointer_chase", 3000, buffer_kb=16)],
    )
    image = builder.build()
    region = RegionSpec(start=15000, length=30000, name="mtnd.r0")
    pinball = log_region(image, region, seed=3)
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=False)).convert()
    distributions = set()
    for seed in range(4):
        run = run_elfie(artifact.image, seed=seed,
                        max_instructions=600_000)
        per_thread = tuple(sorted(
            t.icount for t in run.machine.threads.values()))
        distributions.add(per_thread)
    assert len(distributions) > 1


#: A program whose tail lives on a .text page far from its hot loop:
#: a region captured inside the loop never touches the tail page.
ESCAPE_SOURCE = """
_start:
    mov rcx, 30000
region_loop:
    ld rax, [here]
    add rax, 1
    st [here], rax
    sub rcx, 1
    cmp rcx, 0
    jnz region_loop
    mov rdx, far_away
    jmp rdx
.align 4096
.zero 8192
far_away:
    mov rax, 231
    mov rdi, 77
    syscall
"""

ESCAPE_DATA = """
here:
    .quad 0
"""


def test_lazy_pinball_elfie_dies_on_missing_page():
    """The graceful-exit challenge: an ELFie from a lazy (non-fat)
    pinball is missing pages; running past the captured region reaches
    one and dies (paper §I-B)."""
    image = build_executable(ESCAPE_SOURCE, data_source=ESCAPE_DATA)
    region = RegionSpec(start=10000, length=5000)
    pinball = log_region(image, region, LogOptions(fat=False))
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions()).convert()
    run = run_elfie(artifact.image, seed=0, max_instructions=2_000_000)
    assert run.status.kind == "signal"
    assert run.status.signal in (4, 11)


def test_fat_pinball_elfie_survives_where_lazy_dies():
    image = build_executable(ESCAPE_SOURCE, data_source=ESCAPE_DATA)
    region = RegionSpec(start=10000, length=5000)
    fat = log_region(image, region, LogOptions(fat=True))
    artifact = Pinball2Elf(fat, Pinball2ElfOptions()).convert()
    run = run_elfie(artifact.image, seed=0, max_instructions=2_000_000)
    assert run.status.kind == "exit"
    assert run.status.code == 77


# -- startup stack copy: only the live span ----------------------------------


def _state_at_marker(pinball):
    """Convert with a ROI marker and run the ELFie's startup up to it:
    ``(instructions before the marker, machine)``."""
    from repro.core.elfie import prepare_elfie_machine, run_to_marker

    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 5))).convert()
    machine, _ = prepare_elfie_machine(artifact.image, seed=1)
    before, status = run_to_marker(machine, 10**7)
    assert before is not None, status
    return before[0], machine


def _assert_stack_restored(pinball, machine):
    stack_start, stack_end = pinball.stack_range()
    for addr in range(stack_start, stack_end, PAGE_SIZE):
        assert machine.mem.page_bytes(addr // PAGE_SIZE) \
            == pinball.pages[addr][1], hex(addr)


@pytest.mark.parametrize("threads", [1, 4])
def test_remapped_stack_equals_captured_pages_at_marker(
        loop_pinball, four_thread_pinball, threads):
    pinball = loop_pinball if threads == 1 else four_thread_pinball
    _, machine = _state_at_marker(pinball)
    _assert_stack_restored(pinball, machine)


@pytest.mark.parametrize("threads", [1, 4])
def test_startup_retires_few_instructions_before_marker(
        loop_pinball, four_thread_pinball, threads):
    """The zero-filled remap leaves only the live stack words to copy,
    not the whole captured run."""
    pinball = loop_pinball if threads == 1 else four_thread_pinball
    before, _ = _state_at_marker(pinball)
    assert before <= 512


def _with_stack_words(pinball, words):
    """*pinball* with its stack run replaced by zeros plus *words*
    (word index -> value)."""
    stack_start, stack_end = pinball.stack_range()
    run = bytearray(stack_end - stack_start)
    for index, value in words.items():
        struct.pack_into("<Q", run, 8 * index, value)
    pages = dict(pinball.pages)
    for addr in range(stack_start, stack_end, PAGE_SIZE):
        offset = addr - stack_start
        pages[addr] = (pages[addr][0], bytes(run[offset:offset + PAGE_SIZE]))
    return dataclasses.replace(pinball, pages=pages)


def test_all_zero_stack_emits_no_copy_loop_and_no_staging(loop_pinball):
    pinball = _with_stack_words(loop_pinball, {})
    generator = StartupGenerator(pinball, perf_exit=True)
    ((_start, _length, _offset, staged),) = generator._stack_runs()
    assert staged == b""
    asm = Assembler()
    generator.emit(asm)
    labels = asm.assemble().labels
    assert "__elfie_copy_0" not in labels
    assert "__elfie_staging_0" not in labels
    _, machine = _state_at_marker(pinball)
    _assert_stack_restored(pinball, machine)


@pytest.mark.parametrize("words,span", [
    ({0: 0x1100}, (0, 1)),                          # lowest word only
    ({8191: 0x2222}, (8191 * 8, 1)),                # highest word only
    ({0: 1, 8191: 2 << 56}, (0, 8192)),             # both ends
    ({300: 3 << 40, 302: 4, 4000: 5}, (2400, 3701)),  # zero gaps inside
], ids=["lowest", "highest", "both-ends", "gaps"])
def test_stack_copy_spans_first_to_last_nonzero_word(loop_pinball, words,
                                                     span):
    pinball = _with_stack_words(loop_pinball, words)
    start, end = pinball.stack_range()
    assert end - start == 8192 * 8
    ((_start, _length, offset, staged),) = StartupGenerator(
        pinball)._stack_runs()
    assert (offset, len(staged) // 8) == span
    _, machine = _state_at_marker(pinball)
    _assert_stack_restored(pinball, machine)


@pytest.mark.parametrize("stack_fix", [True, False])
def test_startup_is_emitted_once_like_the_two_pass_reference(
        loop_pinball, monkeypatch, stack_fix):
    """One emission at base 0, then placement, gives the same ELFie as
    sizing at a probe base and emitting afresh at the chosen base."""
    from repro.core import pinball2elf

    options = Pinball2ElfOptions(perf_exit=True, stack_fix=stack_fix,
                                 marker=MarkerSpec("sniper", 5))
    bases = []
    emit = StartupGenerator.emit

    def counting_emit(self, asm):
        bases.append(asm.base)
        return emit(self, asm)

    monkeypatch.setattr(StartupGenerator, "emit", counting_emit)
    single = Pinball2Elf(loop_pinball, options).convert()
    assert bases == [0]

    class TwoPass(Assembler):
        def assemble(self):
            placed = Assembler(base=self.base)
            StartupGenerator(loop_pinball, marker=options.marker,
                             perf_exit=True,
                             remap_stack=stack_fix).emit(placed)
            return placed.assemble()

    monkeypatch.setattr(pinball2elf, "Assembler", TwoPass)
    reference = Pinball2Elf(loop_pinball, options).convert()
    assert bases == [0, 0, single.startup_base]
    assert reference.image == single.image


SHM_SOURCE = """
_start:
    mov rax, 29             ; shmget(IPC_PRIVATE, 4096): stays attached
    mov rdi, 0
    mov rsi, 4096
    mov rdx, 512
    syscall
    mov rdi, rax
    mov rax, 30
    mov rsi, 0
    mov rdx, 0
    syscall
    mov r12, rax
    mov rcx, 0x1122334455
    st [r12+24], rcx        ; leading zero words
    mov rcx, 7
    st [r12+800], rcx       ; zero gap, then trailing zero words
    mov rax, 29             ; shmget(key 9, 100): detached at capture
    mov rdi, 9
    mov rsi, 100
    mov rdx, 512
    syscall
    mov rdi, rax
    mov rax, 30
    mov rsi, 0
    mov rdx, 0
    syscall
    mov r13, rax
    mov rcx, 0x66
    st [r13+16], rcx
    mov rcx, 0x77777777
    st4 [r13+96], rcx       ; the segment's last, partial word
    mov rax, 67
    mov rdi, r13
    syscall
    mov rcx, 20000
loop:
    ld rax, [r12+24]
    add rax, rcx
    st [r12+24], rax
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
"""


def test_shm_segments_restore_byte_identical_content():
    """Attached and detached segments come back byte for byte although
    only their non-zero spans are staged and copied."""
    image = build_executable(SHM_SOURCE)
    pinball = log_region(image, RegionSpec(start=5000, length=20000,
                                           name="shm.r0"))
    segments = pinball.shm_segments
    assert sorted(seg["attached_at"] is None
                  for seg in segments.values()) == [False, True]
    generator = StartupGenerator(pinball)
    for shmid, segment in segments.items():
        offset, staged = generator._shm_staging(segment)
        assert offset > 0
        assert staged[:8] != bytes(8) and staged[-8:] != bytes(8)
    _, machine = _state_at_marker(pinball)
    kernel = machine.kernel
    for shmid, segment in segments.items():
        restored = kernel.shm_segments[shmid]
        size = segment["size"]
        if segment["attached_at"] is None:
            assert restored.attached_at is None
            assert bytes(restored.data) == bytes.fromhex(segment["data"])
        else:
            base = segment["attached_at"]
            assert restored.attached_at == base
            captured = b"".join(
                pinball.pages[addr][1]
                for addr in range(base, base + restored.attached_len,
                                  PAGE_SIZE))
            assert machine.mem.read(base, size, access=0x1) \
                == captured[:size]


# -- socket restore: pairs, listeners, unconnected sockets --------------------

SOCKETS_SOURCE = """
_start:
    mov rax, 53             ; socketpair(AF_UNIX, SOCK_STREAM): fds 3, 4
    mov rdi, 1
    mov rsi, 1
    mov rdx, 0
    mov r10, pair
    syscall
    mov rcx, pair
    ld4 rdi, [rcx]
    mov rax, 1              ; 5 bytes from end 0, unread by end 1
    mov rsi, ping
    mov rdx, 5
    syscall
    mov rcx, pair
    ld4 rdi, [rcx+4]
    mov rax, 1              ; 9 bytes from end 1, unread by end 0
    mov rsi, pong
    mov rdx, 9
    syscall
    mov rax, 41             ; socket(AF_INET): fd 5
    mov rdi, 2
    mov rsi, 1
    mov rdx, 0
    syscall
    mov r12, rax
    mov rax, 49             ; bind(fd 5, port 8080)
    mov rdi, r12
    mov rsi, sockaddr
    syscall
LISTEN
    mov rax, 41             ; socket(AF_UNIX): fd 6, never connected
    mov rdi, 1
    mov rsi, 1
    mov rdx, 0
    syscall
    mov rcx, 20000
loop:
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
"""

SOCKETS_DATA = """
pair:
.quad 0
sockaddr:
.quad 0x901f0002
.quad 0
ping:
.ascii "ping!"
pong:
.ascii "pong-pong"
"""

LISTEN_SOURCE = """
    mov rax, 50             ; listen(fd 5, backlog 3)
    mov rdi, r12
    mov rsi, 3
    syscall
"""


def _sockets_pinball(listen=True):
    source = SOCKETS_SOURCE.replace("LISTEN",
                                    LISTEN_SOURCE if listen else "")
    image = build_executable(source, data_source=SOCKETS_DATA)
    return log_region(image, RegionSpec(start=100, length=20000,
                                        name="sockets.r0"))


@pytest.fixture(scope="module")
def sockets_at_marker():
    pinball = _sockets_pinball()
    _, machine = _state_at_marker(pinball)
    return pinball, machine


def _socket_records(pinball):
    return {record.fd: record for record in pinball.open_files
            if record.kind == "socket"}


def test_socketpair_restores_buffered_bytes_both_ways(sockets_at_marker):
    pinball, machine = sockets_at_marker
    records = _socket_records(pinball)
    fdt = machine.kernel.fdt
    ends = [fd for fd, record in records.items()
            if record.read_cid is not None]
    assert ends == [3, 4]
    for fd in ends:
        restored = fdt.entry(fd)
        assert restored.kind == "socket"
        # same buffered bytes and descriptor counts on each inbound
        # and outbound channel as at capture
        assert restored.read_ch.to_json() \
            == pinball.channels[records[fd].read_cid]
        assert restored.write_ch.to_json() \
            == pinball.channels[records[fd].write_cid]
    assert bytes(fdt.entry(3).read_ch.data) == b"pong-pong"
    assert bytes(fdt.entry(4).read_ch.data) == b"ping!"
    assert fdt.entry(3).write_ch is fdt.entry(4).read_ch
    assert fdt.entry(4).write_ch is fdt.entry(3).read_ch


def test_listener_restores_port_and_backlog(sockets_at_marker):
    pinball, machine = sockets_at_marker
    record = _socket_records(pinball)[5]
    assert record.bound_port == 8080
    restored = machine.kernel.fdt.entry(5)
    assert (restored.kind, restored.bound_port) == ("socket", 8080)
    assert (restored.read_ch, restored.write_ch) == (None, None)
    listener = machine.kernel._listeners[8080]
    assert listener.backlog == pinball.listeners[8080]["backlog"] == 3
    assert listener.queue == []


def test_unconnected_socket_restores_unconnected(sockets_at_marker):
    pinball, machine = sockets_at_marker
    record = _socket_records(pinball)[6]
    assert (record.read_cid, record.write_cid, record.bound_port) \
        == (None, None, None)
    restored = machine.kernel.fdt.entry(6)
    assert (restored.kind, restored.read_ch, restored.write_ch,
            restored.bound_port) == ("socket", None, None, None)
    assert sorted(machine.kernel.fdt.open_fds()) \
        == sorted([0, 1, 2] + list(_socket_records(pinball)))


def test_bound_socket_without_listener_record_is_refused():
    pinball = _sockets_pinball(listen=False)
    assert _socket_records(pinball)[5].bound_port == 8080
    assert 8080 not in pinball.listeners
    with pytest.raises(ValueError, match="port 8080"):
        Pinball2Elf(pinball, Pinball2ElfOptions()).convert()


def test_snapshot_round_trips_socket_state():
    """A machine checkpoint taken with the sockets open restores the
    same listener, pair buffers and descriptors."""
    from repro.machine.loader import load_elf
    from repro.machine.machine import Machine
    from repro.snapshot import capture, restore, snapshot_digest

    image = build_executable(SOCKETS_SOURCE.replace("LISTEN", LISTEN_SOURCE),
                             data_source=SOCKETS_DATA)
    machine = Machine(seed=0)
    load_elf(machine, image)
    assert machine.run(max_instructions=100).kind == "stopped"
    snapshot = capture(machine)
    resumed = restore(snapshot)
    listener = resumed.kernel._listeners[8080]
    assert (listener.port, listener.backlog, listener.queue) \
        == (8080, 3, [])
    assert bytes(resumed.kernel.fdt.entry(3).read_ch.data) == b"pong-pong"
    assert snapshot_digest(capture(resumed)) == snapshot_digest(snapshot)


SIGNALS_SOURCE = """
_start:
    mov rax, 13             ; rt_sigaction(SIGUSR1, handler)
    mov rdi, 10
    mov rsi, action
    mov rdx, 0
    syscall
    mov rax, 14             ; rt_sigprocmask(SIG_BLOCK, {SIGUSR1, SIGUSR2})
    mov rdi, 0
    mov rsi, blocked
    mov rdx, 0
    syscall
    mov rax, 39             ; getpid
    syscall
    mov rdi, rax
    mov rax, 62             ; kill(pid, SIGUSR1): pending for the process
    mov rsi, 10
    syscall
    mov rax, 200            ; tkill(0, SIGUSR2): pending for the thread
    mov rdi, 0
    mov rsi, 12
    syscall
    mov rcx, 20000
loop:
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
handler:
    ret
"""

SIGNALS_DATA = """
action:
.quad handler
.quad 0
blocked:
.quad 0xa00
"""


def test_pending_signals_are_raised_again_before_the_roi():
    """Blocked signals pending at region start are pending again, on
    the process and on the thread, when the ELFie reaches its marker;
    the handler and the mask come back with them."""
    image = build_executable(SIGNALS_SOURCE, data_source=SIGNALS_DATA)
    pinball = log_region(image, RegionSpec(start=100, length=20000,
                                           name="signals.r0"))
    (record,) = pinball.threads
    assert pinball.process_pending == 1 << 9
    assert (record.pending, record.sigmask) == (1 << 11, 0xa00)
    _, machine = _state_at_marker(pinball)
    kernel = machine.kernel
    (thread,) = machine.threads.values()
    assert kernel.process_pending == pinball.process_pending
    assert (thread.pending, thread.sigmask) \
        == (record.pending, record.sigmask)
    assert kernel.sigactions == pinball.sigactions


SHM_GAP_SOURCE = """
_start:
    mov rax, 29             ; shmget(IPC_PRIVATE) -> id 1
    mov rdi, 0
    mov rsi, 64
    mov rdx, 512
    syscall
    mov rdi, rax
    mov rax, 31             ; shmctl(id 1, IPC_RMID): id 1 is gone
    mov rsi, 0
    mov rdx, 0
    syscall
    mov rax, 29             ; shmget(key 7) -> id 2, detached
    mov rdi, 7
    mov rsi, 64
    mov rdx, 512
    syscall
    mov rcx, 20000
loop:
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
"""


def test_removed_shm_id_is_burned_so_live_segments_keep_their_ids():
    image = build_executable(SHM_GAP_SOURCE)
    pinball = log_region(image, RegionSpec(start=100, length=20000,
                                           name="shmgap.r0"))
    assert sorted(pinball.shm_segments) == [2]
    assert pinball.next_shmid == 3
    _, machine = _state_at_marker(pinball)
    kernel = machine.kernel
    assert sorted(kernel.shm_segments) == [2]
    assert kernel.shm_segments[2].key == 7
    assert kernel._next_shmid == pinball.next_shmid
