"""Basic-block-vector (BBV) profiling.

SimPoint's feature is the per-slice frequency vector of executed basic
blocks.  The profiler drives the machine in exact ``slice_size``-
instruction chunks from the host, so slice boundaries align perfectly
with the global instruction counts the logger later uses to capture the
selected regions.

As a bonus for validation, the profiler records per-slice cycle counts,
which makes the *true* whole-program CPI (and the per-slice CPI
timeline) available from the same run — this is what the paper computes
with a whole-program native run on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.elf.reader import ElfFile
from repro.elf.structs import PF_X, PT_LOAD
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem


def _text_base(image: bytes) -> int:
    """Lowest executable-segment address: the module's code base."""
    elf = ElfFile(image)
    bases = [s.p_vaddr for s in elf.segments
             if s.p_type == PT_LOAD and s.p_flags & PF_X]
    return min(bases) if bases else 0


class _BlockCounter(Tool):
    """Counts basic-block entries, weighted by block instruction length.

    Block length is measured as the retired-instruction delta between
    consecutive block entries of the same thread, which for a stable
    loop equals the static block length (the standard BBV weighting).
    A block-only tool: it needs no per-instruction callback, so BBV
    profiling runs on the interpreter's superblock fast path, and it
    accepts loop exits, so compiled loops keep spinning under it: each
    spin adds ``count * size`` per member, and the member the spin
    stopped in is the open block from where it was entered (*partial*
    instructions back) -- the counts the member entries would have
    summed to.

    Vector keys are module+offset-relative (block pc minus the module's
    text base), so a profile of the same module loaded at a different
    base — ASLR — produces identical vectors.
    """

    wants_instructions = False
    wants_blocks = True
    accepts_loop_exits = True

    def __init__(self, module_base: int = 0) -> None:
        self.module_base = module_base
        self.current: Dict[int, int] = {}
        self._open_block: Dict[int, int] = {}   # tid -> block offset
        self._open_icount: Dict[int, int] = {}  # tid -> icount at entry

    def on_basic_block(self, machine, thread, pc) -> None:
        tid = thread.tid
        previous = self._open_block.get(tid)
        if previous is not None:
            retired = thread.icount - self._open_icount[tid]
            if retired:
                self.current[previous] = (
                    self.current.get(previous, 0) + retired)
        self._open_block[tid] = pc - self.module_base
        self._open_icount[tid] = thread.icount

    def on_loop_exit(self, machine, thread, pc, members, counts, stop,
                     partial) -> None:
        # The head's entry opened it; the counts include that run, so
        # the spin replaces the open block instead of closing it.
        base = pc - self.module_base
        current = self.current
        for (offset, size), count in zip(members, counts):
            if count:
                key = base + offset
                current[key] = current.get(key, 0) + count * size
        self._open_block[thread.tid] = base + members[stop][0]
        self._open_icount[thread.tid] = thread.icount - partial

    def take(self, machine) -> Dict[int, int]:
        # Attribute the instructions retired in each still-open block to
        # this slice, then roll the open blocks into the next one.
        for tid, pc in self._open_block.items():
            thread = machine.threads[tid]
            retired = thread.icount - self._open_icount[tid]
            if retired:
                self.current[pc] = self.current.get(pc, 0) + retired
                self._open_icount[tid] = thread.icount
        vector = self.current
        self.current = {}
        return vector


@dataclass
class BBVProfile:
    """Result of a whole-program BBV profiling run."""

    slice_size: int
    #: One frequency vector per slice: block offset (pc relative to
    #: ``module_base``) -> weighted count.  Module-relative keys make
    #: profiles comparable across load addresses (ASLR).
    vectors: List[Dict[int, int]]
    #: Cycles consumed by each slice (same hardware timing model).
    slice_cycles: List[int]
    #: Instructions actually retired in each slice (the last slice of a
    #: program is usually short).
    slice_icounts: List[int]
    total_icount: int = 0
    total_cycles: int = 0
    exit_kind: str = "exit"
    #: Text base the block offsets are relative to.
    module_base: int = 0

    @property
    def num_slices(self) -> int:
        return len(self.vectors)

    @property
    def whole_program_cpi(self) -> float:
        """The true whole-program CPI on the native hardware model."""
        if self.total_icount == 0:
            return 0.0
        return self.total_cycles / self.total_icount

    def slice_cpi(self, index: int) -> float:
        if self.slice_icounts[index] == 0:
            return 0.0
        return self.slice_cycles[index] / self.slice_icounts[index]


def collect_bbv(image: bytes, slice_size: int, seed: int = 0,
                fs: Optional[FileSystem] = None,
                argv: Optional[Sequence[str]] = None,
                max_slices: int = 1_000_000,
                preemptible: bool = False) -> BBVProfile:
    """Profile a program into per-slice basic-block vectors.

    The run is driven in exact ``slice_size`` chunks; the returned
    profile's slice boundaries therefore land on exact global
    instruction counts.

    With *preemptible* the profiler cooperates with the snapshot
    subsystem's preemption context: it polls for a preemption request
    at every slice boundary and, when one arrives, captures a machine
    snapshot carrying the profiling progress in ``extra`` and raises
    :class:`~repro.snapshot.preempt.Preempted`.  On entry it first
    claims any parked ``kind == "bbv"`` resume snapshot and continues
    the interrupted profile instead of starting cold — the slice
    boundaries (and therefore the resulting profile) are identical to
    an uninterrupted run because mid-quantum suspension is
    schedule-transparent.
    """
    if slice_size <= 0:
        raise ValueError("slice_size must be positive")

    vectors: List[Dict[int, int]] = []
    slice_cycles: List[int] = []
    slice_icounts: List[int] = []
    cycles_before = 0
    start_index = 0
    machine = None
    counter = _BlockCounter(module_base=_text_base(image))
    if preemptible:
        from repro.snapshot import preempt, restore
        parked = preempt.take_resume(kind="bbv")
        if parked is not None:
            machine = restore(parked, tools=[counter])
            extra = parked.extra
            start_index = int(extra["index"])
            vectors = [{int(pc): int(count) for pc, count in pairs}
                       for pairs in extra["vectors"]]
            slice_cycles = [int(c) for c in extra["slice_cycles"]]
            slice_icounts = [int(c) for c in extra["slice_icounts"]]
            cycles_before = int(extra["cycles_before"])
    if machine is None:
        machine = Machine(seed=seed, fs=fs)
        load_elf(machine, image, argv=argv)
        machine.attach(counter)

    status = None
    for index in range(start_index, max_slices):
        if preemptible and preempt.requested():
            from repro.snapshot import Preempted, capture
            # JSON canonicalization would stringify int dict keys, so
            # the vectors travel as [pc, count] pair lists.
            raise Preempted(capture(machine, extra={
                "kind": "bbv",
                "index": index,
                "vectors": [sorted(v.items()) for v in vectors],
                "slice_cycles": slice_cycles,
                "slice_icounts": slice_icounts,
                "cycles_before": cycles_before,
            }), reason="bbv profile preempted at slice %d" % index)
        boundary = (index + 1) * slice_size
        status = machine.run(max_instructions=boundary)
        icount_now = machine.executed_total
        cycles_now = machine.total_cycles()
        executed = icount_now - index * slice_size
        if executed > 0:
            vectors.append(counter.take(machine))
            slice_cycles.append(cycles_now - cycles_before)
            slice_icounts.append(executed)
        cycles_before = cycles_now
        if status.kind != "stopped":
            break
    machine.detach(counter)
    return BBVProfile(
        slice_size=slice_size,
        vectors=vectors,
        slice_cycles=slice_cycles,
        slice_icounts=slice_icounts,
        total_icount=machine.executed_total,
        total_cycles=machine.total_cycles(),
        exit_kind=status.kind if status else "exit",
        module_base=counter.module_base,
    )
