"""The timing core that Sniper, gem5 and CoreSim share (paper §III-C).

Every simulator counts ROI instructions at ``1/width`` cycles each,
resolves conditional branches through a bimodal predictor, adds
long-op costs, snapshots the warmup window, stops at a budget or a
``(PC, count)`` end condition, and charges fetches and data accesses
through a core's caches.  :class:`TimingTool` does that work once; a
simulator is a :class:`TimingSim` whose ``_tool`` supplies only its
cost policy: cores, long-op table, charging rules and, for CoreSim, a
kernel model.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.elfie import simulate_roi
from repro.isa.instructions import COND_BRANCH_SIZE, Op
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.simulators.branch import BranchPredictor
from repro.simulators.cachesim import Cache, Tlb
from repro.simulators.kernelmodel import KernelModel

#: An instruction count that is never reached.
_NEVER = sys.maxsize


class TimingCore:
    """One core: private L1I/L1D and L2 (and TLBs, *with_tlbs*) under
    the shared *llc*, a branch predictor, and the cycles and
    instructions charged to it."""

    def __init__(self, llc: Cache, mispredict_penalty: int, l1_kb: int,
                 l2_kb: int, with_tlbs: bool = False,
                 tlb_entries: int = 64, tlb_penalty: int = 30) -> None:
        self.llc = llc
        self.l2 = Cache("L2", l2_kb, 8, 10, parent=llc)
        self.l1d = Cache("L1D", l1_kb, 8, 2, parent=self.l2)
        self.l1i = Cache("L1I", l1_kb, 8, 2, parent=self.l2)
        self.dtlb = self.itlb = None
        if with_tlbs:
            self.dtlb = Tlb("DTLB", tlb_entries, tlb_penalty)
            self.itlb = Tlb("ITLB", tlb_entries * 2, tlb_penalty)
        self.predictor = BranchPredictor(
            mispredict_penalty=mispredict_penalty)
        self.cycles = 0.0
        self.instructions = 0
        #: ``(pc, fallthrough)`` of the branch the next instruction
        #: resolves.
        self.pending: Optional[Tuple[int, int]] = None
        #: Next-line prefetches issued (CoreSim).
        self.prefetches = 0

    def data_access(self, addr: int) -> int:
        """The full latency of a data access."""
        cycles = self.l1d.access(addr)
        if self.dtlb is not None:
            cycles += self.dtlb.access(addr)
        return cycles

    def fetch_access(self, addr: int) -> int:
        """The full latency of an instruction fetch."""
        cycles = self.l1i.access(addr)
        if self.itlb is not None:
            cycles += self.itlb.access(addr)
        return cycles


#: A charging rule: the cycles that one fetch or data access costs a core.
Charge = Callable[[TimingCore, int], float]


class TimingTool(Tool):
    """The timing model of every simulator, attached for the ROI only.

    Thread ``tid`` runs on core ``tid % len(cores)``.  Fetches and data
    accesses cost what *fetch_cost* and *data_cost* charge (full
    latency by default).  The machine is stopped at the ``(end_pc,
    end_count)`` end condition or once ``warmup_budget + roi_budget``
    instructions retired.  *kernel*, if given, charges each system
    call and, every ``kernel.interval`` instructions unless that is
    None, a timer interrupt.
    """

    wants_instructions = True
    wants_memory = True
    wants_blocks = True

    def __init__(self, name: str, cores: List[TimingCore], width: int,
                 long_ops: Optional[Dict[Op, float]] = None,
                 fetch_cost: Charge = TimingCore.fetch_access,
                 data_cost: Charge = TimingCore.data_access,
                 kernel: Optional[KernelModel] = None,
                 budget_stop: str = "budget",
                 roi_budget: Optional[int] = None, warmup_budget: int = 0,
                 end_pc: Optional[int] = None, end_count: int = 0) -> None:
        self.name = name
        self.cores = cores
        self._ncores = len(cores)
        self._instr_cost = 1.0 / width
        #: opcode -> (extra cycles, conditional-branch size or 0)
        self._op_charges = {op: (0.0, size)
                            for op, size in COND_BRANCH_SIZE.items()}
        self._op_charges.update(
            (op, (cost, 0)) for op, cost in (long_ops or {}).items())
        self.fetch_cost = fetch_cost
        self.data_cost = data_cost
        self.kernel = kernel
        self._budget_stop = budget_stop
        self.instructions = 0
        self.warmup_budget = warmup_budget
        #: ``(instructions, cycles)`` when the warmup window ended.
        self.warmup = None if warmup_budget else (0, 0.0)
        self._stop_at = (_NEVER if roi_budget is None
                         else roi_budget + warmup_budget)
        interval = kernel.interval if kernel is not None else None
        self._tick_at = interval or _NEVER
        self.end_pc = end_pc
        self.end_count = end_count
        self._end_seen = 0
        #: The next count with work for :meth:`_count_reached`.
        self._next = 0

    def mispredict_rate(self) -> float:
        lookups = sum(core.predictor.lookups for core in self.cores)
        mispredicts = sum(core.predictor.mispredicts for core in self.cores)
        return mispredicts / lookups if lookups else 0.0

    def measured(self) -> Optional[Tuple[int, float]]:
        """``(instructions, cycles)`` after the warmup window, or None if
        the run ended inside it (single-core simulators)."""
        if self.warmup is None:
            return None
        instructions, cycles = self.warmup
        return self.instructions - instructions, self.cores[0].cycles - cycles

    def _stop(self, machine, pc: int, reason: str) -> None:
        hooks.OBS.instant(self.name + ".roi_exit", self.name,
                          reason=reason, pc=pc)
        machine.request_stop("%s %s" % (self.name, reason))

    def _count_reached(self, machine, core: TimingCore, pc: int) -> None:
        """The timer tick, the warmup's end and the budget, in that
        order; then the next count at which one of them is due."""
        count = self.instructions
        if count == self._tick_at:
            self._tick_at += self.kernel.interval
            self.kernel.timer(core)
        if self.warmup is None and count >= self.warmup_budget:
            self.warmup = (count, core.cycles)
        if count >= self._stop_at:
            self._stop(machine, pc, self._budget_stop)
        warmup_end = self.warmup_budget if self.warmup is None else _NEVER
        self._next = min(self._tick_at, self._stop_at, warmup_end)

    def on_instruction(self, machine, thread, pc, insn) -> None:
        core = self.cores[thread.tid % self._ncores]
        pending = core.pending
        if pending is not None:
            core.pending = None
            core.cycles += core.predictor.predict_and_update(
                pending[0], pc != pending[1])
        core.cycles += self._instr_cost
        core.instructions += 1
        self.instructions += 1
        charge = self._op_charges.get(insn.op)
        if charge is not None:
            cost, size = charge
            if size:
                core.pending = (pc, pc + size)
            else:
                core.cycles += cost
        if pc == self.end_pc:
            self._end_seen += 1
            if self._end_seen >= self.end_count:
                self._stop(machine, pc, "end condition")
                return
        if self.instructions >= self._next:
            self._count_reached(machine, core, pc)

    def on_basic_block(self, machine, thread, pc) -> None:
        core = self.cores[thread.tid % self._ncores]
        core.cycles += self.fetch_cost(core, pc)

    def on_memory_read(self, machine, thread, addr, size) -> None:
        core = self.cores[thread.tid % self._ncores]
        core.cycles += self.data_cost(core, addr)

    on_memory_write = on_memory_read

    def on_syscall_after(self, machine, thread, number, result) -> None:
        if self.kernel is not None:
            self.kernel.syscall(self.cores[thread.tid % self._ncores],
                                number)


class TimingResult:
    """``ipc`` and ``cpi`` over the instruction and cycle counts that a
    result names in ``RATE``."""

    RATE = ("instructions", "runtime_cycles")

    @property
    def ipc(self) -> float:
        instructions, cycles = (getattr(self, name) for name in self.RATE)
        return instructions / cycles if cycles else 0.0

    @property
    def cpi(self) -> float:
        ipc = self.ipc
        return 1.0 / ipc if ipc else 0.0


class TimingSim:
    """A simulator front-end: ``_tool(**stops)`` builds its policy into a
    :class:`TimingTool` and ``_finish(tool, status)`` reads the result."""

    def simulate_elfie(self, image: bytes,
                       roi_budget: Optional[int] = None,
                       warmup_budget: int = 0,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       max_instructions: int = 50_000_000):
        """Load and simulate an ELFie, its startup skipped via the ROI
        marker: the simulators need no modification for ELFies.

        *warmup_budget* ROI instructions warm caches, TLBs and the
        predictor before the measured window of *roi_budget*
        instructions begins (the PinPoints warmup methodology).
        """
        return self._simulate(image, seed, fs, workdir, max_instructions,
                              roi_budget=roi_budget,
                              warmup_budget=warmup_budget)

    def _simulate(self, image: bytes, seed: int, fs: Optional[FileSystem],
                  workdir: str, max_instructions: int,
                  scheduler=None, **stops):
        """Simulate an ELFie's ROI; *scheduler*, if given, builds the
        machine's scheduler from the tool."""
        tool = self._tool(**stops)
        name = tool.name
        with hooks.OBS.span(name + ".simulate_elfie", name):
            status, _ = simulate_roi(
                image, tool, max_instructions, seed=seed, fs=fs,
                workdir=workdir,
                scheduler=scheduler(tool) if scheduler else None,
                on_enter=lambda tid, pc: hooks.OBS.instant(
                    name + ".roi_enter", name, tid=tid, pc=pc))
        return self._finish(tool, status)
