"""A Sniper-like multi-core simulator (paper §III-C1, §IV-B).

Sniper is a Pin-based x86 multi-core simulator; this model is likewise
built as an instrumentation tool over the platform's Pin-style hooks.
It simulates:

- **ELFies** without any simulator modification: load the binary, run
  the startup to the ROI marker with no tool attached (compiled, via
  :func:`~repro.core.elfie.simulate_roi`), then attach the timing tool
  and simulate until an end condition — either a ``(PC, count)`` pair
  (the paper's choice for multi-threaded regions, with the count
  determined by a separate profiling run) or an aggregate instruction
  budget;
- **pinballs** in constrained-replay mode (Sniper + PinPlay library):
  system-call injection and the recorded thread order are enforced
  while the same timing model runs, so thread interleaving is
  pre-determined — which is what makes constrained simulation able to
  introduce artificial stalls (the Fig. 11 contrast).

The core model is interval-flavoured: a dispatch-width base cost plus
penalties from private L1/L2, a shared LLC, and a bimodal branch
predictor.  Threads map to cores round-robin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.elfie import simulate_roi
from repro.isa.instructions import COND_BRANCH_SIZE, Op
from repro.machine.machine import ExitStatus
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.pinball import Pinball
from repro.machine.scheduler import Scheduler, intern_slice
from repro.pinplay.replayer import ReplaySession
from repro.simulators.branch import BranchPredictor
from repro.simulators.cachesim import Cache, CacheHierarchy


class _TimingDrivenScheduler(Scheduler):
    """Advance the thread whose simulated core time is furthest behind.

    Real Sniper interleaves threads by simulated cycles, not retired
    instructions.  Under this policy a thread spinning at a barrier
    (high IPC, few misses) retires many more instructions per simulated
    cycle than a thread doing cache-missing work — which is exactly why
    unconstrained multi-threaded ELFie simulations retire *more*
    instructions than their constrained pinball replays (Fig. 11).
    """

    def __init__(self, tool: "_SniperTool", quantum: int = 64) -> None:
        super().__init__(seed=0, base_quantum=quantum, jitter=0.0)
        self._tool = tool

    def choose(self, tids):
        cycles = self._tool.core_cycles
        cores = self._tool.config.cores
        tid = min(tids, key=lambda t: (cycles[t % cores], t))
        return intern_slice(tid, self.base_quantum)


@dataclass
class SniperConfig:
    """Machine configuration (default: Gainestown-like 8-core OOO)."""

    name: str = "gainestown-8"
    cores: int = 8
    dispatch_width: int = 4
    l1_kb: int = 32
    l2_kb: int = 128
    llc_kb: int = 2048  # shared, scaled with workloads (DESIGN.md §4)
    llc_assoc: int = 16
    mispredict_penalty: int = 12


class _SniperTool(Tool):
    """The timing model, attached as a Pin tool for the ROI only."""

    wants_instructions = True
    wants_memory = True
    wants_blocks = True

    def __init__(self, config: SniperConfig, end_pc: Optional[int] = None,
                 end_count: int = 0,
                 roi_budget: Optional[int] = None) -> None:
        self.config = config
        self.llc = Cache("LLC", config.llc_kb, config.llc_assoc, 30)
        self.cores: List[CacheHierarchy] = [
            CacheHierarchy.build(self.llc, l1_kb=config.l1_kb,
                                 l2_kb=config.l2_kb)
            for _ in range(config.cores)
        ]
        self.predictors = [BranchPredictor(
            mispredict_penalty=config.mispredict_penalty)
            for _ in range(config.cores)]
        self.core_cycles = [0.0] * config.cores
        self.core_instructions = [0] * config.cores
        #: Running total of ``core_instructions`` (the ROI budget test).
        self.instructions = 0
        self.end_pc = end_pc
        self.end_count = end_count
        self._end_seen = 0
        self.roi_budget = roi_budget
        self._instr_cost = 1.0 / config.dispatch_width
        self._pending_branch: Dict[int, Tuple[int, int, int]] = {}

    def on_instruction(self, machine, thread, pc, insn) -> None:
        tid = thread.tid
        core = tid % self.config.cores
        cycles = self.core_cycles
        pending = self._pending_branch.pop(tid, None)
        if pending is not None:
            branch_pc, fallthrough, branch_core = pending
            taken = pc != fallthrough
            cycles[branch_core] += self.predictors[
                branch_core].predict_and_update(branch_pc, taken)
        cycles[core] += self._instr_cost
        self.core_instructions[core] += 1
        self.instructions += 1
        size = COND_BRANCH_SIZE.get(insn.op)
        if size is not None:
            self._pending_branch[tid] = (pc, pc + size, core)
        if pc == self.end_pc:
            self._end_seen += 1
            if self._end_seen >= self.end_count:
                hooks.OBS.instant("sniper.roi_exit", "sniper",
                                  reason="end condition", pc=pc)
                machine.request_stop("sniper end condition")
                return
        if (self.roi_budget is not None
                and self.instructions >= self.roi_budget):
            hooks.OBS.instant("sniper.roi_exit", "sniper",
                              reason="instruction budget", pc=pc)
            machine.request_stop("sniper instruction budget")

    def on_basic_block(self, machine, thread, pc) -> None:
        core = thread.tid % self.config.cores
        self.core_cycles[core] += self.cores[core].fetch_access(pc)

    def on_memory_read(self, machine, thread, addr, size) -> None:
        core = thread.tid % self.config.cores
        self.core_cycles[core] += self.cores[core].data_access(addr)

    on_memory_write = on_memory_read


@dataclass
class SniperResult:
    """Simulation outcome."""

    config_name: str
    constrained: bool
    instructions: int
    core_instructions: List[int]
    core_cycles: List[float]
    status: ExitStatus
    llc_misses: int = 0
    branch_mispredict_rate: float = 0.0

    @property
    def runtime_cycles(self) -> float:
        """Predicted runtime: the busiest core's cycle count."""
        return max(self.core_cycles) if self.core_cycles else 0.0

    @property
    def ipc(self) -> float:
        runtime = self.runtime_cycles
        return self.instructions / runtime if runtime else 0.0

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc if self.ipc else 0.0


class SniperSim:
    """Front-end entry points for ELFie and pinball simulation."""

    def __init__(self, config: Optional[SniperConfig] = None) -> None:
        self.config = config or SniperConfig()

    def _finish(self, tool: _SniperTool, status: ExitStatus,
                constrained: bool) -> SniperResult:
        mispredicts = sum(p.mispredicts for p in tool.predictors)
        lookups = sum(p.lookups for p in tool.predictors)
        return SniperResult(
            config_name=self.config.name,
            constrained=constrained,
            instructions=sum(tool.core_instructions),
            core_instructions=list(tool.core_instructions),
            core_cycles=list(tool.core_cycles),
            status=status,
            llc_misses=tool.llc.misses,
            branch_mispredict_rate=(mispredicts / lookups) if lookups else 0.0,
        )

    def simulate_elfie(self, image: bytes,
                       end_pc: Optional[int] = None,
                       end_count: int = 1,
                       roi_budget: Optional[int] = None,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       timing_driven: bool = True,
                       max_instructions: int = 50_000_000) -> SniperResult:
        """Simulate an ELFie, skipping startup via the ROI marker.

        Simulation ends at the (end_pc, end_count) condition, at the
        aggregate ROI instruction budget, or when the ELFie exits.
        With ``timing_driven`` (the default, matching real Sniper)
        threads progress in simulated time rather than round-robin by
        retired instructions.
        """
        tool = _SniperTool(self.config, end_pc=end_pc,
                           end_count=end_count, roi_budget=roi_budget)
        with hooks.OBS.span("sniper.simulate_elfie", "sniper"):
            status, _ = simulate_roi(
                image, tool, max_instructions, seed=seed, fs=fs,
                workdir=workdir,
                scheduler=_TimingDrivenScheduler(tool) if timing_driven
                else None,
                on_enter=lambda tid, pc: hooks.OBS.instant(
                    "sniper.roi_enter", "sniper", tid=tid, pc=pc))
        return self._finish(tool, status, constrained=False)

    def simulate_pinball(self, pinball: Pinball, seed: int = 0,
                         fs: Optional[FileSystem] = None) -> SniperResult:
        """Constrained simulation: replay the pinball under the timing
        model (Sniper modified to include the PinPlay library)."""
        session = ReplaySession(pinball, injection=True, seed=seed, fs=fs,
                                instrument=False)
        machine = session.machine
        tool = _SniperTool(self.config)
        machine.attach(tool)
        with hooks.OBS.span("sniper.simulate_pinball", "sniper",
                            pinball=pinball.name):
            status = session.run()
        machine.detach(tool)
        session.result()
        return self._finish(tool, status, constrained=True)


class _PcProfiler(Tool):
    """Histograms every executed PC and records the PCs of PAUSEs."""

    wants_instructions = True

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.pauses: Set[int] = set()
        self.recent: deque = deque(maxlen=512)

    def on_instruction(self, machine, thread, pc, insn) -> None:
        self.counts[pc] = self.counts.get(pc, 0) + 1
        self.recent.append(pc)
        if insn.op is Op.PAUSE:
            self.pauses.add(pc)


def _profile_replay(pinball: Pinball, seed: int) -> _PcProfiler:
    """The separate profiling run: a constrained replay of *pinball*."""
    session = ReplaySession(pinball, injection=True, seed=seed, fs=None,
                            instrument=False)
    profiler = _PcProfiler()
    session.machine.attach(profiler)
    session.run()
    return profiler


def find_end_condition(pinball: Pinball, seed: int = 0,
                       spin_radius: int = 64) -> Tuple[int, int]:
    """Choose a ``(PC, count)`` end condition for ELFie simulation.

    Per the paper, the PC must be "a specific instruction at the end of
    the code region outside any spin-loops or synchronization code" and
    the count its global execution count, "determined using a separate
    profiling run".  The profiling run here is a constrained replay:
    we histogram every PC, mark PCs within *spin_radius* bytes of a
    PAUSE as spin code, and return the most recently executed non-spin
    PC together with its accumulated count at region end.
    """
    profiler = _profile_replay(pinball, seed)
    for pc in reversed(profiler.recent):
        if not any(abs(pc - pause) <= spin_radius
                   for pause in profiler.pauses):
            return pc, profiler.counts[pc]
    # everything near the end was spin code; fall back to the busiest PC
    pc = max(profiler.counts, key=profiler.counts.get)
    return pc, profiler.counts[pc]


def profile_end_condition(pinball: Pinball, end_pc: int,
                          seed: int = 0) -> Tuple[int, int]:
    """``(end_pc, count)`` for :meth:`SniperSim.simulate_elfie`: the
    global execution count of *end_pc* in the profiling run."""
    return end_pc, _profile_replay(pinball, seed).counts.get(end_pc, 0)
