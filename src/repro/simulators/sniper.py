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

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.pinball import Pinball
from repro.machine.scheduler import Scheduler, intern_slice
from repro.pinplay.replayer import ReplaySession
from repro.simulators.cachesim import Cache
from repro.simulators.timing import (
    TimingCore,
    TimingResult,
    TimingSim,
    TimingTool,
)


class _TimingDrivenScheduler(Scheduler):
    """Advance the thread whose simulated core time is furthest behind.

    Real Sniper interleaves threads by simulated cycles, not retired
    instructions.  Under this policy a thread spinning at a barrier
    (high IPC, few misses) retires many more instructions per simulated
    cycle than a thread doing cache-missing work — which is exactly why
    unconstrained multi-threaded ELFie simulations retire *more*
    instructions than their constrained pinball replays (Fig. 11).
    """

    def __init__(self, tool: TimingTool, quantum: int = 64) -> None:
        super().__init__(seed=0, base_quantum=quantum, jitter=0.0)
        self._cores = tool.cores

    def choose(self, tids):
        cores = self._cores
        tid = min(tids, key=lambda t: (cores[t % len(cores)].cycles, t))
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


@dataclass
class SniperResult(TimingResult):
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


class SniperSim(TimingSim):
    """Front-end entry points for ELFie and pinball simulation.

    Cost policy: one core per configured core, threads mapped by
    ``tid % cores``, full-latency fetch and data charges, no long-op
    costs.
    """

    def __init__(self, config: Optional[SniperConfig] = None) -> None:
        self.config = config or SniperConfig()

    def _tool(self, **stops) -> TimingTool:
        config = self.config
        llc = Cache("LLC", config.llc_kb, config.llc_assoc, 30)
        cores = [TimingCore(llc, config.mispredict_penalty, config.l1_kb,
                            config.l2_kb) for _ in range(config.cores)]
        return TimingTool("sniper", cores, config.dispatch_width,
                          budget_stop="instruction budget", **stops)

    def _finish(self, tool: TimingTool, status: ExitStatus,
                constrained: bool = False) -> SniperResult:
        return SniperResult(
            config_name=self.config.name,
            constrained=constrained,
            instructions=tool.instructions,
            core_instructions=[core.instructions for core in tool.cores],
            core_cycles=[core.cycles for core in tool.cores],
            status=status,
            llc_misses=tool.cores[0].llc.misses,
            branch_mispredict_rate=tool.mispredict_rate(),
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
        return self._simulate(
            image, seed, fs, workdir, max_instructions,
            scheduler=_TimingDrivenScheduler if timing_driven else None,
            end_pc=end_pc, end_count=end_count, roi_budget=roi_budget)

    def simulate_pinball(self, pinball: Pinball, seed: int = 0,
                         fs: Optional[FileSystem] = None) -> SniperResult:
        """Constrained simulation: replay the pinball under the timing
        model (Sniper modified to include the PinPlay library)."""
        session = ReplaySession(pinball, injection=True, seed=seed, fs=fs,
                                instrument=False)
        machine = session.machine
        tool = self._tool()
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
