"""A gem5-like binary-driven simulator, SE mode (paper §III-C3, §IV-D).

gem5 is not Pin-based: it loads the binary itself and provides system
services directly (Syscall Emulation mode).  This model does the same —
it loads an ELFie (or any PX ELF executable) with its own copy of the
loader and emulates execution, feeding an out-of-order analytical core
model.  The ELFie's startup runs functionally to the ROI marker (on
the compiled tier, via :func:`~repro.core.elfie.simulate_roi`); the
core model is attached only from there on.

The core model is interval-style: instructions dispatch at the
configured width; long-latency (off-chip) misses stall the ROB for the
portion of the miss latency the window cannot hide, divided by the
memory-level parallelism the LSQ supports; branch mispredicts cost a
pipeline refill.  Two configurations reproduce Table V's comparison of
critical-resource scaling (Nehalem-like vs Haswell-like).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.simulators.cachesim import MEMORY_LATENCY, Cache
from repro.simulators.timing import (
    TimingCore,
    TimingResult,
    TimingSim,
    TimingTool,
)


@dataclass(frozen=True)
class Gem5Config:
    """An out-of-order machine configuration."""

    name: str
    width: int
    rob: int
    lsq: int
    regfile: int
    pipeline_depth: int
    l1_kb: int = 32
    l2_kb: int = 128
    llc_kb: int = 1024  # scaled with workloads (DESIGN.md §4)

    @property
    def mlp(self) -> float:
        """Memory-level parallelism the LSQ can sustain."""
        return max(1.0, self.lsq / 12.0)

    @property
    def effective_window(self) -> float:
        """The instruction window the machine can actually keep in
        flight: the ROB, unless the physical register file runs out
        first (about 40 registers are pinned to architectural state)."""
        return min(self.rob, max(self.regfile - 40, 16) * 1.6)

    @property
    def hidden_latency(self) -> float:
        """Miss cycles the window hides under continued dispatch."""
        return self.effective_window / self.width


#: The two Table V processor configurations.  Both are 4-wide: the case
#: study scales the *critical resources* (register file, ROB, load/store
#: queues), which is where the IPC difference comes from.
NEHALEM_LIKE = Gem5Config(name="nehalem-like", width=4, rob=128, lsq=48,
                          regfile=128, pipeline_depth=14)
HASWELL_LIKE = Gem5Config(name="haswell-like", width=4, rob=192, lsq=72,
                          regfile=168, pipeline_depth=14)


#: Serialization cycles of long-latency ALU ops on a 1-wide machine;
#: they shrink with width.
_LONG_OPS = {Op.DIV_RR: 20.0, Op.MOD_RR: 20.0, Op.FDIV: 12.0,
             Op.IMUL_RR: 2.0, Op.IMUL_RI: 2.0, Op.FMUL: 2.0}


@dataclass
class Gem5Result(TimingResult):
    """SE-mode simulation outcome."""

    RATE = ("instructions", "cycles")

    config_name: str
    status: ExitStatus
    instructions: int
    cycles: float
    llc_misses: int
    branch_mispredict_rate: float


class Gem5Sim(TimingSim):
    """gem5 SE-mode front-end.

    Cost policy: one core, interval charging (only misses the window
    cannot hide stall it), long-op costs scaled by width.
    """

    def __init__(self, config: Gem5Config = NEHALEM_LIKE) -> None:
        self.config = config
        self._miss_stall = max(
            0.0, MEMORY_LATENCY - config.hidden_latency) / config.mlp
        # L2 hits are partially hidden by the window
        self._l2_hit_stall = max(0.0, 10.0 - config.hidden_latency / 8.0)

    def _fetch_cost(self, core: TimingCore, pc: int) -> float:
        before = core.llc.misses
        core.fetch_access(pc)
        return self._miss_stall if core.llc.misses > before else 0.0

    def _data_cost(self, core: TimingCore, addr: int) -> float:
        l2_before = core.l2.misses
        l1_before = core.l1d.misses
        core.data_access(addr)
        if core.l2.misses > l2_before:
            return self._miss_stall
        if core.l1d.misses > l1_before:
            return self._l2_hit_stall
        return 0.0

    def _tool(self, **stops) -> TimingTool:
        config = self.config
        core = TimingCore(Cache("LLC", config.llc_kb, 16, 30),
                          config.pipeline_depth, config.l1_kb, config.l2_kb)
        return TimingTool(
            "gem5", [core], config.width,
            {op: cost / config.width for op, cost in _LONG_OPS.items()},
            fetch_cost=self._fetch_cost, data_cost=self._data_cost,
            **stops)

    def _finish(self, tool: TimingTool, status: ExitStatus) -> Gem5Result:
        instructions, cycles = tool.measured() or (
            tool.instructions, tool.cores[0].cycles)
        return Gem5Result(
            config_name=self.config.name,
            status=status,
            instructions=instructions,
            cycles=cycles,
            llc_misses=tool.cores[0].llc.misses,
            branch_mispredict_rate=tool.mispredict_rate(),
        )
