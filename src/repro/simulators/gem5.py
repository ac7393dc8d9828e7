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
from typing import Optional

from repro.core.elfie import simulate_roi
from repro.isa.instructions import COND_BRANCH_SIZE, Op
from repro.machine.machine import ExitStatus
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.simulators.branch import BranchPredictor
from repro.simulators.cachesim import Cache, CacheHierarchy, MEMORY_LATENCY


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


class _Gem5Tool(Tool):
    """Interval-model accounting over the ROI's functional execution."""

    wants_instructions = True
    wants_memory = True
    wants_blocks = True

    def __init__(self, config: Gem5Config,
                 roi_budget: Optional[int],
                 warmup_budget: int = 0) -> None:
        self.config = config
        self.llc = Cache("LLC", config.llc_kb, 16, 30)
        self.hierarchy = CacheHierarchy.build(
            self.llc, l1_kb=config.l1_kb, l2_kb=config.l2_kb)
        self.predictor = BranchPredictor(
            mispredict_penalty=config.pipeline_depth)
        self.instructions = 0
        self.base_cycles = 0.0
        self.stall_cycles = 0.0
        self.roi_budget = roi_budget
        self.warmup_budget = warmup_budget
        self.warmup_cycles: Optional[float] = None
        self._pending_branch = None
        self._miss_stall = max(
            0.0, MEMORY_LATENCY - config.hidden_latency) / config.mlp
        # serialization cost of long-latency ALU ops shrinks with width
        self._long_op_cost = {
            int(Op.DIV_RR): 20.0 / config.width,
            int(Op.MOD_RR): 20.0 / config.width,
            int(Op.FDIV): 12.0 / config.width,
            int(Op.IMUL_RR): 2.0 / config.width,
            int(Op.IMUL_RI): 2.0 / config.width,
            int(Op.FMUL): 2.0 / config.width,
        }

    def on_instruction(self, machine, thread, pc, insn) -> None:
        if self._pending_branch is not None:
            branch_pc, fallthrough = self._pending_branch
            self._pending_branch = None
            self.stall_cycles += self.predictor.predict_and_update(
                branch_pc, pc != fallthrough)
        self.instructions += 1
        self.base_cycles += 1.0 / self.config.width
        self.stall_cycles += self._long_op_cost.get(int(insn.op), 0.0)
        size = COND_BRANCH_SIZE.get(insn.op)
        if size is not None:
            self._pending_branch = (pc, pc + size)
        if (self.warmup_cycles is None
                and self.instructions >= self.warmup_budget):
            self.warmup_cycles = self.base_cycles + self.stall_cycles
        if (self.roi_budget is not None
                and self.instructions >= self.roi_budget + self.warmup_budget):
            machine.request_stop("gem5 budget")

    def on_basic_block(self, machine, thread, pc) -> None:
        before = self.llc.misses
        self.hierarchy.fetch_access(pc)
        if self.llc.misses > before:
            self.stall_cycles += self._miss_stall

    def on_memory_read(self, machine, thread, addr, size) -> None:
        l2_before = self.hierarchy.l2.misses
        l1_before = self.hierarchy.l1d.misses
        self.hierarchy.data_access(addr)
        if self.hierarchy.l2.misses > l2_before:
            self.stall_cycles += self._miss_stall
        elif self.hierarchy.l1d.misses > l1_before:
            # L2 hits are partially hidden by the window
            self.stall_cycles += max(
                0.0, 10.0 - self.config.hidden_latency / 8.0)

    on_memory_write = on_memory_read


@dataclass
class Gem5Result:
    """SE-mode simulation outcome."""

    config_name: str
    status: ExitStatus
    instructions: int
    cycles: float
    llc_misses: int
    branch_mispredict_rate: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        ipc = self.ipc
        return 1.0 / ipc if ipc else 0.0


class Gem5Sim:
    """gem5 SE-mode front-end."""

    def __init__(self, config: Gem5Config = NEHALEM_LIKE) -> None:
        self.config = config

    def simulate_elfie(self, image: bytes,
                       roi_budget: Optional[int] = None,
                       warmup_budget: int = 0,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       max_instructions: int = 50_000_000) -> Gem5Result:
        """Load and simulate an ELFie in SE mode.

        gem5 needs no modification for ELFies: the binary is loaded by
        the simulator's own loader and the ROI begins at the marker.
        With a *warmup_budget*, that many leading ROI instructions warm
        the microarchitectural state but are excluded from the reported
        instruction/cycle counts.
        """
        tool = _Gem5Tool(self.config, roi_budget=roi_budget,
                         warmup_budget=warmup_budget)
        status, _ = simulate_roi(image, tool, max_instructions, seed=seed,
                                 fs=fs, workdir=workdir)
        cycles = tool.base_cycles + tool.stall_cycles
        instructions = tool.instructions
        if warmup_budget and tool.warmup_cycles is not None:
            cycles -= tool.warmup_cycles
            instructions -= tool.warmup_budget
        return Gem5Result(
            config_name=self.config.name,
            status=status,
            instructions=instructions,
            cycles=cycles,
            llc_misses=tool.llc.misses,
            branch_mispredict_rate=tool.predictor.mispredict_rate,
        )
