"""A CoreSim-like detailed x86 simulator (paper §III-C2, §IV-C).

CoreSim is an execution-driven, cycle-accurate many-core simulator with
two front-ends: SDE (user-space instructions only) and Simics (full
system).  This model keeps that split:

- ``frontend="sde"``: only ring-3 (application) instructions reach the
  timing model; system calls are charged a fixed trap latency,
- ``frontend="simics"``: each system call additionally injects a
  synthetic ring-0 service stream, and a timer interrupt fires
  periodically (see :mod:`repro.simulators.kernelmodel`); kernel
  fetches and data accesses go through the same caches and TLBs as
  application traffic.

The timing model is a width-limited core with L1I/L1D, a private L2, a
shared LLC, I/D TLBs, a next-line prefetcher, and a bimodal branch
predictor — enough microarchitectural surface for the Table IV
comparison (instruction counts, runtime, TLB/cache pressure, data
footprint, prefetcher traffic).

The timing model attaches right after an ELFie's ROI marker, after the
startup ran compiled (:func:`~repro.core.elfie.simulate_roi`), so all
it sees is ROI; whole-program mode attaches it at load.
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
from repro.simulators.cachesim import Cache, CacheHierarchy
from repro.simulators.kernelmodel import (
    TIMER_INTERVAL,
    syscall_stream,
    timer_stream,
)


@dataclass
class CoreSimConfig:
    """Detailed-model configuration (default: Skylake-like)."""

    name: str = "skylake"
    dispatch_width: int = 4
    l1_kb: int = 32
    l2_kb: int = 128
    #: LLC scaled with the workload scaling (DESIGN.md §4): regions are
    #: ~1000x shorter than the paper's, so a full-size LLC would keep
    #: transients longer than whole regions.
    llc_kb: int = 512
    llc_assoc: int = 16
    tlb_entries: int = 64
    tlb_penalty: int = 30
    mispredict_penalty: int = 14
    syscall_trap_cycles: int = 150
    #: "sde" (user-only) or "simics" (full-system).
    frontend: str = "sde"
    prefetch_next_line: bool = True


class _CoreSimTool(Tool):
    """Single-core detailed timing model as an instrumentation tool."""

    wants_instructions = True
    wants_memory = True
    wants_blocks = True

    def __init__(self, config: CoreSimConfig,
                 roi_budget: Optional[int],
                 warmup_budget: int = 0) -> None:
        self.config = config
        self.llc = Cache("LLC", config.llc_kb, config.llc_assoc, 30)
        self.hierarchy = CacheHierarchy.build(
            self.llc, l1_kb=config.l1_kb, l2_kb=config.l2_kb,
            with_tlbs=True, tlb_entries=config.tlb_entries,
            tlb_penalty=config.tlb_penalty,
        )
        self.predictor = BranchPredictor(
            mispredict_penalty=config.mispredict_penalty)
        self.cycles = 0.0
        self.ring3_instructions = 0
        self.ring0_instructions = 0
        self.prefetch_lines = 0
        self.roi_budget = roi_budget
        #: ROI instructions that warm microarchitectural state without
        #: being measured (the PinPoints warmup region).
        self.warmup_budget = warmup_budget
        self.warmup_cycles: Optional[float] = None if warmup_budget else 0.0
        self.warmup_ring0: int = 0
        self._instr_cost = 1.0 / config.dispatch_width
        self._pending_branch = None
        self._since_timer = 0
        self._kernel_episodes = 0
        # long-latency execution costs (partially hidden by the window)
        self._long_op_cost = {
            int(Op.DIV_RR): 18.0, int(Op.MOD_RR): 18.0,
            int(Op.FDIV): 11.0,
            int(Op.IMUL_RR): 2.0, int(Op.IMUL_RI): 2.0,
            int(Op.FMUL): 2.5, int(Op.FADD): 2.0, int(Op.FSUB): 2.0,
        }

    # -- kernel stream injection -------------------------------------------

    def _run_kernel_stream(self, stream) -> None:
        self.ring0_instructions += stream.instructions
        self.cycles += stream.instructions * self._instr_cost
        for kind, addr in stream.accesses():
            if kind == "fetch":
                self.cycles += self.hierarchy.fetch_access(addr)
            else:
                self.cycles += self.hierarchy.data_access(addr)

    def _maybe_timer(self, machine) -> None:
        if self._since_timer >= TIMER_INTERVAL:
            self._since_timer = 0
            if self.config.frontend == "simics":
                self._kernel_episodes += 1
                self._run_kernel_stream(timer_stream(self._kernel_episodes))

    # -- instrumentation callbacks -------------------------------------------

    def on_instruction(self, machine, thread, pc, insn) -> None:
        if self._pending_branch is not None:
            branch_pc, fallthrough = self._pending_branch
            self._pending_branch = None
            self.cycles += self.predictor.predict_and_update(
                branch_pc, pc != fallthrough)
        self.cycles += self._instr_cost
        cost = self._long_op_cost.get(int(insn.op))
        if cost is not None:
            self.cycles += cost
        self.ring3_instructions += 1
        self._since_timer += 1
        size = COND_BRANCH_SIZE.get(insn.op)
        if size is not None:
            self._pending_branch = (pc, pc + size)
        self._maybe_timer(machine)
        if (self.warmup_cycles is None
                and self.ring3_instructions >= self.warmup_budget):
            self.warmup_cycles = self.cycles
            self.warmup_ring0 = self.ring0_instructions
        if (self.roi_budget is not None
                and self.ring3_instructions
                >= self.roi_budget + self.warmup_budget):
            machine.request_stop("coresim budget")

    def on_basic_block(self, machine, thread, pc) -> None:
        self.cycles += self.hierarchy.fetch_access(pc)

    def on_memory_read(self, machine, thread, addr, size) -> None:
        before = self.hierarchy.l1d.misses
        self.cycles += self.hierarchy.data_access(addr)
        if (self.config.prefetch_next_line
                and self.hierarchy.l1d.misses > before):
            # next-line prefetch into the LLC
            self.llc.access(addr + 64)
            self.prefetch_lines += 1

    on_memory_write = on_memory_read

    def on_syscall_after(self, machine, thread, number, result) -> None:
        self.cycles += self.config.syscall_trap_cycles
        if self.config.frontend == "simics":
            self._kernel_episodes += 1
            self._run_kernel_stream(
                syscall_stream(number, self._kernel_episodes))


@dataclass
class CoreSimResult:
    """Detailed-simulation statistics (the Table IV columns)."""

    config_name: str
    frontend: str
    status: ExitStatus
    instructions_ring3: int
    instructions_ring0: int
    runtime_cycles: float
    llc_misses: int
    dtlb_misses: int
    itlb_misses: int
    data_footprint_bytes: int
    prefetch_lines: int
    branch_mispredict_rate: float

    @property
    def instructions_total(self) -> int:
        return self.instructions_ring3 + self.instructions_ring0

    @property
    def ipc(self) -> float:
        if self.runtime_cycles == 0:
            return 0.0
        return self.instructions_total / self.runtime_cycles

    @property
    def cpi(self) -> float:
        ipc = self.ipc
        return 1.0 / ipc if ipc else 0.0

    @property
    def user_cpi(self) -> float:
        """Cycles per ring-3 instruction (for CPI-based validation)."""
        if self.instructions_ring3 == 0:
            return 0.0
        return self.runtime_cycles / self.instructions_ring3

    #: Post-warmup measurement window (filled by simulate_elfie when a
    #: warmup budget was given).
    measured_instructions: int = 0
    measured_cycles: float = 0.0

    @property
    def measured_cpi(self) -> float:
        """CPI of the post-warmup measured window (user instructions)."""
        if self.measured_instructions == 0:
            return self.user_cpi
        return self.measured_cycles / self.measured_instructions


class CoreSim:
    """CoreSim front-end: simulate ELFies or plain program binaries."""

    def __init__(self, config: Optional[CoreSimConfig] = None) -> None:
        self.config = config or CoreSimConfig()

    def _finish(self, tool: _CoreSimTool, status: ExitStatus) -> CoreSimResult:
        hierarchy = tool.hierarchy
        return CoreSimResult(
            config_name=self.config.name,
            frontend=self.config.frontend,
            status=status,
            instructions_ring3=tool.ring3_instructions,
            instructions_ring0=tool.ring0_instructions,
            runtime_cycles=tool.cycles,
            llc_misses=tool.llc.misses,
            dtlb_misses=hierarchy.dtlb.misses if hierarchy.dtlb else 0,
            itlb_misses=hierarchy.itlb.misses if hierarchy.itlb else 0,
            data_footprint_bytes=tool.llc.footprint_bytes(),
            prefetch_lines=tool.prefetch_lines,
            branch_mispredict_rate=tool.predictor.mispredict_rate,
        )

    def simulate_elfie(self, image: bytes,
                       roi_budget: Optional[int] = None,
                       warmup_budget: int = 0,
                       seed: int = 0,
                       fs: Optional[FileSystem] = None,
                       workdir: str = "/",
                       max_instructions: int = 50_000_000) -> CoreSimResult:
        """Simulate an ELFie (startup skipped via the ROI marker).

        *warmup_budget* ROI instructions warm caches/TLBs before the
        measured window of *roi_budget* instructions begins, matching
        the PinPoints warmup methodology.
        """
        tool = _CoreSimTool(self.config, roi_budget=roi_budget,
                            warmup_budget=warmup_budget)
        status, _ = simulate_roi(image, tool, max_instructions, seed=seed,
                                 fs=fs, workdir=workdir)
        result = self._finish(tool, status)
        if tool.warmup_cycles is not None:
            result.measured_instructions = (tool.ring3_instructions
                                            - tool.warmup_budget)
            result.measured_cycles = tool.cycles - tool.warmup_cycles
        return result

    def simulate_program(self, image: bytes,
                         max_instructions: Optional[int] = None,
                         seed: int = 0,
                         fs: Optional[FileSystem] = None) -> CoreSimResult:
        """Whole-program detailed simulation (the weeks-long baseline of
        the traditional validation flow).  The ROI is the entire run."""
        from repro.machine.loader import load_elf
        from repro.machine.machine import Machine

        machine = Machine(seed=seed, fs=fs)
        load_elf(machine, image)
        tool = _CoreSimTool(self.config, roi_budget=None)
        machine.attach(tool)
        status = machine.run(max_instructions=max_instructions)
        machine.detach(tool)
        return self._finish(tool, status)
