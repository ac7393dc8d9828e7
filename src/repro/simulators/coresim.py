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

from repro.isa.instructions import Op
from repro.machine.machine import ExitStatus
from repro.machine.vfs import FileSystem
from repro.simulators.cachesim import Cache
from repro.simulators.kernelmodel import KernelModel
from repro.simulators.timing import (
    TimingCore,
    TimingResult,
    TimingSim,
    TimingTool,
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

    def __post_init__(self) -> None:
        if self.frontend not in ("sde", "simics"):
            raise ValueError("CoreSim frontend must be 'sde' or 'simics', "
                             "not %r" % (self.frontend,))


#: Long-latency execution costs (partially hidden by the window).
_LONG_OPS = {Op.DIV_RR: 18.0, Op.MOD_RR: 18.0, Op.FDIV: 11.0,
             Op.IMUL_RR: 2.0, Op.IMUL_RI: 2.0,
             Op.FMUL: 2.5, Op.FADD: 2.0, Op.FSUB: 2.0}


def _prefetching_data(core: TimingCore, addr: int) -> float:
    """Full-latency data charge; an L1D miss also prefetches the next
    line into the LLC."""
    before = core.l1d.misses
    cycles = core.data_access(addr)
    if core.l1d.misses > before:
        core.llc.access(addr + 64)
        core.prefetches += 1
    return cycles


@dataclass
class CoreSimResult(TimingResult):
    """Detailed-simulation statistics (the Table IV columns)."""

    RATE = ("instructions_total", "runtime_cycles")

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


class CoreSim(TimingSim):
    """CoreSim front-end: simulate ELFies or plain program binaries.

    Cost policy: one core with TLBs, full-latency charging, a next-line
    prefetcher, and the kernel model of the configured front-end.
    """

    def __init__(self, config: Optional[CoreSimConfig] = None) -> None:
        self.config = config or CoreSimConfig()

    def _tool(self, **stops) -> TimingTool:
        config = self.config
        core = TimingCore(Cache("LLC", config.llc_kb, config.llc_assoc, 30),
                          config.mispredict_penalty, config.l1_kb,
                          config.l2_kb, with_tlbs=True,
                          tlb_entries=config.tlb_entries,
                          tlb_penalty=config.tlb_penalty)
        return TimingTool(
            "coresim", [core], config.dispatch_width, _LONG_OPS,
            data_cost=(_prefetching_data if config.prefetch_next_line
                       else TimingCore.data_access),
            kernel=KernelModel(config.syscall_trap_cycles,
                               config.frontend == "simics",
                               config.dispatch_width),
            **stops)

    def _finish(self, tool: TimingTool, status: ExitStatus,
                window: bool = True) -> CoreSimResult:
        """The result; with *window*, the post-warmup measured window is
        filled in (zero if the run ended inside the warmup)."""
        (core,) = tool.cores
        measured = tool.measured() if window else None
        instructions, cycles = measured or (0, 0.0)
        return CoreSimResult(
            config_name=self.config.name,
            frontend=self.config.frontend,
            status=status,
            instructions_ring3=tool.instructions,
            instructions_ring0=tool.kernel.instructions,
            runtime_cycles=core.cycles,
            llc_misses=core.llc.misses,
            dtlb_misses=core.dtlb.misses,
            itlb_misses=core.itlb.misses,
            data_footprint_bytes=core.llc.footprint_bytes(),
            prefetch_lines=core.prefetches,
            branch_mispredict_rate=tool.mispredict_rate(),
            measured_instructions=instructions,
            measured_cycles=cycles,
        )

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
        tool = self._tool()
        machine.attach(tool)
        status = machine.run(max_instructions=max_instructions)
        machine.detach(tool)
        return self._finish(tool, status, window=False)
