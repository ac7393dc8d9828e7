"""Validation of simulation-region selection (paper §IV-A).

The quality metric is the *prediction error*::

    error = (whole_program_CPI - region_predicted_CPI) / whole_program_CPI

where the predicted CPI is the region-weight-weighted mean of per-region
CPIs.  The paper computes the true value two ways:

- **traditionally**, by simulating the entire program (weeks of
  simulation time), and
- **with ELFies**, by running the whole program and each region ELFie
  natively with hardware counters (an hour).

Both are implemented here.  Failed ELFies (signal exits, short runs)
are replaced by their cluster's alternate representatives, reproducing
the paper's coverage-recovery strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.elfie import prepare_elfie_machine, run_to_marker
from repro.core.pinball2elf import ElfieArtifact
from repro.machine.machine import ExitStatus, Machine
from repro.machine.vfs import FileSystem
from repro.pinplay.regions import RegionSpec
from repro.simpoint.pinpoints import PinPointsResult


def prediction_error(true_value: float, predicted: float) -> float:
    """The paper's error definition: (true - predicted) / true."""
    if true_value == 0:
        return 0.0
    return (true_value - predicted) / true_value


def _cycles_at(machine: Machine, target: int,
               budget: int) -> Tuple[Optional[int], ExitStatus]:
    """Machine-wide cycles once exactly *target* instructions retired.

    *target* and *budget* count ``executed_total``, which on a machine
    run from its start is the machine-wide retired-instruction count.
    An exact budget stop at *target*, then a one-instruction step: like
    a meter that reads the counter just before each instruction runs,
    the reading counts only if another instruction begins within
    *budget*.  One that faults while executing has begun (its thread's
    rip moved past it); one that cannot be fetched or decoded has not.
    Otherwise returns ``(None, status)`` with the status that ended the
    run.
    """
    if target >= budget:
        return None, machine.run(max_instructions=budget)
    if machine.executed_total < target:
        status = machine.run(max_instructions=target)
        if status.kind != "stopped":
            return None, status
    cycles = machine.total_cycles()
    rips = [t.regs.rip for t in machine.threads.values()]
    status = machine.run(max_instructions=target + 1)
    if machine.executed_total > target or (
            status.kind == "signal"
            and rips != [t.regs.rip for t in machine.threads.values()]):
        return cycles, status
    return None, status


@dataclass
class RegionMeasurement:
    """Native measurement of one region ELFie."""

    region: RegionSpec
    cpi: Optional[float]
    ok: bool
    detail: str = ""
    used_alternate: Optional[str] = None
    #: Work-denominated rates (LoopPoint marker metering only): cycles
    #: and retired instructions per work-marker crossing over the
    #: measured window.  None for icount-metered measurements.
    cycles_per_work: Optional[float] = None
    icount_per_work: Optional[float] = None


@dataclass
class ValidationResult:
    """Outcome of validating one program's region selection."""

    app_name: str
    whole_program_cpi: float
    measurements: List[RegionMeasurement] = field(default_factory=list)

    @property
    def covered_weight(self) -> float:
        """Coverage: the summed weight of correctly-executing regions."""
        return sum(m.region.weight for m in self.measurements if m.ok)

    @property
    def predicted_cpi(self) -> float:
        """Weight-normalized predicted CPI over covered regions."""
        covered = self.covered_weight
        if covered == 0:
            return 0.0
        return sum(
            m.region.weight * m.cpi for m in self.measurements if m.ok
        ) / covered

    @property
    def error(self) -> float:
        return prediction_error(self.whole_program_cpi, self.predicted_cpi)

    @property
    def abs_error_percent(self) -> float:
        return abs(self.error) * 100.0


def measure_elfie_region(artifact: ElfieArtifact, region: RegionSpec,
                         seed: int = 0,
                         fs: Optional[FileSystem] = None,
                         workdir: str = "/",
                         budget_factor: int = 6) -> RegionMeasurement:
    """Run a region ELFie natively and measure its post-warmup CPI.

    The window is counted in instructions retired *machine-wide* (all
    threads) from the ROI marker, the marker itself included: region
    windows are global instruction counts, and the ELFie's perf-counter
    exit fires on the global count, so for a multi-threaded ELFie a
    per-thread window would never close.  The start is read
    ``max(effective_warmup, 1)`` instructions in and the end
    ``effective_warmup + length`` in (at least one past the start); the
    CPI divides by ``length``.  No instruction tool is attached: the run
    stops once right after the marker and then at exact instruction
    budgets, so the whole ELFie executes on the fast dispatch path.
    Cycles come from the simulated timing model, so the stops do not
    perturb them.
    """
    try:
        machine, _loaded = prepare_elfie_machine(
            artifact.image, seed=seed, fs=fs, workdir=workdir)
    except Exception as exc:  # loader failures (stack collision)
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail="loader: %s" % exc)
    # The marker sits at the captured window start (warmup_start); the
    # instructions to skip are those actually captured before the
    # region, which is less than the nominal warmup when the region
    # starts early in the program.
    effective_warmup = region.start - region.warmup_start
    # Budget: startup (stack copy) + warmup + region, with headroom.
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    before, status = run_to_marker(machine, budget)
    if before is not None:
        base = before[0]
        start_at = max(effective_warmup, 1)
        end_at = max(effective_warmup + region.length, start_at + 1)
        start, status = _cycles_at(machine, base + start_at, budget)
        if start is not None:
            end, status = _cycles_at(machine, base + end_at, budget)
            if end is not None:
                return RegionMeasurement(
                    region=region, cpi=(end - start) / region.length,
                    ok=True)
    detail = ("died: %s" % status.detail if status.kind == "signal"
              else "incomplete: %s" % status.detail)
    return RegionMeasurement(region=region, cpi=None, ok=False,
                             detail=detail)


def validate_with_elfies(result: PinPointsResult,
                         seed: int = 0,
                         trials: int = 3,
                         fs: Optional[FileSystem] = None,
                         use_alternates: bool = True) -> ValidationResult:
    """ELFie-based validation: native runs instead of simulation.

    Each region is measured ``trials`` times (different scheduler
    seeds) and averaged, as the paper does (ten trials per
    measurement).  When a primary region's ELFie fails, the cluster's
    alternates are tried in order.
    """
    validation = ValidationResult(
        app_name=result.app_name,
        whole_program_cpi=result.profile.whole_program_cpi,
    )
    for region in result.primary_regions:
        measurement = _measure_with_alternates(
            result, region, seed=seed, trials=trials, fs=fs,
            use_alternates=use_alternates)
        validation.measurements.append(measurement)
    return validation


def _measure_with_alternates(result: PinPointsResult, region: RegionSpec,
                             seed: int, trials: int,
                             fs: Optional[FileSystem],
                             use_alternates: bool) -> RegionMeasurement:
    candidates = [region]
    if use_alternates:
        candidates += result.alternates_for(region)
    last: Optional[RegionMeasurement] = None
    for candidate in candidates:
        artifact = result.elfies.get(candidate.name)
        if artifact is None:
            continue
        cpis: List[float] = []
        failure: Optional[RegionMeasurement] = None
        for trial in range(trials):
            measurement = measure_elfie_region(
                artifact, candidate, seed=seed + trial * 101, fs=fs)
            if measurement.ok:
                cpis.append(measurement.cpi)
            else:
                failure = measurement
                break
        if cpis and failure is None:
            return RegionMeasurement(
                region=RegionSpec(
                    start=candidate.start, length=candidate.length,
                    warmup=candidate.warmup, name=candidate.name,
                    weight=region.weight,
                ),
                cpi=sum(cpis) / len(cpis),
                ok=True,
                used_alternate=(candidate.name
                                if candidate.name != region.name else None),
            )
        last = failure
    if last is not None:
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=last.detail)
    return RegionMeasurement(region=region, cpi=None, ok=False,
                             detail="no ELFie available")


def validate_with_simulator(
        result: PinPointsResult,
        whole_cpi_fn: Callable[[], float],
        region_cpi_fn: Callable[[ElfieArtifact, RegionSpec], Optional[float]],
) -> ValidationResult:
    """Traditional, simulation-based validation.

    ``whole_cpi_fn`` simulates the entire program (the expensive step
    the paper replaces); ``region_cpi_fn`` simulates one region ELFie.
    """
    validation = ValidationResult(
        app_name=result.app_name,
        whole_program_cpi=whole_cpi_fn(),
    )
    for region in result.primary_regions:
        artifact = result.elfies.get(region.name)
        cpi = region_cpi_fn(artifact, region) if artifact else None
        validation.measurements.append(
            RegionMeasurement(region=region, cpi=cpi, ok=cpi is not None,
                              detail="" if cpi is not None else "no result")
        )
    return validation
