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
the paper's coverage-recovery strategy.  :func:`validate_regions` is
that trials-and-alternates loop for both selectors; they differ only in
the per-trial meter (an icount window here, a marker-crossing window in
:mod:`repro.looppoint.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.core.elfie import prepare_elfie_machine, run_to_marker
from repro.core.pinball2elf import ElfieArtifact
from repro.machine.machine import ExitStatus, Machine
from repro.machine.vfs import FileSystem
from repro.pinplay.regions import RegionSpec
from repro.pipeline import PipelineResult


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
    # The marker sits at the captured window start (warmup_start); the
    # instructions to skip are those actually captured before the
    # region, which is less than the nominal warmup when the region
    # starts early in the program.
    effective_warmup = region.start - region.warmup_start
    start_at = max(effective_warmup, 1)
    end_at = max(effective_warmup + region.length, start_at + 1)

    def window(machine, hit, budget):
        start, status = _cycles_at(machine, hit.instructions + start_at,
                                   budget)
        end = None
        if start is not None:
            end, status = _cycles_at(machine, hit.instructions + end_at,
                                     budget)
        if end is None:
            return None, status
        return RegionMeasurement(region=region,
                                 cpi=(end - start) / region.length,
                                 ok=True), status

    return measure_at_marker(artifact, region, window, seed=seed, fs=fs,
                             workdir=workdir, budget_factor=budget_factor)


def measure_at_marker(artifact: ElfieArtifact, region: RegionSpec, window,
                      seed: int = 0, fs: Optional[FileSystem] = None,
                      workdir: str = "/", budget_factor: int = 6,
                      progress: Callable[[], str] = lambda: ""
                      ) -> RegionMeasurement:
    """Load a region ELFie, run its startup to the ROI marker, and return
    ``window(machine, hit, budget)``'s measurement of the region.

    The window returns ``(measurement, status)``, the measurement None
    when the run (capped at *budget* machine-wide instructions: startup,
    warmup and region with *budget_factor* headroom) ended first.  A
    loader failure, a death or an incomplete window is a failed
    measurement; an incomplete one's detail ends with ``progress()``.
    """
    try:
        machine, _loaded = prepare_elfie_machine(
            artifact.image, seed=seed, fs=fs, workdir=workdir)
    except Exception as exc:  # loader failures (stack collision)
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail="loader: %s" % exc)
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    hit, status = run_to_marker(machine, budget)
    if hit is not None:
        measured, status = window(machine, hit, budget)
        if measured is not None:
            return measured
    detail = ("died: %s" % status.detail if status.kind == "signal"
              else "incomplete: %s%s" % (status.detail, progress()))
    return RegionMeasurement(region=region, cpi=None, ok=False,
                             detail=detail)


#: ``meter(artifact, region)`` gives the region's per-trial measurement
#: ``trial(seed=...)``, or None when the region has no window to meter.
TrialMeter = Callable[..., RegionMeasurement]
Meter = Callable[[ElfieArtifact, RegionSpec], Optional[TrialMeter]]


def _mean(values: List[Optional[float]]) -> Optional[float]:
    """Mean over trials; None if any trial has none (a window with no
    work crossings has no per-work rate, and the prediction skips it)."""
    if any(value is None for value in values):
        return None
    return sum(values) / len(values)


def validate_regions(result: PipelineResult, meter: Meter, seed: int,
                     trials: int, use_alternates: bool,
                     cls: type = ValidationResult) -> ValidationResult:
    """Measure every primary region of *result* into a *cls* validation.

    The validation core both selectors share: each region's ELFie is
    metered ``trials`` times under seeds ``seed + 101 * trial`` and the
    rates averaged; a region whose ELFie is missing or fails a trial
    falls back to its cluster's alternates, best first, keeping the
    primary's weight.
    """
    validation = cls(app_name=result.app_name,
                     whole_program_cpi=result.profile.whole_program_cpi)
    for region in result.primary_regions:
        validation.measurements.append(_measure_with_alternates(
            result, region, meter, seed, trials, use_alternates))
    return validation


def _measure_with_alternates(result: PipelineResult, region: RegionSpec,
                             meter: Meter, seed: int, trials: int,
                             use_alternates: bool) -> RegionMeasurement:
    candidates = [region]
    if use_alternates:
        candidates += result.alternates_for(region)
    last: Optional[RegionMeasurement] = None
    for candidate in candidates:
        artifact = result.elfies.get(candidate.name)
        trial = meter(artifact, candidate) if artifact is not None else None
        if trial is None:
            continue
        runs: List[RegionMeasurement] = []
        failure: Optional[RegionMeasurement] = None
        for index in range(trials):
            measurement = trial(seed=seed + index * 101)
            if measurement.ok:
                runs.append(measurement)
            else:
                failure = measurement
                break
        if runs and failure is None:
            return RegionMeasurement(
                region=RegionSpec(
                    start=candidate.start, length=candidate.length,
                    warmup=candidate.warmup, name=candidate.name,
                    weight=region.weight,
                ),
                cpi=_mean([m.cpi for m in runs]),
                ok=True,
                used_alternate=(candidate.name
                                if candidate.name != region.name else None),
                cycles_per_work=_mean([m.cycles_per_work for m in runs]),
                icount_per_work=_mean([m.icount_per_work for m in runs]),
            )
        last = failure
    if last is not None:
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=last.detail)
    return RegionMeasurement(region=region, cpi=None, ok=False,
                             detail="no ELFie available")


def validate_with_elfies(result: PipelineResult,
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
    def meter(artifact: ElfieArtifact, region: RegionSpec) -> TrialMeter:
        return partial(measure_elfie_region, artifact, region, fs=fs)

    return validate_regions(result, meter, seed, trials, use_alternates)


def validate_with_simulator(
        result: PipelineResult,
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
