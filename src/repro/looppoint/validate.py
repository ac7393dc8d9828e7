"""Marker-metered ELFie validation for LoopPoint regions.

The icount-based meter in
:func:`repro.simpoint.validation.measure_elfie_region` measures a
replayed region by retiring a fixed number of instructions past the ROI
marker.  For a multi-threaded ELFie replayed under a
*different* scheduler seed that window no longer contains the intended
work: spin time shifts every icount boundary, so the meter measures a
different mix of phases than the region was selected to represent.

LoopPoint regions do not have that problem, because their boundaries
are work-marker crossing counts.  The meter here counts global
crossings of the harvested *work* loop heads during replay — skipping
the warmup slices' crossings, then measuring over exactly the region's
crossing count — so the measured window is the selected work,
count-for-count, under any interleaving.

The prediction is likewise work-denominated: each region contributes
its measured *cycles per work crossing* and *instructions per work
crossing*, each cluster weight is a share of total work crossings (a
seed-invariant count), and the predicted whole-program CPI is the
ratio of the two extrapolations::

    CPI = (sum_i w_i * cycles_per_work_i) / (sum_i w_i * icount_per_work_i)

Taking the ratio cancels most of the spin-time noise: a replay
schedule that makes a region spin longer inflates its cycle and
instruction rates together.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.elfie import prepare_elfie_machine, run_to_marker
from repro.core.pinball2elf import ElfieArtifact
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.pinplay.regions import RegionSpec
from repro.simpoint.validation import (
    RegionMeasurement,
    ValidationResult,
)


class _MarkerMeter(Tool):
    """Measures cycles between work-marker crossing counts.

    Attached once the ROI marker has retired (the ELFie startup runs on
    the fast path), it counts executions of the work loop heads (every
    loop-head execution is one crossing, exactly as the profiler counts
    them at block entry).  Measurement spans crossing counts
    (skip, skip + measure]; the CPI denominator is the realized global
    instruction count of that span.  With ``skip == 0`` the span opens
    just before the ROI marker, and the caller sets the start.
    """

    wants_instructions = True

    def __init__(self, work_addrs, skip: int, measure: int) -> None:
        self.work_addrs = frozenset(work_addrs)
        self.skip = skip
        self.measure = measure
        self.crossings = 0
        self.start_cycles: Optional[int] = None
        self.start_icount = 0
        self.end_cycles: Optional[int] = None
        self.end_icount = 0

    def _begin(self, machine) -> None:
        self.start_cycles = machine.total_cycles()
        self.start_icount = machine.total_icount()

    def on_instruction(self, machine, thread, pc, insn) -> None:
        if pc not in self.work_addrs:
            return
        self.crossings += 1
        if self.start_cycles is None:
            if self.crossings >= self.skip:
                self._begin(machine)
            return
        if (self.end_cycles is None
                and self.crossings >= self.skip + self.measure):
            self.end_cycles = machine.total_cycles()
            self.end_icount = machine.total_icount()
            machine.request_stop("region measured")

    @property
    def cpi(self) -> Optional[float]:
        if self.start_cycles is None or self.end_cycles is None:
            return None
        retired = self.end_icount - self.start_icount
        if retired == 0:
            return None
        return (self.end_cycles - self.start_cycles) / retired

    @property
    def cycles_per_work(self) -> Optional[float]:
        if self.end_cycles is None or self.measure == 0:
            return None
        return (self.end_cycles - self.start_cycles) / self.measure

    @property
    def icount_per_work(self) -> Optional[float]:
        if self.end_cycles is None or self.measure == 0:
            return None
        return (self.end_icount - self.start_icount) / self.measure


def measure_elfie_region_markers(artifact: ElfieArtifact,
                                 region: RegionSpec,
                                 work_addrs,
                                 skip: int,
                                 measure: int,
                                 seed: int = 0,
                                 fs: Optional[FileSystem] = None,
                                 workdir: str = "/",
                                 budget_factor: int = 8
                                 ) -> RegionMeasurement:
    """Replay a LoopPoint region ELFie and measure it marker-to-marker."""
    try:
        machine, _loaded = prepare_elfie_machine(
            artifact.image, seed=seed, fs=fs, workdir=workdir)
    except Exception as exc:  # loader failures (stack collision)
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail="loader: %s" % exc)
    meter = _MarkerMeter(work_addrs, skip=skip, measure=measure)
    # Budget in realized icounts, with headroom for spin stretching.
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    before, status = run_to_marker(machine, budget)
    if before is not None:
        if skip == 0:
            meter.start_icount, meter.start_cycles = before
        machine.attach(meter)
        status = machine.run(max_instructions=budget)
        machine.detach(meter)
    cpi = meter.cpi
    if cpi is None:
        detail = ("died: %s" % status.detail if status.kind == "signal"
                  else "incomplete: %s (crossings %d of %d)"
                  % (status.detail, meter.crossings, skip + measure))
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=detail)
    return RegionMeasurement(region=region, cpi=cpi, ok=True,
                             cycles_per_work=meter.cycles_per_work,
                             icount_per_work=meter.icount_per_work)


class LoopPointValidation(ValidationResult):
    """ValidationResult with the work-denominated CPI prediction."""

    @property
    def predicted_cpi(self) -> float:
        cycles = icount = 0.0
        for m in self.measurements:
            if not m.ok or m.cycles_per_work is None:
                continue
            cycles += m.region.weight * m.cycles_per_work
            icount += m.region.weight * m.icount_per_work
        if icount == 0:
            return 0.0
        return cycles / icount


def _mean(values: List[Optional[float]]) -> Optional[float]:
    """Mean over trials; None if any trial has none (a window with no
    work crossings has no per-work rate, and the prediction skips it)."""
    if any(value is None for value in values):
        return None
    return sum(values) / len(values)


def _region_crossings(windows: Dict[str, dict],
                      name: str) -> Optional[Tuple[int, int]]:
    window = windows.get(name) or {}
    if "skip" not in window or "measure" not in window:
        return None
    return int(window["skip"]), int(window["measure"])


def validate_looppoint(result, seed: int = 0, trials: int = 3,
                       fs: Optional[FileSystem] = None,
                       use_alternates: bool = True) -> ValidationResult:
    """ELFie-based validation with marker-metered measurement.

    Mirrors :func:`repro.simpoint.validation.validate_with_elfies` —
    trials under different replay seeds, alternates on failure — but
    each trial measures the region by its marker window (crossing
    counts from ``result.marker_windows``), not by icount.
    """
    work_addrs = result.profile.marker_map.work_addresses()
    validation = LoopPointValidation(
        app_name=result.app_name,
        whole_program_cpi=result.profile.whole_program_cpi,
    )
    for region in result.primary_regions:
        validation.measurements.append(_measure_with_alternates(
            result, region, work_addrs, seed=seed, trials=trials, fs=fs,
            use_alternates=use_alternates))
    return validation


def _measure_with_alternates(result, region: RegionSpec, work_addrs,
                             seed: int, trials: int,
                             fs: Optional[FileSystem],
                             use_alternates: bool) -> RegionMeasurement:
    candidates = [region]
    if use_alternates:
        candidates += result.alternates_for(region)
    last: Optional[RegionMeasurement] = None
    for candidate in candidates:
        artifact = result.elfies.get(candidate.name)
        crossings = _region_crossings(result.marker_windows, candidate.name)
        if artifact is None or crossings is None:
            continue
        skip, measure = crossings
        runs: List[RegionMeasurement] = []
        failure: Optional[RegionMeasurement] = None
        for trial in range(trials):
            measurement = measure_elfie_region_markers(
                artifact, candidate, work_addrs, skip=skip, measure=measure,
                seed=seed + trial * 101, fs=fs)
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


def _validate_looppoint_job(result, image, **params):
    return validate_looppoint(result, **params)


def looppoint_validation(label: str = "elfie-markers", seed: int = 0,
                         trials: int = 3, use_alternates: bool = True):
    """Farm validation pass: marker-metered ELFie replay measurement.

    The LoopPoint analogue of
    :func:`repro.simpoint.pinpoints.elfie_validation`.
    """
    from repro.simpoint.pinpoints import FarmValidation
    return FarmValidation(
        label=label,
        fn=_validate_looppoint_job,
        params={"seed": seed, "trials": trials,
                "use_alternates": use_alternates},
    )
