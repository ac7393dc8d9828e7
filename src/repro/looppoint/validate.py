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

from functools import partial
from typing import Optional

from repro.core.elfie import prepare_elfie_machine, run_to_marker
from repro.core.pinball2elf import ElfieArtifact
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.pinplay.regions import RegionSpec
from repro.pipeline import FarmValidation
from repro.simpoint.validation import (
    RegionMeasurement,
    ValidationResult,
    validate_regions,
)


class _MarkerMeter(Tool):
    """Measures cycles between work-marker crossing counts.

    Attached once the ROI marker has retired (the ELFie startup runs on
    the fast path), it counts block entries at the work loop heads,
    exactly the crossings the profiler counts (a fall-through into a
    loop head is not a crossing).  Measurement spans crossing counts
    (skip, skip + measure]; the CPI denominator is the realized global
    instruction count of that span.  With ``skip == 0`` the span opens
    just before the ROI marker, and the caller sets the start.

    A block tool, so the measured window runs on the compiled tier.  It
    counts every crossing, so it watches the work addresses: a compiled
    loop through one returns to the dispatch header at every block
    while it is attached, and other loops keep spinning.
    """

    wants_instructions = False
    wants_blocks = True
    accepts_loop_exits = True

    def __init__(self, work_addrs, skip: int, measure: int) -> None:
        self.work_addrs = self.watched_pcs = frozenset(work_addrs)
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

    def on_basic_block(self, machine, thread, pc) -> None:
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
        # Any instruction tool would pin the window to the slow tier.
        assert not machine.instr_tools, machine.instr_tools
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


def validate_looppoint(result, seed: int = 0, trials: int = 3,
                       fs: Optional[FileSystem] = None,
                       use_alternates: bool = True) -> ValidationResult:
    """ELFie-based validation with marker-metered measurement.

    The shared :func:`repro.simpoint.validation.validate_regions` loop
    (trials under different replay seeds, alternates on failure), with
    each trial measuring the region by its marker window (crossing
    counts from ``result.marker_windows``), not by icount.
    """
    work_addrs = result.profile.marker_map.work_addresses()

    def meter(artifact: ElfieArtifact, region: RegionSpec):
        window = result.marker_windows.get(region.name)
        if window is None:
            return None
        return partial(measure_elfie_region_markers, artifact, region,
                       work_addrs, skip=int(window["skip"]),
                       measure=int(window["measure"]), fs=fs)

    return validate_regions(result, meter, seed, trials, use_alternates,
                            cls=LoopPointValidation)


# validate memo keys hold this module and qualname: do not move or rename
def _validate_looppoint_job(result, image, **params):
    return validate_looppoint(result, **params)


def looppoint_validation(label: str = "elfie-markers", seed: int = 0,
                         trials: int = 3, use_alternates: bool = True):
    """Farm validation pass: marker-metered ELFie replay measurement.

    The LoopPoint analogue of
    :func:`repro.simpoint.pinpoints.elfie_validation`.
    """
    return FarmValidation(
        label=label,
        fn=_validate_looppoint_job,
        params={"seed": seed, "trials": trials,
                "use_alternates": use_alternates},
    )
