"""LoopPoint: the marker-based selector of the region pipeline.

:data:`LOOPPOINT` plugs marker-slice profiling and LoopPoint clustering
into the shared pipeline of :mod:`repro.pipeline`.  The produced
ELFies' boundaries are *marker pairs*: each region's marker window
records the (module+offset, crossing-count) pair delimiting it, with
the realized icount window used only to drive the deterministic
logger.

Farm memo keys carry :data:`REGION_SELECTOR`, so LoopPoint artifacts
and BBV-SimPoint artifacts for the same workload can never collide in
the store (the SimPoint pipeline stamps its own selector identity).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.core.markers import MarkerSpec
from repro.farm.runner import FarmRunner
from repro.farm.store import ArtifactStore
from repro.looppoint.profile import DEFAULT_SLICE_MARKERS, collect_looppoint
from repro.looppoint.select import LoopPointResult, select_loop_regions
from repro.pinplay.regions import RegionSpec
from repro.pipeline import (
    FarmAppOutcome,
    FarmValidation,
    MarkerWindows,
    PipelineResult,
    Selector,
    run_campaign,
)

#: Selector identity/version stamped into farm memo keys and manifests.
REGION_SELECTOR = "looppoint/v1"

#: Graceful-exit budget multiplier for marker-bounded ELFies.  The
#: per-thread counters are armed at 2x the captured counts: a replay
#: under a shifted schedule redistributes spin between threads, so a
#: thread can legitimately need more instructions than it retired at
#: capture time before the region's work-marker crossings complete.
PERF_EXIT_SLACK = 2.0


def _window_json(selection: LoopPointResult,
                 regions: Sequence[RegionSpec]) -> MarkerWindows:
    windows: MarkerWindows = {}
    for region in regions:
        start, end = selection.marker_window(region.name)
        skip, measure = selection.measure_crossings(region.name)
        windows[region.name] = {
            "start": start.to_json() if start else None,
            "end": end.to_json() if end else None,
            "skip": skip,
            "measure": measure,
        }
    return windows


LOOPPOINT = Selector(
    stamp=REGION_SELECTOR,
    label_prefix="",
    profile=collect_looppoint,
    select=select_loop_regions,
    regions=LoopPointResult.regions,
    profile_params={"slice_markers": DEFAULT_SLICE_MARKERS},
    region_params={"warmup_slices": 1},
    infix=".L",
    marker_tag=0x100,
    perf_exit_slack=PERF_EXIT_SLACK,
    marker_windows=_window_json,
)


def run_looppoint(image: bytes, app_name: str,
                  slice_markers: int = DEFAULT_SLICE_MARKERS,
                  warmup_slices: int = 1,
                  max_k: int = 50,
                  seed: int = 0,
                  max_alternates: int = 2,
                  capture: bool = True,
                  marker: Optional[MarkerSpec] = None,
                  perf_exit: bool = True,
                  cluster_seed: int = 42) -> PipelineResult:
    """Run the full LoopPoint pipeline on *image* in this process."""
    return run_campaign(
        LOOPPOINT, {app_name: image}, jobs=1, capture=capture,
        slice_markers=slice_markers, warmup_slices=warmup_slices,
        max_k=max_k, seed=seed, max_alternates=max_alternates,
        marker=marker, perf_exit=perf_exit,
        cluster_seed=cluster_seed)[app_name].result


def run_looppoint_campaign(images: Dict[str, bytes],
                           store: ArtifactStore,
                           jobs: Optional[int] = None,
                           manifest_path: Optional[str] = None,
                           runner: Optional[FarmRunner] = None,
                           slice_markers: int = DEFAULT_SLICE_MARKERS,
                           warmup_slices: int = 1,
                           max_k: int = 50,
                           seed: int = 0,
                           max_alternates: int = 2,
                           marker: Optional[MarkerSpec] = None,
                           perf_exit: bool = True,
                           cluster_seed: int = 42,
                           validations: Sequence[FarmValidation] = (),
                           preemptible: bool = False,
                           ) -> Dict[str, FarmAppOutcome]:
    """Run the LoopPoint pipeline for several apps through the farm."""
    return run_campaign(
        LOOPPOINT, images, store, jobs=jobs, manifest_path=manifest_path,
        runner=runner, validations=validations, preemptible=preemptible,
        slice_markers=slice_markers, warmup_slices=warmup_slices,
        max_k=max_k, seed=seed, max_alternates=max_alternates,
        marker=marker, perf_exit=perf_exit, cluster_seed=cluster_seed)
