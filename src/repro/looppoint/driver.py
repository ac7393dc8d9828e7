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

:func:`repro.pipeline.run_campaign` is the one entry point; it owns the
pipeline parameters and their defaults, and :data:`LOOPPOINT` owns
``slice_markers`` and ``warmup_slices``.  :func:`run_looppoint` (one
app, in this process) and :func:`run_looppoint_campaign` (the farm)
only bind the selector and a runner, and forward every other keyword.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.farm.store import ArtifactStore
from repro.looppoint.profile import DEFAULT_SLICE_MARKERS, collect_looppoint
from repro.looppoint.select import LoopPointResult, select_loop_regions
from repro.pinplay.regions import RegionSpec
from repro.pipeline import (
    FarmAppOutcome,
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
                  **params: Any) -> PipelineResult:
    """Run the full LoopPoint pipeline on *image* in this process.

    *params* go to :func:`repro.pipeline.run_campaign`.
    """
    return run_campaign(LOOPPOINT, {app_name: image}, jobs=1,
                        **params)[app_name].result


def run_looppoint_campaign(images: Dict[str, bytes],
                           store: Optional[ArtifactStore],
                           **params: Any) -> Dict[str, FarmAppOutcome]:
    """Run the LoopPoint pipeline for several apps through the farm.

    *params* go to :func:`repro.pipeline.run_campaign`.
    """
    return run_campaign(LOOPPOINT, images, store, **params)
