"""LoopPoint: loop-marker region selection for multi-threaded workloads.

SimPoint-on-BBVs slices programs by global instruction count, which is
unsound for multi-threaded programs: spin/synchronization instructions
pollute the feature vectors, and a fixed icount says nothing about how
far each thread has progressed.  LoopPoint instead measures progress in
dynamic *loop-entry marker* crossings:

- :mod:`repro.looppoint.markers` — static harvest of loop back-edges
  from the ELF image into a module+offset-relative marker map, with
  pause-spin and futex-wait loops classified as synchronization;
- :mod:`repro.looppoint.profile` — a block-level profiling tool that
  counts global marker crossings (sync excluded), cuts marker-delimited
  slices, and records per-thread progress at each boundary;
- :mod:`repro.looppoint.select` — PCA projection + the shared k-means/
  BIC clustering, with work-crossing-weighted cluster weights;
- :mod:`repro.looppoint.driver` — the LoopPoint selector of the shared
  region pipeline (:mod:`repro.pipeline`), producing ELFies whose
  boundaries are marker pairs;
- :mod:`repro.looppoint.validate` — marker-metered ELFie replay
  validation: regions are measured by counting work-marker crossings,
  so the measured window is schedule-independent.
"""

from repro.looppoint.markers import (
    MARKER_MAP_VERSION,
    LoopMarker,
    MarkerMap,
    MarkerPoint,
    harvest_markers,
    module_id,
)
from repro.looppoint.profile import (
    DEFAULT_SLICE_MARKERS,
    LoopPointProfile,
    LoopPointProfiler,
    LoopSlice,
    collect_looppoint,
)
from repro.looppoint.select import (
    LoopPointResult,
    pca_project,
    select_loop_regions,
)
from repro.looppoint.driver import (
    LOOPPOINT,
    REGION_SELECTOR,
    run_looppoint,
    run_looppoint_campaign,
)
from repro.looppoint.validate import (
    looppoint_validation,
    measure_elfie_region_markers,
    validate_looppoint,
)

__all__ = [
    "MARKER_MAP_VERSION",
    "LoopMarker",
    "MarkerMap",
    "MarkerPoint",
    "harvest_markers",
    "module_id",
    "DEFAULT_SLICE_MARKERS",
    "LoopPointProfile",
    "LoopPointProfiler",
    "LoopSlice",
    "collect_looppoint",
    "LoopPointResult",
    "pca_project",
    "select_loop_regions",
    "LOOPPOINT",
    "REGION_SELECTOR",
    "run_looppoint",
    "run_looppoint_campaign",
    "looppoint_validation",
    "measure_elfie_region_markers",
    "validate_looppoint",
]
