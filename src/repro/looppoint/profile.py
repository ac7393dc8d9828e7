"""LoopPoint profiling: marker-delimited slices with per-thread progress.

The profiler is a *block* tool: loop heads are always branch targets,
so every marker crossing begins a basic block and the profiler runs on
the interpreter's superblock fast path (no per-instruction dispatch).

Global progress is the total crossing count of *work* markers summed
over all threads; sync markers (pause-spin, futex wait loops) are
counted separately and contribute neither to progress nor to the
feature vectors — that is the LoopPoint fix for multi-threaded
programs, where spin time varies run to run and would otherwise
dominate the vectors.

A slice is cut every ``slice_markers`` work crossings.  Each slice
records:

- its feature vector (marker offset -> crossings, work markers only),
- the *marker pair* delimiting it (module+offset + global per-marker
  crossing count — the LoopPoint region boundary),
- the realized global instruction-count window (so the existing
  icount-driven logger can capture the slice as a pinball under the
  same deterministic schedule), and
- per-thread retired instruction counts at the boundary (per-thread
  progress, which icount slicing cannot provide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.looppoint.markers import (
    LoopMarker,
    MarkerMap,
    MarkerPoint,
    harvest_markers,
)
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem

#: Default work-marker crossings per slice.
DEFAULT_SLICE_MARKERS = 64

#: Instruction ceiling of one profiling run.
MAX_PROFILE_ICOUNT = 50_000_000


@dataclass
class LoopSlice:
    """One marker-delimited slice of a profiled run."""

    #: Feature vector: marker offset -> work crossings in this slice.
    vector: Dict[int, int]
    #: Realized global icount window [start, end) under the profiling
    #: seed's schedule.
    start_icount: int
    end_icount: int
    #: Boundary markers: None at program start / program end.
    start_marker: Optional[MarkerPoint]
    end_marker: Optional[MarkerPoint]
    #: Cycles consumed by the slice (hardware timing model).
    cycles: int
    #: Per-thread retired instructions at the slice end boundary.
    thread_progress: Dict[int, int] = field(default_factory=dict)

    @property
    def icount(self) -> int:
        return self.end_icount - self.start_icount

    @property
    def cpi(self) -> float:
        if self.icount == 0:
            return 0.0
        return self.cycles / self.icount


class LoopPointProfiler(Tool):
    """Counts marker crossings and cuts marker-delimited slices."""

    wants_instructions = False
    wants_blocks = True

    def __init__(self, marker_map: MarkerMap, slice_markers: int) -> None:
        if slice_markers <= 0:
            raise ValueError("slice_markers must be positive")
        self.marker_map = marker_map
        self.slice_markers = slice_markers
        self._markers: Dict[int, LoopMarker] = marker_map.resolve()
        self.slices: List[LoopSlice] = []
        self.work_crossings = 0
        self.sync_crossings = 0
        #: marker offset -> cumulative global crossing count.
        self.totals: Dict[int, int] = {}
        self._current: Dict[int, int] = {}
        self._slice_start_icount = 0
        self._slice_start_cycles = 0
        self._slice_start_marker: Optional[MarkerPoint] = None

    def on_basic_block(self, machine, thread, pc) -> None:
        marker = self._markers.get(pc)
        if marker is None:
            return
        if marker.is_sync:
            self.sync_crossings += 1
            return
        self.work_crossings += 1
        offset = marker.offset
        self.totals[offset] = self.totals.get(offset, 0) + 1
        self._current[offset] = self._current.get(offset, 0) + 1
        if self.work_crossings % self.slice_markers == 0:
            boundary = self.marker_map.point(offset, self.totals[offset])
            self._cut(machine, boundary)

    def _cut(self, machine, boundary: Optional[MarkerPoint]) -> None:
        end_icount = machine.total_icount()
        end_cycles = machine.total_cycles()
        if end_icount == self._slice_start_icount:
            return
        self.slices.append(LoopSlice(
            vector=self._current,
            start_icount=self._slice_start_icount,
            end_icount=end_icount,
            start_marker=self._slice_start_marker,
            end_marker=boundary,
            cycles=end_cycles - self._slice_start_cycles,
            thread_progress={tid: t.icount
                             for tid, t in machine.threads.items()},
        ))
        self._current = {}
        self._slice_start_icount = end_icount
        self._slice_start_cycles = end_cycles
        self._slice_start_marker = boundary

    def finish(self, machine) -> None:
        """Flush the trailing partial slice at program end."""
        self._cut(machine, None)


@dataclass
class LoopPointProfile:
    """Result of a whole-program LoopPoint profiling run."""

    marker_map: MarkerMap
    slice_markers: int
    slices: List[LoopSlice]
    total_icount: int = 0
    total_cycles: int = 0
    work_crossings: int = 0
    sync_crossings: int = 0
    exit_kind: str = "exit"

    @property
    def num_slices(self) -> int:
        return len(self.slices)

    @property
    def vectors(self) -> List[Dict[int, int]]:
        return [s.vector for s in self.slices]

    @property
    def whole_program_cpi(self) -> float:
        if self.total_icount == 0:
            return 0.0
        return self.total_cycles / self.total_icount

    def slice_cpi(self, index: int) -> float:
        return self.slices[index].cpi


def collect_looppoint(image: bytes,
                      slice_markers: int = DEFAULT_SLICE_MARKERS,
                      seed: int = 0,
                      fs: Optional[FileSystem] = None,
                      argv: Optional[Sequence[str]] = None,
                      marker_map: Optional[MarkerMap] = None
                      ) -> LoopPointProfile:
    """Profile a program into marker-delimited slices.

    The marker map is harvested from *image* unless one is supplied
    (e.g. a map loaded from a campaign artifact).  The run executes to
    completion in a single ``machine.run`` call — slice boundaries are
    recorded by the tool, not imposed by the host, so profiling stays
    on the fast dispatch path throughout.
    """
    if marker_map is None:
        marker_map = harvest_markers(image)
    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, argv=argv)
    profiler = LoopPointProfiler(marker_map, slice_markers)
    machine.attach(profiler)
    status = machine.run(max_instructions=MAX_PROFILE_ICOUNT)
    profiler.finish(machine)
    machine.detach(profiler)
    return LoopPointProfile(
        marker_map=marker_map,
        slice_markers=slice_markers,
        slices=profiler.slices,
        total_icount=machine.total_icount(),
        total_cycles=machine.total_cycles(),
        work_crossings=profiler.work_crossings,
        sync_crossings=profiler.sync_crossings,
        exit_kind=status.kind,
    )
