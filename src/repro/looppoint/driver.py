"""The LoopPoint driver: harvest, profile, cluster, capture, convert.

Mirrors :mod:`repro.simpoint.pinpoints` — same two driver shapes (a
direct single-process path and a farm-backed memoized job graph), same
capture/convert tail — but the selection stage is marker-based and the
produced ELFies' boundaries are *marker pairs*: each captured region's
manifest records the (module+offset, crossing-count) pair delimiting
it, with the realized icount window used only to drive the
deterministic logger.

Farm memo keys carry :data:`REGION_SELECTOR`, so LoopPoint artifacts
and BBV-SimPoint artifacts for the same workload can never collide in
the store (the SimPoint pipeline stamps its own selector identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.markers import MarkerSpec
from repro.core.pinball2elf import ElfieArtifact, Pinball2Elf, Pinball2ElfOptions
from repro.farm.codec import stable_digest
from repro.farm.jobs import Job, JobGraph, Ref
from repro.farm.runner import FarmRunner
from repro.farm.store import ArtifactStore
from repro.looppoint.markers import MarkerMap, MarkerPoint
from repro.looppoint.profile import (
    DEFAULT_SLICE_MARKERS,
    LoopPointProfile,
    collect_looppoint,
)
from repro.looppoint.select import LoopPointResult, select_loop_regions
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.logger import log_regions
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.simpoint.pinpoints import (
    FarmAppOutcome,
    FarmValidation,
    _capturable,
    _job_log,
    _region_spec_tuple,
)

#: Selector identity/version stamped into farm memo keys and manifests.
REGION_SELECTOR = "looppoint/v1"

#: Graceful-exit budget multiplier for marker-bounded ELFies.  The
#: per-thread counters are armed at 2x the captured counts: a replay
#: under a shifted schedule redistributes spin between threads, so a
#: thread can legitimately need more instructions than it retired at
#: capture time before the region's work-marker crossings complete.
PERF_EXIT_SLACK = 2.0

#: JSON-able marker window: region name -> {"start": ..., "end": ...,
#: "skip": warmup crossings, "measure": region crossings}.  start/end
#: are MarkerPoint JSON (or None at program edges); skip/measure are
#: the replay recipe — skip that many work-marker crossings after the
#: ROI marker, then measure over the next ``measure`` crossings.
MarkerWindows = Dict[str, Dict[str, Any]]


@dataclass
class LoopPointsResult:
    """Everything the LoopPoint pipeline produced for one program.

    Duck-type compatible with :class:`PinPointsResult` where it
    matters: ``repro.simpoint.validation.validate_with_elfies`` (and
    the farm validation passes built on it) accept either.
    """

    app_name: str
    profile: LoopPointProfile
    selection: LoopPointResult
    #: Primary + alternate regions (realized icount windows).
    regions: List[RegionSpec]
    #: region name -> marker-pair boundary (JSON form).
    marker_windows: MarkerWindows = field(default_factory=dict)
    #: region name -> captured fat pinball.
    pinballs: Dict[str, Pinball] = field(default_factory=dict)
    #: region name -> generated ELFie artifact.
    elfies: Dict[str, ElfieArtifact] = field(default_factory=dict)

    @property
    def primary_regions(self) -> List[RegionSpec]:
        return [r for r in self.regions if ".alt" not in r.name]

    def alternates_for(self, region: RegionSpec) -> List[RegionSpec]:
        base = region.name.split(".alt")[0]
        return sorted(
            (r for r in self.regions if r.name.startswith(base + ".alt")),
            key=lambda r: r.name,
        )

    def marker_window(self, name: str) -> Tuple[Optional[MarkerPoint],
                                                Optional[MarkerPoint]]:
        window = self.marker_windows.get(name, {})

        def load(side: str) -> Optional[MarkerPoint]:
            data = window.get(side)
            return MarkerPoint.from_json(data) if data else None

        return load("start"), load("end")


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


def run_looppoint(image: bytes, app_name: str,
                  slice_markers: int = DEFAULT_SLICE_MARKERS,
                  warmup_slices: int = 1,
                  max_k: int = 50,
                  seed: int = 0,
                  fs: Optional[FileSystem] = None,
                  max_alternates: int = 2,
                  capture: bool = True,
                  make_elfies: bool = True,
                  marker: Optional[MarkerSpec] = None,
                  perf_exit: bool = True,
                  cluster_seed: int = 42,
                  marker_map: Optional[MarkerMap] = None) -> LoopPointsResult:
    """Run the full LoopPoint pipeline on *image* (direct path)."""
    obs = hooks.OBS
    with obs.span("looppoint.profile", "looppoint", app=app_name):
        profile = collect_looppoint(image, slice_markers=slice_markers,
                                    seed=seed, fs=fs, marker_map=marker_map)
    with obs.span("looppoint.cluster", "looppoint", app=app_name):
        selection = select_loop_regions(profile, max_k=max_k,
                                        seed=cluster_seed)
    regions = selection.regions(warmup_slices=warmup_slices,
                                name_prefix="%s.L" % app_name,
                                max_alternates=max_alternates)
    result = LoopPointsResult(
        app_name=app_name,
        profile=profile,
        selection=selection,
        regions=regions,
        marker_windows=_window_json(selection, regions),
    )
    if not capture:
        return result
    marker = marker or MarkerSpec("sniper", 0x100)
    with obs.span("looppoint.capture", "looppoint", app=app_name):
        pinballs = log_regions(
            image, _capturable(regions, profile.total_icount),
            seed=seed, fs=fs)
        for name, pinball in pinballs.items():
            pinball.program_icount = profile.total_icount
            result.pinballs[name] = pinball
            if make_elfies:
                with obs.span("looppoint.convert", "looppoint",
                              region=name):
                    artifact = Pinball2Elf(
                        pinball,
                        Pinball2ElfOptions(
                            perf_exit=perf_exit,
                            perf_exit_slack=PERF_EXIT_SLACK,
                            marker=marker),
                    ).convert()
                result.elfies[name] = artifact
    return result


# ---------------------------------------------------------------------------
# Farm-backed driver.
# ---------------------------------------------------------------------------


def _job_profile(image: bytes, slice_markers: int,
                 seed: int) -> LoopPointProfile:
    return collect_looppoint(image, slice_markers=slice_markers, seed=seed)


def _job_select(profile: LoopPointProfile, max_k: int,
                cluster_seed: int) -> LoopPointResult:
    return select_loop_regions(profile, max_k=max_k, seed=cluster_seed)


def _job_convert(pinball: Optional[Pinball], perf_exit: bool,
                 marker_type: str, marker_tag: int) -> Optional[ElfieArtifact]:
    if pinball is None:
        return None
    options = Pinball2ElfOptions(
        perf_exit=perf_exit, perf_exit_slack=PERF_EXIT_SLACK,
        marker=MarkerSpec(marker_type, marker_tag))
    return Pinball2Elf(pinball, options).convert()


def _job_assemble(app_name: str, profile: LoopPointProfile,
                  selection: LoopPointResult, regions: List[RegionSpec],
                  windows: MarkerWindows,
                  pinballs: Dict[str, Pinball],
                  elfies: Dict[str, Optional[ElfieArtifact]],
                  ) -> LoopPointsResult:
    result = LoopPointsResult(app_name=app_name, profile=profile,
                              selection=selection, regions=regions,
                              marker_windows=windows,
                              pinballs=dict(pinballs))
    result.elfies = {name: artifact for name, artifact in elfies.items()
                     if artifact is not None}
    return result


def _job_validate(fn, result: LoopPointsResult, image: bytes,
                  params: Dict[str, Any]) -> Any:
    return fn(result, image, **params)


def add_looppoint_jobs(graph: JobGraph, image: bytes, app_name: str,
                       slice_markers: int = DEFAULT_SLICE_MARKERS,
                       warmup_slices: int = 1,
                       max_k: int = 50,
                       seed: int = 0,
                       max_alternates: int = 2,
                       marker: Optional[MarkerSpec] = None,
                       perf_exit: bool = True,
                       cluster_seed: int = 42,
                       validations: Sequence[FarmValidation] = ()) -> str:
    """Add one app's LoopPoint pipeline to a campaign graph.

    Same graph shape as :func:`add_pinpoints_jobs` (profile -> select
    -> expand into log/convert/assemble/validate); every memo key
    leads with :data:`REGION_SELECTOR` and the marker-map version, so
    selector pipelines never share cache entries.
    """
    marker = marker or MarkerSpec("sniper", 0x100)
    workload_key = stable_digest({"image": image, "app": app_name,
                                  "selector": REGION_SELECTOR})
    profile_name = "%s/profile" % app_name
    select_name = "%s/select" % app_name
    graph.add(Job(
        name=profile_name,
        fn=_job_profile,
        args=(image, slice_markers, seed),
        key=stable_digest([REGION_SELECTOR, "profile", workload_key,
                           slice_markers, seed]),
        stage="profile",
        selector=REGION_SELECTOR,
    ))

    pipeline_spec = {
        "selector": REGION_SELECTOR,
        "workload": workload_key,
        "slice_markers": slice_markers, "warmup_slices": warmup_slices,
        "max_k": max_k,
        "seed": seed, "cluster_seed": cluster_seed,
        "max_alternates": max_alternates,
        "marker": [marker.marker_type, marker.tag],
        "perf_exit": perf_exit,
        "log": {"fat": True},
    }

    def expand_selection(selection: LoopPointResult, graph: JobGraph,
                         results: Dict[str, Any]) -> None:
        profile = results[profile_name]
        regions = selection.regions(warmup_slices=warmup_slices,
                                    name_prefix="%s.L" % app_name,
                                    max_alternates=max_alternates)
        windows = _window_json(selection, regions)
        capturable = _capturable(regions, profile.total_icount)
        log_name = "%s/log" % app_name
        graph.add(Job(
            name=log_name,
            fn=_job_log,
            args=(image, capturable, seed, profile.total_icount),
            key=stable_digest([REGION_SELECTOR, "log", workload_key,
                               seed, {"fat": True},
                               [_region_spec_tuple(r) for r in capturable]]),
            kind="pinballs",
            deps=(select_name,),
            stage="log",
            selector=REGION_SELECTOR,
        ))
        convert_refs: Dict[str, Ref] = {}
        for region in capturable:
            convert_name = "%s/convert/%s" % (app_name, region.name)
            graph.add(Job(
                name=convert_name,
                fn=_job_convert,
                args=(Ref(log_name,
                          select=lambda pbs, n=region.name: pbs.get(n)),
                      perf_exit, marker.marker_type, marker.tag),
                key=stable_digest([REGION_SELECTOR, "elfie",
                                   workload_key,
                                   _region_spec_tuple(region),
                                   windows[region.name], seed,
                                   {"fat": True},
                                   {"perf_exit": perf_exit,
                                    "slack": PERF_EXIT_SLACK,
                                    "marker": [marker.marker_type,
                                               marker.tag]}]),
                stage="convert",
                selector=REGION_SELECTOR,
            ))
            convert_refs[region.name] = Ref(convert_name)
        assemble_name = "%s/assemble" % app_name
        graph.add(Job(
            name=assemble_name,
            fn=_job_assemble,
            args=(app_name, Ref(profile_name), Ref(select_name),
                  list(regions), windows, Ref(log_name), convert_refs),
            local=True,
            stage="assemble",
            selector=REGION_SELECTOR,
        ))
        for validation in validations:
            graph.add(Job(
                name="%s/validate/%s" % (app_name, validation.label),
                fn=_job_validate,
                args=(validation.fn, Ref(assemble_name), image,
                      dict(validation.params)),
                key=stable_digest([REGION_SELECTOR, "validate",
                                   pipeline_spec, validation.label,
                                   "%s.%s" % (validation.fn.__module__,
                                              validation.fn.__qualname__),
                                   validation.params]),
                stage="validate",
                selector=REGION_SELECTOR,
            ))

    graph.add(Job(
        name=select_name,
        fn=_job_select,
        args=(Ref(profile_name), max_k, cluster_seed),
        key=stable_digest([REGION_SELECTOR, "select", workload_key,
                           slice_markers, seed, max_k, cluster_seed]),
        stage="cluster",
        expand=expand_selection,
        selector=REGION_SELECTOR,
    ))
    return "%s/assemble" % app_name


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
    obs = hooks.OBS
    with obs.span("campaign.build", "farm", apps=sorted(images),
                  selector=REGION_SELECTOR):
        graph = JobGraph()
        for app_name, image in images.items():
            add_looppoint_jobs(graph, image, app_name,
                               slice_markers=slice_markers,
                               warmup_slices=warmup_slices,
                               max_k=max_k, seed=seed,
                               max_alternates=max_alternates, marker=marker,
                               perf_exit=perf_exit, cluster_seed=cluster_seed,
                               validations=validations)
    if runner is None:
        runner = FarmRunner(store, jobs=jobs, manifest_path=manifest_path,
                            preemptible=preemptible)
    with obs.span("campaign.run", "farm", apps=sorted(images),
                  workers=runner.jobs, selector=REGION_SELECTOR):
        results = runner.run(graph, strict=not preemptible)
    outcomes: Dict[str, FarmAppOutcome] = {}
    for app_name in images:
        assembled = results.get("%s/assemble" % app_name)
        if assembled is None:
            continue
        outcomes[app_name] = FarmAppOutcome(
            result=assembled,
            validations={
                validation.label:
                    results["%s/validate/%s" % (app_name, validation.label)]
                for validation in validations
                if "%s/validate/%s" % (app_name, validation.label) in results
            },
        )
    return outcomes
