"""The region-selection pipeline: profile, select, capture, convert, validate.

PinPoints (paper §IV-A) and LoopPoint run the same pipeline; only the
first step, "program analysis and sample selection", depends on the
selector.  A :class:`Selector` holds that difference — its profile and
select functions, how a selection turns into named regions, and the
few conversion and memo-key details that follow from them — and one
job graph serves both:

    <app>/profile -> <app>/select -> <app>/log -> <app>/convert/<region>
                                                -> <app>/assemble
                                                -> <app>/validate/<label>

The log/convert/assemble/validate tail depends on the selection, so
the select job's ``expand`` callback adds it.  Every job with a key is
memoized in the runner's artifact store.  :func:`run_campaign` runs
the graph for several apps on any runner: a local pool, the service,
or ``FarmRunner(store=None, jobs=1)``, which is the direct in-process
path of ``run_pinpoints`` and ``run_looppoint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.markers import MarkerSpec
from repro.core.pinball2elf import ElfieArtifact, Pinball2Elf, Pinball2ElfOptions
from repro.farm.codec import stable_digest
from repro.farm.jobs import Job, JobGraph, Ref
from repro.farm.runner import FarmRunner, GraphRunner
from repro.farm.store import ArtifactStore
from repro.observe import hooks
from repro.pinplay.logger import log_regions
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec

#: JSON-able marker window: region name -> {"start": ..., "end": ...,
#: "skip": warmup crossings, "measure": region crossings}.  start/end
#: are MarkerPoint JSON (or None at program edges); skip/measure are
#: the replay recipe — skip that many work-marker crossings after the
#: ROI marker, then measure over the next ``measure`` crossings.
MarkerWindows = Dict[str, Dict[str, Any]]


@dataclass(frozen=True)
class Selector:
    """What differs between two region selectors; the rest is shared.

    ``profile(image, *profile_params.values(), seed)`` and
    ``select(profile, max_k, cluster_seed)`` run as farm jobs, so both
    must be module-level functions.  ``regions(selection, name_prefix=,
    max_alternates=, **region_params)`` names the selected regions in
    the parent process.
    """

    #: identity/version leading every memo key and stamped into
    #: manifests, so two selectors' artifacts never collide in a store
    stamp: str
    #: prefix of the memo-key stage labels ("pinpoints.profile", ...)
    label_prefix: str
    profile: Callable[..., Any]
    select: Callable[..., Any]
    regions: Callable[..., List[RegionSpec]]
    #: campaign parameters (and defaults) of ``profile`` and ``regions``
    profile_params: Dict[str, Any]
    region_params: Dict[str, Any]
    #: region names are ``<app><infix><cluster>[.alt<rank>]``
    infix: str
    #: tag of the default ROI marker inserted into each ELFie
    marker_tag: int
    #: graceful-exit budget multiplier of the converted ELFies
    perf_exit_slack: float = Pinball2ElfOptions.perf_exit_slack
    #: ``marker_windows(selection, regions)`` for marker-bounded regions
    marker_windows: Optional[Callable[[Any, Sequence[RegionSpec]],
                                      MarkerWindows]] = None


@dataclass
class PipelineResult:
    """Everything the pipeline produced for one program."""

    app_name: str
    profile: Any
    #: the selector's outcome (a SimPointResult or LoopPointResult)
    selection: Any
    #: Primary + alternate regions (rank encoded in the region name).
    regions: List[RegionSpec]
    #: region name -> marker-pair boundary (marker-bounded selectors).
    marker_windows: MarkerWindows = field(default_factory=dict)
    #: region name -> captured fat pinball.
    pinballs: Dict[str, Pinball] = field(default_factory=dict)
    #: region name -> generated ELFie artifact.
    elfies: Dict[str, ElfieArtifact] = field(default_factory=dict)

    @property
    def primary_regions(self) -> List[RegionSpec]:
        return [r for r in self.regions if ".alt" not in r.name]

    def alternates_for(self, region: RegionSpec) -> List[RegionSpec]:
        """Alternate regions of the same cluster, best first."""
        base = region.name.split(".alt")[0]
        return sorted(
            (r for r in self.regions if r.name.startswith(base + ".alt")),
            key=lambda r: r.name,
        )

    def marker_window(self, name: str) -> Tuple[Any, Any]:
        """The (start, end) MarkerPoints of a marker-bounded region."""
        from repro.looppoint.markers import MarkerPoint

        window = self.marker_windows.get(name, {})

        def load(side: str) -> Any:
            data = window.get(side)
            return MarkerPoint.from_json(data) if data else None

        return load("start"), load("end")


#: A post-pipeline measurement pass: ``fn(result, image, **params)``
#: must be a picklable module-level callable returning any picklable
#: value (typically a ``ValidationResult``).
@dataclass(frozen=True)
class FarmValidation:
    label: str
    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FarmAppOutcome:
    """What a campaign produced for one app."""

    result: PipelineResult
    validations: Dict[str, Any] = field(default_factory=dict)


def _capturable(regions: Sequence[RegionSpec],
                total_icount: int) -> List[RegionSpec]:
    """The regions whose window ends within the profiled run.

    :func:`log_regions` captures them all in one run of the program,
    overlapping windows included (a big warmup around adjacent slices
    overlaps its neighbours).
    """
    return [region for region in regions if region.end <= total_icount]


def _region_spec_tuple(region: RegionSpec) -> List[Any]:
    return [region.start, region.length, region.warmup, region.name,
            region.weight]


def _job_log(image: bytes, regions: Sequence[RegionSpec], seed: int,
             program_icount: int) -> Dict[str, Pinball]:
    pinballs = log_regions(image, regions, seed=seed)
    for pinball in pinballs.values():
        pinball.program_icount = program_icount
    return pinballs


def _job_convert(pinball: Optional[Pinball],
                 options: Pinball2ElfOptions) -> Optional[ElfieArtifact]:
    if pinball is None:
        # the logger skipped this region (program ended early)
        return None
    return Pinball2Elf(pinball, options).convert()


def _job_assemble(app_name: str, profile: Any, selection: Any,
                  regions: List[RegionSpec], windows: MarkerWindows,
                  pinballs: Dict[str, Pinball],
                  elfies: Dict[str, Optional[ElfieArtifact]],
                  ) -> PipelineResult:
    return PipelineResult(
        app_name=app_name, profile=profile, selection=selection,
        regions=regions, marker_windows=windows, pinballs=dict(pinballs),
        elfies={name: artifact for name, artifact in elfies.items()
                if artifact is not None})


def add_region_jobs(graph: JobGraph, selector: Selector, image: bytes,
                    app_name: str,
                    max_k: int = 50,
                    seed: int = 0,
                    max_alternates: int = 2,
                    marker: Optional[MarkerSpec] = None,
                    perf_exit: bool = True,
                    cluster_seed: int = 42,
                    validations: Sequence[FarmValidation] = (),
                    capture: bool = True,
                    **params: Any) -> str:
    """Add one app's pipeline to a campaign graph.

    *params* are the selector's own parameters (``profile_params`` and
    ``region_params``; unnamed ones take its defaults).  Jobs are keyed
    by a deterministic digest of (selector, workload, region, logger
    options, converter options), so unchanged sub-pipelines are served
    from the store on re-runs.  Without *capture* the graph stops at
    the selection: the assembled result has regions but no pinballs.

    Returns the name of the app's assemble job (whose result is the
    :class:`PipelineResult`); validation jobs are named
    ``<app>/validate/<label>``.
    """
    unknown = set(params) - set(selector.profile_params) \
        - set(selector.region_params)
    if unknown:
        raise TypeError("unknown %s parameters: %s"
                        % (selector.stamp, ", ".join(sorted(unknown))))
    profile_params = {name: params.get(name, default)
                      for name, default in selector.profile_params.items()}
    region_params = {name: params.get(name, default)
                     for name, default in selector.region_params.items()}
    marker = marker or MarkerSpec("sniper", selector.marker_tag)
    stamp, label = selector.stamp, selector.label_prefix
    workload_key = stable_digest({"image": image, "app": app_name,
                                  "selector": stamp})
    profile_name = "%s/profile" % app_name
    select_name = "%s/select" % app_name
    assemble_name = "%s/assemble" % app_name
    graph.add(Job(
        name=profile_name,
        fn=selector.profile,
        args=(image, *profile_params.values(), seed),
        key=stable_digest([stamp, label + "profile", workload_key,
                           *profile_params.values(), seed]),
        stage="profile", selector=stamp,
    ))

    pipeline_spec = {
        "selector": stamp,
        "workload": workload_key,
        **profile_params, **region_params,
        "max_k": max_k,
        "seed": seed, "cluster_seed": cluster_seed,
        "max_alternates": max_alternates,
        "marker": [marker.marker_type, marker.tag],
        "perf_exit": perf_exit,
        "log": {"fat": True},
    }
    options = Pinball2ElfOptions(perf_exit=perf_exit, marker=marker,
                                 perf_exit_slack=selector.perf_exit_slack)
    convert_spec = {"perf_exit": perf_exit,
                    "marker": [marker.marker_type, marker.tag]}
    if selector.perf_exit_slack != Pinball2ElfOptions.perf_exit_slack:
        # keyed only where it differs from the converter's default
        convert_spec["slack"] = selector.perf_exit_slack

    def expand_selection(selection: Any, graph: JobGraph,
                         results: Dict[str, Any]) -> None:
        profile = results[profile_name]
        regions = selector.regions(
            selection, name_prefix=app_name + selector.infix,
            max_alternates=max_alternates, **region_params)
        windows = (selector.marker_windows(selection, regions)
                   if selector.marker_windows is not None else {})
        pinballs: Any = {}
        convert_refs: Dict[str, Ref] = {}
        if capture:
            capturable = _capturable(regions, profile.total_icount)
            log_name = "%s/log" % app_name
            graph.add(Job(
                name=log_name,
                fn=_job_log,
                args=(image, capturable, seed, profile.total_icount),
                key=stable_digest([
                    stamp, label + "log", workload_key, seed, {"fat": True},
                    [_region_spec_tuple(r) for r in capturable]]),
                kind="pinballs",
                deps=(select_name,),
                stage="log", selector=stamp,
            ))
            pinballs = Ref(log_name)
            for region in capturable:
                convert_name = "%s/convert/%s" % (app_name, region.name)
                window = ([windows[region.name]]
                          if selector.marker_windows is not None else [])
                graph.add(Job(
                    name=convert_name,
                    fn=_job_convert,
                    args=(Ref(log_name,
                              select=lambda pbs, n=region.name: pbs.get(n)),
                          options),
                    key=stable_digest([
                        stamp, label + "elfie", workload_key,
                        _region_spec_tuple(region), *window, seed,
                        {"fat": True}, convert_spec]),
                    stage="convert", selector=stamp,
                ))
                convert_refs[region.name] = Ref(convert_name)
        graph.add(Job(
            name=assemble_name,
            fn=_job_assemble,
            args=(app_name, Ref(profile_name), Ref(select_name),
                  list(regions), windows, pinballs, convert_refs),
            local=True,
            stage="assemble", selector=stamp,
        ))
        for validation in validations:
            graph.add(Job(
                name="%s/validate/%s" % (app_name, validation.label),
                fn=validation.fn,
                args=(Ref(assemble_name), image),
                kwargs=dict(validation.params),
                key=stable_digest([stamp, label + "validate", pipeline_spec,
                                   validation.label,
                                   "%s.%s" % (validation.fn.__module__,
                                              validation.fn.__qualname__),
                                   validation.params]),
                stage="validate", selector=stamp,
            ))

    graph.add(Job(
        name=select_name,
        fn=selector.select,
        args=(Ref(profile_name), max_k, cluster_seed),
        key=stable_digest([stamp, label + "select", workload_key,
                           *profile_params.values(), seed, max_k,
                           cluster_seed]),
        expand=expand_selection,
        stage="cluster", selector=stamp,
    ))
    return assemble_name


def run_campaign(selector: Selector, images: Dict[str, bytes],
                 store: Optional[ArtifactStore] = None,
                 jobs: Optional[int] = None,
                 manifest_path: Optional[str] = None,
                 runner: Optional[GraphRunner] = None,
                 validations: Sequence[FarmValidation] = (),
                 preemptible: bool = False,
                 **params: Any) -> Dict[str, FarmAppOutcome]:
    """Run the pipeline for several apps; returns ``{app: outcome}``.

    Independent per-app jobs fan out across the runner's workers; with
    a *store* every completed keyed job is memoized, so re-running the
    same campaign is a warm, logger/converter-free pass.  *runner*
    (any :class:`GraphRunner`: a :class:`FarmRunner`, or a
    ``ServiceCampaignRunner`` executing through the service under the
    same campaign loop) overrides the ``FarmRunner(store, jobs,
    manifest_path)`` built by default.
    *params* go to :func:`add_region_jobs`.

    With *preemptible*, a requested preemption (SIGTERM under
    ``farm run --preemptible``) checkpoints the in-flight profile job
    into the store, defers the rest of the graph, and returns the apps
    that did finish; re-running the identical campaign resumes from
    the memoized results plus the checkpoint.
    """
    obs = hooks.OBS
    with obs.span("campaign.build", "farm", apps=sorted(images),
                  selector=selector.stamp):
        graph = JobGraph()
        for app_name, image in images.items():
            add_region_jobs(graph, selector, image, app_name,
                            validations=validations, **params)
    if runner is None:
        runner = FarmRunner(store, jobs=jobs, manifest_path=manifest_path,
                            preemptible=preemptible)
    with obs.span("campaign.run", "farm", apps=sorted(images),
                  selector=selector.stamp):
        results = runner.run(graph, strict=not preemptible)
    outcomes: Dict[str, FarmAppOutcome] = {}
    for app_name in images:
        assembled = results.get("%s/assemble" % app_name)
        if assembled is None:
            continue  # preempted/deferred before this app finished
        labels = ["%s/validate/%s" % (app_name, validation.label)
                  for validation in validations]
        outcomes[app_name] = FarmAppOutcome(
            result=assembled,
            validations={validation.label: results[name]
                         for validation, name in zip(validations, labels)
                         if name in results})
    return outcomes
