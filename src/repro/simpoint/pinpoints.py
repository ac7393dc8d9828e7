"""The PinPoints driver: profile, cluster, capture, convert (paper §IV-A).

PinPoints automates "profiling an x86 application, finding phases, and
creating a checkpoint called a pinball for each representative region".
This module runs that pipeline on the simulated platform and optionally
converts every pinball to an ELFie.

Two driver paths produce identical results:

- :func:`run_pinpoints` — the direct path: one process, one app,
  everything recomputed from scratch;
- :func:`run_pinpoints_campaign` / :func:`run_pinpoints_farm` — the
  farm-backed path: the pipeline is decomposed into dependency-ordered
  jobs (profile → cluster → log regions → pinball2elf → validate),
  fanned across a worker pool, and memoized through a content-addressed
  artifact store so a re-run with unchanged inputs is a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.markers import MarkerSpec
from repro.core.pinball2elf import ElfieArtifact, Pinball2Elf, Pinball2ElfOptions
from repro.farm.codec import stable_digest
from repro.farm.jobs import Job, JobGraph, Ref
from repro.farm.runner import FarmRunner
from repro.farm.store import ArtifactStore
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.logger import log_regions
from repro.pinplay.pinball import Pinball
from repro.pinplay.regions import RegionSpec
from repro.simpoint.bbv import BBVProfile, collect_bbv
from repro.simpoint.simpoint import SimPointResult, select_simpoints

#: Region-selector identity/version for this pipeline.  Farm memo keys
#: lead with it (and manifests record it), so BBV-SimPoint artifacts
#: and LoopPoint artifacts for the same workload never collide in the
#: store.  Bump the version when the selection algorithm changes.
REGION_SELECTOR = "bbv-simpoint/v1"


@dataclass
class PinPointsResult:
    """Everything the PinPoints pipeline produced for one program."""

    app_name: str
    profile: BBVProfile
    simpoints: SimPointResult
    #: Primary + alternate regions (rank encoded in the region name).
    regions: List[RegionSpec]
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
            (r for r in self.regions
             if r.name.startswith(base + ".alt")),
            key=lambda r: r.name,
        )


def run_pinpoints(image: bytes, app_name: str,
                  slice_size: int = 20_000,
                  warmup: int = 80_000,
                  max_k: int = 50,
                  seed: int = 0,
                  fs: Optional[FileSystem] = None,
                  max_alternates: int = 2,
                  capture: bool = True,
                  make_elfies: bool = True,
                  marker: Optional[MarkerSpec] = None,
                  perf_exit: bool = True,
                  cluster_seed: int = 42) -> PinPointsResult:
    """Run the full PinPoints pipeline on *image*.

    With ``capture`` a fat pinball is logged per region (primaries and
    up to *max_alternates* alternates); with ``make_elfies`` each
    pinball is converted to an ELFie with a ROI marker and graceful-exit
    counters.
    """
    obs = hooks.OBS
    with obs.span("pinpoints.profile", "pinpoints", app=app_name):
        profile = collect_bbv(image, slice_size=slice_size, seed=seed, fs=fs)
    with obs.span("pinpoints.cluster", "pinpoints", app=app_name):
        simpoints = select_simpoints(profile, max_k=max_k, seed=cluster_seed)
    regions = simpoints.regions(warmup=warmup,
                                name_prefix="%s.r" % app_name,
                                max_alternates=max_alternates)
    result = PinPointsResult(
        app_name=app_name,
        profile=profile,
        simpoints=simpoints,
        regions=regions,
    )
    if not capture:
        return result
    marker = marker or MarkerSpec("sniper", 0xE1F)
    with obs.span("pinpoints.capture", "pinpoints", app=app_name):
        pinballs = log_regions(
            image, _capturable(regions, profile.total_icount),
            seed=seed, fs=fs)
        for name, pinball in pinballs.items():
            pinball.program_icount = profile.total_icount
            result.pinballs[name] = pinball
            if make_elfies:
                with obs.span("pinpoints.convert", "pinpoints",
                              region=name):
                    artifact = Pinball2Elf(
                        pinball,
                        Pinball2ElfOptions(perf_exit=perf_exit,
                                           marker=marker),
                    ).convert()
                result.elfies[name] = artifact
    return result


def _capturable(regions: Sequence[RegionSpec],
                total_icount: int) -> List[RegionSpec]:
    """The regions whose window ends within the profiled run.

    :func:`log_regions` captures them all in one run of the program,
    overlapping windows included (a big warmup around adjacent slices
    overlaps its neighbours).  Shared by the direct and farm-backed
    drivers of both selectors, so every path logs the exact same
    windows.
    """
    return [region for region in regions if region.end <= total_icount]


# ---------------------------------------------------------------------------
# Farm-backed driver: the pipeline as a memoized, parallel job graph.
# ---------------------------------------------------------------------------

#: A post-pipeline measurement pass: ``fn(result, image, **params)``
#: must be a picklable module-level callable returning any picklable
#: value (typically a ``ValidationResult``).
@dataclass(frozen=True)
class FarmValidation:
    label: str
    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)


def _validate_elfies_job(result: "PinPointsResult", image: bytes,
                         **kwargs) -> Any:
    # imported lazily: validation.py imports this module
    from repro.simpoint.validation import validate_with_elfies
    return validate_with_elfies(result, **kwargs)


def elfie_validation(label: str, seed: int = 0, trials: int = 3,
                     use_alternates: bool = True) -> FarmValidation:
    """The standard ELFie-based validation pass as a farm job spec."""
    return FarmValidation(label, _validate_elfies_job,
                          {"seed": seed, "trials": trials,
                           "use_alternates": use_alternates})


def _verify_fidelity_job(result: "PinPointsResult", image: bytes,
                         **kwargs: Any) -> Dict[str, Any]:
    from repro.verify import verify_pinball

    names = sorted(result.pinballs)
    max_regions = kwargs.get("max_regions")
    skipped = 0
    if max_regions is not None and len(names) > max_regions:
        skipped = len(names) - max_regions
        names = names[:max_regions]
    reports = {
        name: verify_pinball(image, result.pinballs[name],
                             seed=kwargs.get("seed", 0),
                             epochs=kwargs.get("epochs", 8),
                             bisect=kwargs.get("bisect", True)).to_json()
        for name in names
    }
    return {
        "ok": all(report["ok"] for report in reports.values()),
        "checked": len(reports),
        "skipped": skipped,
        "regions": reports,
    }


def fidelity_validation(label: str, seed: int = 0, epochs: int = 8,
                        bisect: bool = True,
                        max_regions: Optional[int] = None) -> FarmValidation:
    """Differential replay-fidelity check as a farm validation pass.

    Runs :func:`repro.verify.verify_pinball` (native vs replay in
    digest-checkpointed epochs) over every captured region; the job
    result is memoized in the store like any other validation, so a
    re-run of an unchanged campaign is free.
    """
    params: Dict[str, Any] = {"seed": seed, "epochs": epochs,
                              "bisect": bisect}
    if max_regions is not None:
        params["max_regions"] = max_regions
    return FarmValidation(label, _verify_fidelity_job, params)


@dataclass
class FarmAppOutcome:
    """What the farm campaign produced for one app."""

    result: "PinPointsResult"
    validations: Dict[str, Any] = field(default_factory=dict)


def _region_spec_tuple(region: RegionSpec) -> List[Any]:
    return [region.start, region.length, region.warmup, region.name,
            region.weight]


def _job_profile(image: bytes, slice_size: int, seed: int) -> BBVProfile:
    # Always preemptible: the poll is one Event check per slice, and a
    # preemption is only ever requested by a draining worker's SIGTERM
    # handler (or a --preemptible campaign runner).
    return collect_bbv(image, slice_size=slice_size, seed=seed,
                       preemptible=True)


def _job_select(profile: BBVProfile, max_k: int,
                cluster_seed: int) -> SimPointResult:
    return select_simpoints(profile, max_k=max_k, seed=cluster_seed)


def _job_log(image: bytes, regions: Sequence[RegionSpec], seed: int,
             program_icount: int) -> Dict[str, Pinball]:
    pinballs = log_regions(image, regions, seed=seed)
    for pinball in pinballs.values():
        pinball.program_icount = program_icount
    return pinballs


def _job_convert(pinball: Optional[Pinball], perf_exit: bool,
                 marker_type: str, marker_tag: int) -> Optional[ElfieArtifact]:
    if pinball is None:
        # the logger skipped this region (program ended early); the
        # direct path simply has no ELFie for it either
        return None
    options = Pinball2ElfOptions(
        perf_exit=perf_exit, marker=MarkerSpec(marker_type, marker_tag))
    return Pinball2Elf(pinball, options).convert()


def _job_assemble(app_name: str, profile: BBVProfile,
                  simpoints: SimPointResult, regions: List[RegionSpec],
                  pinballs: Dict[str, Pinball],
                  elfies: Dict[str, Optional[ElfieArtifact]]) -> PinPointsResult:
    result = PinPointsResult(app_name=app_name, profile=profile,
                             simpoints=simpoints, regions=regions,
                             pinballs=dict(pinballs))
    result.elfies = {name: artifact for name, artifact in elfies.items()
                     if artifact is not None}
    return result


def _job_validate(fn: Callable[..., Any], result: PinPointsResult,
                  image: bytes, params: Dict[str, Any]) -> Any:
    return fn(result, image, **params)


def add_pinpoints_jobs(graph: JobGraph, image: bytes, app_name: str,
                       slice_size: int = 20_000,
                       warmup: int = 80_000,
                       max_k: int = 50,
                       seed: int = 0,
                       max_alternates: int = 2,
                       marker: Optional[MarkerSpec] = None,
                       perf_exit: bool = True,
                       cluster_seed: int = 42,
                       validations: Sequence[FarmValidation] = ()) -> str:
    """Add one app's PinPoints pipeline to a campaign graph.

    Jobs are keyed by a deterministic digest of (workload, region,
    logger options, converter options), so unchanged sub-pipelines are
    served from the store on re-runs.  The log/convert/validate tail of
    the graph depends on the clustering outcome, so it is added by an
    ``expand`` callback once the selection job completes.

    Returns the name of the app's assemble job (whose result is the
    :class:`PinPointsResult`); validation jobs are named
    ``<app>/validate/<label>``.
    """
    marker = marker or MarkerSpec("sniper", 0xE1F)
    workload_key = stable_digest({"image": image, "app": app_name,
                                  "selector": REGION_SELECTOR})
    profile_name = "%s/profile" % app_name
    select_name = "%s/select" % app_name
    graph.add(Job(
        name=profile_name,
        fn=_job_profile,
        args=(image, slice_size, seed),
        key=stable_digest([REGION_SELECTOR, "pinpoints.profile",
                           workload_key, slice_size, seed]),
        stage="profile",
        selector=REGION_SELECTOR,
    ))

    pipeline_spec = {
        "selector": REGION_SELECTOR,
        "workload": workload_key,
        "slice_size": slice_size, "warmup": warmup, "max_k": max_k,
        "seed": seed, "cluster_seed": cluster_seed,
        "max_alternates": max_alternates,
        "marker": [marker.marker_type, marker.tag],
        "perf_exit": perf_exit,
        "log": {"fat": True},
    }

    def expand_selection(simpoints: SimPointResult, graph: JobGraph,
                         results: Dict[str, Any]) -> None:
        profile = results[profile_name]
        regions = simpoints.regions(warmup=warmup,
                                    name_prefix="%s.r" % app_name,
                                    max_alternates=max_alternates)
        capturable = _capturable(regions, profile.total_icount)
        log_name = "%s/log" % app_name
        graph.add(Job(
            name=log_name,
            fn=_job_log,
            args=(image, capturable, seed, profile.total_icount),
            key=stable_digest([REGION_SELECTOR, "pinpoints.log",
                               workload_key, seed, {"fat": True},
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
                key=stable_digest([REGION_SELECTOR, "pinpoints.elfie",
                                   workload_key,
                                   _region_spec_tuple(region), seed,
                                   {"fat": True},
                                   {"perf_exit": perf_exit,
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
                  list(regions), Ref(log_name), convert_refs),
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
                key=stable_digest([REGION_SELECTOR, "pinpoints.validate",
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
        key=stable_digest([REGION_SELECTOR, "pinpoints.select",
                           workload_key, slice_size, seed, max_k,
                           cluster_seed]),
        stage="cluster",
        expand=expand_selection,
        selector=REGION_SELECTOR,
    ))
    return "%s/assemble" % app_name


def run_pinpoints_campaign(images: Dict[str, bytes],
                           store: ArtifactStore,
                           jobs: Optional[int] = None,
                           manifest_path: Optional[str] = None,
                           runner: Optional[FarmRunner] = None,
                           slice_size: int = 20_000,
                           warmup: int = 80_000,
                           max_k: int = 50,
                           seed: int = 0,
                           max_alternates: int = 2,
                           marker: Optional[MarkerSpec] = None,
                           perf_exit: bool = True,
                           cluster_seed: int = 42,
                           validations: Sequence[FarmValidation] = (),
                           preemptible: bool = False,
                           ) -> Dict[str, FarmAppOutcome]:
    """Run the PinPoints pipeline for several apps through the farm.

    Independent per-app jobs fan out across the runner's worker pool;
    every completed job is memoized in *store*, so re-running the same
    campaign is a warm, logger/converter-free pass.  Produces exactly
    what :func:`run_pinpoints` + the validation functions produce for
    each app, plus the run manifest for observability.

    With *preemptible*, a requested preemption (SIGTERM under
    ``farm run --preemptible``) checkpoints the in-flight profile job
    into the store, defers the rest of the graph, and returns the apps
    that did finish; re-running the identical campaign resumes from
    the memoized results plus the checkpoint.
    """
    obs = hooks.OBS
    with obs.span("campaign.build", "farm", apps=sorted(images)):
        graph = JobGraph()
        for app_name, image in images.items():
            add_pinpoints_jobs(graph, image, app_name,
                               slice_size=slice_size, warmup=warmup,
                               max_k=max_k, seed=seed,
                               max_alternates=max_alternates, marker=marker,
                               perf_exit=perf_exit, cluster_seed=cluster_seed,
                               validations=validations)
    if runner is None:
        runner = FarmRunner(store, jobs=jobs, manifest_path=manifest_path,
                            preemptible=preemptible)
    with obs.span("campaign.run", "farm", apps=sorted(images),
                  workers=runner.jobs):
        results = runner.run(graph, strict=not preemptible)
    outcomes: Dict[str, FarmAppOutcome] = {}
    for app_name in images:
        assembled = results.get("%s/assemble" % app_name)
        if assembled is None:
            continue  # preempted/deferred before this app finished
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


def run_pinpoints_farm(image: bytes, app_name: str,
                       store: ArtifactStore,
                       **kwargs: Any) -> FarmAppOutcome:
    """Single-app convenience wrapper over the campaign runner."""
    return run_pinpoints_campaign({app_name: image}, store,
                                  **kwargs)[app_name]
