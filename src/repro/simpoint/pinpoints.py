"""PinPoints: the BBV-SimPoint selector of the region pipeline (paper §IV-A).

PinPoints automates "profiling an x86 application, finding phases, and
creating a checkpoint called a pinball for each representative region".
:data:`BBV_SIMPOINT` plugs basic-block-vector profiling and SimPoint
clustering into the shared pipeline of :mod:`repro.pipeline`, which
captures every selected region, converts each pinball to an ELFie and
validates the selection.

:func:`repro.pipeline.run_campaign` is the one entry point; it owns the
pipeline parameters and their defaults, and :data:`BBV_SIMPOINT` owns
``slice_size`` and ``warmup``.  The wrappers here only bind the
selector and a runner, and forward every other keyword:

- :func:`run_pinpoints` runs one app in this process without a store;
- :func:`run_pinpoints_campaign` / :func:`run_pinpoints_farm` run apps
  through the farm: dependency-ordered jobs fanned across a worker pool
  and memoized in a content-addressed artifact store, so a re-run with
  unchanged inputs is a cache hit.

Both are the same job graph on different runners, so they produce
identical results.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.farm.store import ArtifactStore
from repro.pipeline import (
    FarmAppOutcome,
    FarmValidation,
    PipelineResult,
    Selector,
    _capturable,  # noqa: F401 -- re-exported
    run_campaign,
)
from repro.simpoint.bbv import BBVProfile, collect_bbv
from repro.simpoint.simpoint import SimPointResult, select_simpoints

#: Region-selector identity/version for this pipeline.  Farm memo keys
#: lead with it (and manifests record it), so BBV-SimPoint artifacts
#: and LoopPoint artifacts for the same workload never collide in the
#: store.  Bump the version when the selection algorithm changes.
REGION_SELECTOR = "bbv-simpoint/v1"


def _job_profile(image: bytes, slice_size: int, seed: int) -> BBVProfile:
    # Always preemptible: the poll is one Event check per slice, and a
    # preemption is only ever requested by a draining worker's SIGTERM
    # handler (or a --preemptible campaign runner).
    return collect_bbv(image, slice_size=slice_size, seed=seed,
                       preemptible=True)


BBV_SIMPOINT = Selector(
    stamp=REGION_SELECTOR,
    label_prefix="pinpoints.",
    profile=_job_profile,
    select=select_simpoints,
    regions=SimPointResult.regions,
    profile_params={"slice_size": 20_000},
    region_params={"warmup": 80_000},
    infix=".r",
    marker_tag=0xE1F,
)


def run_pinpoints(image: bytes, app_name: str,
                  **params: Any) -> PipelineResult:
    """Run the full PinPoints pipeline on *image* in this process.

    *params* go to :func:`repro.pipeline.run_campaign`.  With
    ``capture`` (the default) a fat pinball is logged per region
    (primaries and up to ``max_alternates`` alternates) and converted to
    an ELFie with a ROI marker and graceful-exit counters.
    """
    return run_campaign(BBV_SIMPOINT, {app_name: image}, jobs=1,
                        **params)[app_name].result


# validate memo keys hold this module and qualname: do not move or rename
def _validate_elfies_job(result: PipelineResult, image: bytes,
                         **kwargs) -> Any:
    # imported lazily: validation.py imports the pipeline
    from repro.simpoint.validation import validate_with_elfies
    return validate_with_elfies(result, **kwargs)


def elfie_validation(label: str, seed: int = 0, trials: int = 3,
                     use_alternates: bool = True) -> FarmValidation:
    """The standard ELFie-based validation pass as a farm job spec."""
    return FarmValidation(label, _validate_elfies_job,
                          {"seed": seed, "trials": trials,
                           "use_alternates": use_alternates})


def _verify_fidelity_job(result: PipelineResult, image: bytes,
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


def run_pinpoints_campaign(images: Dict[str, bytes],
                           store: Optional[ArtifactStore],
                           **params: Any) -> Dict[str, FarmAppOutcome]:
    """Run the PinPoints pipeline for several apps through the farm.

    *params* go to :func:`repro.pipeline.run_campaign`; produces exactly
    what :func:`run_pinpoints` + the validation functions produce for
    each app, plus the run manifest for observability.
    """
    return run_campaign(BBV_SIMPOINT, images, store, **params)


def run_pinpoints_farm(image: bytes, app_name: str,
                       store: ArtifactStore,
                       **kwargs: Any) -> FarmAppOutcome:
    """Single-app convenience wrapper over the campaign runner."""
    return run_pinpoints_campaign({app_name: image}, store,
                                  **kwargs)[app_name]
