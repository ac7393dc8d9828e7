"""The checkpoint farm: artifact store + parallel campaign runner.

The paper's economics depend on checkpoint reuse: pinballs and ELFies
are expensive to create (whole-program logging runs) but cheap to run,
so real deployments — e.g. the SPEC CPU2017 PinPoints release this
subsystem is modelled after — generate them once and share them.  This
package provides that substrate for the reproduction:

- :mod:`repro.farm.codec` — content-addressed encoding: pinball pages
  and ELFie image chunks deduplicated by SHA-256, stable digests for
  memoization keys,
- :mod:`repro.farm.store` — the on-disk block pool + artifact index
  with zlib compression, integrity verification on every read,
  ``gc`` and ``stats``,
- :mod:`repro.farm.jobs` — dependency-ordered job graphs with
  result references and dynamic expansion,
- :mod:`repro.farm.runner` — the executor: process-pool fan-out whose
  workers commit their own results, store-backed memoization (a re-run
  with unchanged keys is a cache hit), capped-backoff retries,
- :mod:`repro.farm.manifest` — JSON-lines run manifests (one record
  per job: key, state, cache hit/miss, wall time, worker, error).

The region-selection campaigns built on top (PinPoints and LoopPoint)
live in :func:`repro.pipeline.run_campaign`; the ``farm run`` /
``farm stats`` / ``farm gc`` CLI subcommands expose them from the shell.
"""

from repro.farm.codec import sha256_hex, stable_digest
from repro.farm.jobs import Job, JobGraph, Ref
from repro.farm.manifest import (
    RunManifest,
    executed_jobs,
    read_manifest,
    summarize_manifest,
)
from repro.farm.runner import CampaignError, FarmRunner, RunReport
from repro.farm.store import (
    ArtifactStore,
    GCStats,
    StoreCorruption,
    StoreStats,
    open_store,
)

__all__ = [
    "sha256_hex",
    "stable_digest",
    "Job",
    "JobGraph",
    "Ref",
    "RunManifest",
    "read_manifest",
    "summarize_manifest",
    "executed_jobs",
    "FarmRunner",
    "RunReport",
    "CampaignError",
    "ArtifactStore",
    "StoreStats",
    "GCStats",
    "StoreCorruption",
    "open_store",
]
