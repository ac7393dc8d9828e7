"""Drive a farm job graph through the checkpoint service.

:class:`ServiceCampaignRunner` is the networked sibling of
:class:`repro.farm.runner.FarmRunner`, and keeps its exact semantics:

- the **DAG stays in the client**: dependency tracking, ``Ref``
  resolution (including ``select`` lambdas, which are not picklable and
  never cross the wire), ``local`` jobs, and ``expand`` callbacks all
  run here — the server only ever sees flat, self-contained jobs;
- resolved arguments ship with the submit, results come back through
  the content-addressed store, so a job's bytes-in/bytes-out are
  identical to the multiprocessing path — which is what makes service
  campaigns **bit-identical** to ``farm run``;
- memoization is server-side (``status: "cached"``) against the shared
  store, plus in-flight dedup: two clients racing the same campaign
  share single executions and both fetch the same artifacts;
- every terminal state appends the same manifest record
  ``farm run`` writes, so downstream tooling cannot tell the paths
  apart.

Failures follow the server's retry policy (lease expiry re-queues, N
retries, then ``failed``).  The readiness rule, ``blocked``
propagation and the manifest writer are the local runner's own,
inherited from :class:`repro.farm.runner.GraphRunner`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.farm.jobs import Job, JobGraph, resolve_refs
from repro.farm.manifest import RunManifest
from repro.farm.runner import (
    CampaignError,
    GraphRunner,
    RunReport,
    _job_icount,
)
from repro.service.client import ServiceClient, ServiceError

#: How long one ``wait`` long-poll blocks server-side.
_WAIT_SLICE_S = 0.5


class ServiceCampaignRunner(GraphRunner):
    """Executes :class:`JobGraph`s against a checkpoint service."""

    def __init__(self, client: ServiceClient,
                 manifest_path: Optional[str] = None,
                 run_id: str = "", priority: int = 0,
                 retries: Optional[int] = None) -> None:
        self.client = client
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        self.run_id = run_id or ("run-%d-%d" % (os.getpid(),
                                                int(time.time() * 1000)))
        self.priority = priority
        self.retries = retries
        self.report = RunReport()

    def run(self, graph: JobGraph, strict: bool = True) -> Dict[str, Any]:
        """Run every job via the service; returns ``{name: result}``."""
        self.report = RunReport()
        results: Dict[str, Any] = {}
        done: Dict[str, str] = {}      # name -> ok|failed|blocked
        inflight: Dict[str, dict] = {}  # name -> {job_id, result_key}
        while True:
            progressed = self._schedule(graph, results, done, inflight)
            progressed |= self._collect(graph, results, done, inflight)
            remaining = [name for name in graph.order() if name not in done]
            if not remaining and not inflight:
                break
            if not progressed and not inflight:
                # jobs remain but none can ever become ready
                self._settle(graph, done, remaining, "blocked",
                             "dependency never completed")
                break
        if strict and self.report.failures:
            raise CampaignError(dict(self.report.failures))
        return results

    def _result_key(self, job: Job) -> str:
        # keyless jobs still need a store slot for the wire round trip;
        # scope it to this run so concurrent campaigns cannot collide
        return job.key or "svc/%s/%s" % (self.run_id, job.name)

    def _schedule(self, graph: JobGraph, results: Dict[str, Any],
                  done: Dict[str, str], inflight: Dict[str, dict]) -> bool:
        progressed = False
        for job in self._ready(graph, done, inflight):
            args = resolve_refs(job.args, results)
            kwargs = resolve_refs(job.kwargs, results)
            if job.local:
                self._run_local(job, args, kwargs, results, done, graph)
                progressed = True
                continue
            submit = dict(
                name=job.name, fn=job.fn, args=args, kwargs=kwargs,
                key=job.key, result_key=self._result_key(job),
                kind=job.kind, stage=job.stage, priority=self.priority,
                retries=job.retries if job.retries is not None
                else self.retries)
            response = self.client.submit(**submit)
            if response["status"] == "cached":
                if self._serve_cached(job, results, done, graph):
                    progressed = True
                    continue
                # corrupt cache entry: force a recompute
                response = self.client.submit(force=True, **submit)
            inflight[job.name] = {
                "job_id": response["job"]["job_id"],
                "result_key": self._result_key(job),
                "duplicate": response["status"] == "duplicate",
            }
            progressed = True
        return progressed

    def _serve_cached(self, job: Job, results: Dict[str, Any],
                      done: Dict[str, str], graph: JobGraph) -> bool:
        try:
            result = self.client.get_artifact(job.key)
        except ServiceError:
            return False  # damaged entry must never poison a campaign
        results[job.name] = result
        done[job.name] = "ok"
        self._record(job, "ok", "hit", 0.0, None, 0)
        self._finish(job, result, graph, results)
        return True

    def _run_local(self, job: Job, args: tuple, kwargs: dict,
                   results: Dict[str, Any], done: Dict[str, str],
                   graph: JobGraph) -> None:
        start = time.perf_counter()
        try:
            result = job.fn(*args, **kwargs)
        except Exception as exc:
            done[job.name] = "failed"
            self._record(job, "failed", "miss" if job.key else "none",
                         0.0, os.getpid(), 1,
                         "%s: %s" % (type(exc).__name__, exc))
            return
        wall = time.perf_counter() - start
        if job.key:
            self.client.put_artifact(job.key, result, job.kind)
        results[job.name] = result
        done[job.name] = "ok"
        self._record(job, "ok", "miss" if job.key else "none", wall,
                     os.getpid(), 1, icount=_job_icount(result))
        self._finish(job, result, graph, results)

    def _collect(self, graph: JobGraph, results: Dict[str, Any],
                 done: Dict[str, str], inflight: Dict[str, dict]) -> bool:
        if not inflight:
            return False
        states = self.client.wait(
            [entry["job_id"] for entry in inflight.values()],
            timeout_s=_WAIT_SLICE_S)
        progressed = False
        for name in list(inflight):
            entry = inflight[name]
            view = states.get(entry["job_id"])
            if view is None or view["state"] in ("queued", "leased"):
                continue
            del inflight[name]
            progressed = True
            job = graph.jobs[name]
            cache = "miss" if job.key else "none"
            if entry["duplicate"]:
                cache = "hit" if job.key else cache
            if view["state"] == "ok":
                result = self.client.get_artifact(entry["result_key"])
                results[name] = result
                done[name] = "ok"
                self._record(job, "ok", cache, view.get("wall_s", 0.0),
                             view.get("worker"), view.get("attempts", 1),
                             icount=view.get("icount"))
                self._finish(job, result, graph, results)
            else:
                done[name] = "failed"
                self._record(job, "failed", cache, view.get("wall_s", 0.0),
                             view.get("worker"), view.get("attempts", 1),
                             view.get("error") or view["state"])
        return progressed


def run_service_campaign(images: Dict[str, bytes], client: ServiceClient,
                         manifest_path: Optional[str] = None,
                         run_id: str = "", priority: int = 0,
                         slice_size: int = 20_000,
                         warmup: int = 80_000,
                         max_k: int = 50,
                         seed: int = 0,
                         max_alternates: int = 2,
                         marker: Any = None,
                         perf_exit: bool = True,
                         cluster_seed: int = 42,
                         validations: Sequence[Any] = ()) -> Dict[str, Any]:
    """Run the PinPoints pipeline for several apps through the service.

    The same graph, keys and results as
    :func:`repro.simpoint.pinpoints.run_pinpoints_campaign`, executed
    by remote workers against the shared sharded store instead of a
    local pool.  Returns ``{app: FarmAppOutcome}``.
    """
    from repro.pipeline import run_campaign
    from repro.simpoint.pinpoints import BBV_SIMPOINT

    runner = ServiceCampaignRunner(client, manifest_path=manifest_path,
                                   run_id=run_id, priority=priority)
    return run_campaign(
        BBV_SIMPOINT, images, runner=runner, validations=validations,
        slice_size=slice_size, warmup=warmup, max_k=max_k, seed=seed,
        max_alternates=max_alternates, marker=marker, perf_exit=perf_exit,
        cluster_seed=cluster_seed)
