"""Drive a farm job graph through the checkpoint service.

:class:`ServiceCampaignRunner` is the networked executor under the
campaign loop of :class:`repro.farm.runner.GraphRunner`, which the
local :class:`repro.farm.runner.FarmRunner` shares:

- the **DAG stays in the client**: dependency tracking, ``Ref``
  resolution (including ``select`` lambdas, which are not picklable and
  never cross the wire), ``local`` jobs, ``expand`` callbacks and the
  manifest record are the shared loop's, so downstream tooling cannot
  tell the paths apart — the server only ever sees flat,
  self-contained jobs;
- resolved arguments ship with the submit, results come back through
  the content-addressed store, so a job's bytes-in/bytes-out are
  identical to the multiprocessing path — which is what makes service
  campaigns **bit-identical** to ``farm run``;
- memoization is server-side (``status: "cached"``) against the shared
  store, plus in-flight dedup: two clients racing the same campaign
  share single executions and both fetch the same artifacts.

The executor keeps only what is remote: ``submit`` (with its
``cached`` and ``duplicate`` answers) and the ``wait`` long-poll.
Remote failures follow the server's retry policy (lease expiry
re-queues, N retries, then ``failed``); ``local`` jobs run in this
process under the shared loop's retry rule, one attempt unless the
job's ``retries`` says otherwise.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from repro.farm.jobs import Job
from repro.farm.manifest import RunManifest
from repro.farm.runner import GraphRunner, RunReport, _Pending
from repro.service.client import ServiceClient, ServiceError

#: How long one ``wait`` long-poll blocks server-side.
_WAIT_SLICE_S = 0.5


class ServiceCampaignRunner(GraphRunner):
    """Executes :class:`JobGraph`s against a checkpoint service."""

    def __init__(self, client: ServiceClient,
                 manifest_path: Optional[str] = None,
                 run_id: str = "", priority: int = 0) -> None:
        self.client = client
        #: a ``local`` job run in this process commits over the wire
        self.store = client
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        self.run_id = run_id or ("run-%d-%d" % (os.getpid(),
                                                int(time.time() * 1000)))
        self.priority = priority
        self.report = RunReport()

    def _result_key(self, job: Job) -> str:
        # keyless jobs still need a store slot for the wire round trip;
        # scope it to this run so concurrent campaigns cannot collide
        return job.key or "svc/%s/%s" % (self.run_id, job.name)

    def _start(self, pending: _Pending) -> None:
        job = pending.job
        submit = dict(
            name=job.name, fn=job.fn, args=pending.args,
            kwargs=pending.kwargs, key=job.key,
            result_key=self._result_key(job), kind=job.kind,
            stage=job.stage, priority=self.priority, retries=job.retries)
        response = self.client.submit(**submit)
        if response["status"] == "cached":
            try:
                result = self.client.get_artifact(job.key)
            except ServiceError:
                # a damaged entry must never poison a campaign: recompute
                response = self.client.submit(force=True, **submit)
            else:
                self._settle(job, "ok", "hit", result)
                return
        self._inflight[job.name] = (response["job"]["job_id"],
                                    response["status"] == "duplicate")

    def _wait(self, timeout: Optional[float]) -> None:
        states = self.client.wait(
            [job_id for job_id, _ in self._inflight.values()],
            timeout_s=_WAIT_SLICE_S if timeout is None
            else min(timeout, _WAIT_SLICE_S))
        for name, (job_id, duplicate) in list(self._inflight.items()):
            view = states.get(job_id)
            if view is None or view["state"] in ("queued", "leased"):
                continue
            del self._inflight[name]
            job = self._graph.jobs[name]
            # a duplicate shared another client's execution of a key
            cache = "hit" if duplicate and job.key else ""
            ran = dict(wall_s=view.get("wall_s", 0.0),
                       worker=view.get("worker"),
                       attempts=view.get("attempts", 1))
            if view["state"] == "ok":
                result = self.client.get_artifact(self._result_key(job))
                self._settle(job, "ok", cache, result,
                             icount=view.get("icount"), **ran)
            else:
                self._settle(job, "failed", cache,
                             error=view.get("error") or view["state"], **ran)


def run_service_campaign(images: Dict[str, bytes], client: ServiceClient,
                         manifest_path: Optional[str] = None,
                         run_id: str = "", priority: int = 0,
                         **params: Any) -> Dict[str, Any]:
    """Run the PinPoints pipeline for several apps through the service.

    The same graph, keys and results as
    :func:`repro.simpoint.pinpoints.run_pinpoints_campaign`, executed
    by remote workers against the shared sharded store instead of a
    local pool.  *params* go to :func:`repro.pipeline.run_campaign`.
    Returns ``{app: FarmAppOutcome}``.
    """
    from repro.pipeline import run_campaign
    from repro.simpoint.pinpoints import BBV_SIMPOINT

    runner = ServiceCampaignRunner(client, manifest_path=manifest_path,
                                   run_id=run_id, priority=priority)
    return run_campaign(BBV_SIMPOINT, images, runner=runner, **params)
