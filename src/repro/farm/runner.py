"""The campaign runner: execute a job graph over a worker pool.

:class:`GraphRunner` holds the one DAG loop every campaign executor
shares; :class:`FarmRunner` is the local executor (the networked one
is :class:`repro.service.campaign.ServiceCampaignRunner`).  Every job
follows one lifecycle, start -> attempt -> complete -> (retry |
settle):

- a job is *ready* once all dependencies completed successfully;
- ready jobs whose memoization key is present in the artifact store are
  **cache hits**: the stored result is served without executing;
- other ready jobs fan out across a process pool (``jobs=N``, default
  ``os.cpu_count()``); ``jobs=1`` and ``local`` jobs run in-process,
  which is also the reference semantics the pool must match;
- an attempt run in-process completes at once, through the same
  handler as a pool future; a failed attempt is retried with capped
  exponential backoff, then marked ``failed``; jobs downstream of a
  failure are marked ``blocked``.  A worker that dies mid-job breaks
  the pool: every job it held fails under the same rule, and the
  retries go to a fresh pool;
- with nothing ready, the loop blocks in the executor's wait until a
  job completes or a retry comes due;
- every terminal state appends one record to the run manifest.

The process that runs a job commits its keyed result to the store
right after the job body, which alone is timed (:func:`_call_job`).
The result also travels back to the parent as an object, which
``expand`` callbacks, downstream ``Ref``s and the campaign result
need; the parent schedules, settles and writes the manifest.  Blocks
are content-addressed and written by atomic rename, and the record is
written last as the commit point, so concurrent commits need no
locking, and the next campaign with unchanged keys is a warm run.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.farm.jobs import Job, JobGraph, resolve_refs
from repro.farm.manifest import RunManifest
from repro.farm.store import SNAPSHOT_PREFIX, ArtifactStore, StoreCorruption
from repro.observe import hooks
from repro.snapshot import preempt
from repro.snapshot.preempt import Preempted


class CampaignError(Exception):
    """One or more jobs failed (strict mode)."""

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = failures
        lines = ["%s: %s" % (name, error)
                 for name, error in sorted(failures.items())]
        super().__init__("campaign failed: " + "; ".join(lines))


def _call_job(fn, args, kwargs, resume=None, store=None, key="", kind=""):
    """Run one job body in this process (a pool worker, a service
    worker or the parent) and commit its result to *store* (anything
    with ``put(key, obj, kind)``) under *key*, if both are given; a
    failed commit fails the job like its body would.  Returns (pid,
    wall seconds of the body alone, result)."""
    # Seed the process-global preemption context: the body resumes from
    # *resume*, and a slot no earlier body claimed is stale.
    preempt.set_resume(resume)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    if store is not None and key:
        store.put(key, result, kind)
    return os.getpid(), wall, result


def _job_icount(result: Any) -> Optional[int]:
    """Interpreter instructions executed to produce *result* (duck-typed).

    Recognizes the pipeline's artifact shapes: a profile carries
    ``total_icount``; a pinball's run ends at ``region.end`` global
    instructions; a log job's dict of pinballs, captured in one run,
    ran to the latest window end.  Returns ``None`` for results that required no
    interpretation (clustering, conversion, assembly).
    """
    if result is None:
        return None
    total = getattr(result, "total_icount", None)
    if isinstance(total, int) and total > 0:
        return total
    region = getattr(result, "region", None)
    if region is not None:
        end = getattr(region, "end", None)
        if isinstance(end, int) and end > 0:
            return end
    if isinstance(result, dict):
        icounts = [count for count in
                   (_job_icount(value) for value in result.values())
                   if count]
        if icounts:
            return max(icounts)
    return None


@dataclass
class RunReport:
    """What a campaign runner observed, beyond the results dict."""

    states: Dict[str, str] = field(default_factory=dict)
    cache: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for value in self.cache.values() if value == "hit")


@dataclass
class _Pending:
    """A job between its start and its settle (retries included)."""

    job: Job
    args: tuple
    kwargs: dict
    attempts: int = 1
    future: Optional[Future] = None


class GraphRunner:
    """The one campaign loop, shared by the local farm and the service.

    :meth:`run` owns every scheduling rule: readiness, ``Ref``
    resolution, the one retry rule (:meth:`_complete`), the settle step
    (results, manifest record, ``expand`` callback),
    ``blocked``/``deferred`` settling and the strict
    :class:`CampaignError`.  An executor only moves jobs:

    - ``_start(pending)`` serves a ready non-``local`` job from its
      cache or hands it to ``_attempt``;
    - ``_attempt(pending)`` runs one attempt: by default in this
      process, completed at once; an executor may put a non-``local``
      job in flight in ``self._inflight`` instead;
    - ``_wait(timeout)`` blocks until an in-flight job completes (or
      *timeout* seconds pass) and completes or settles it;
    - ``_executor()`` holds per-run resources.
    """

    manifest: Optional[RunManifest] = None
    report: RunReport
    #: where an attempt run in this process commits its keyed result
    #: (anything with ``put(key, obj, kind)``)
    store: Any = None
    #: default retry budget of a job (None: one attempt), with capped
    #: exponential backoff between attempts
    retries: Optional[int] = None
    backoff = 0.05
    max_backoff = 2.0
    #: cooperate with :mod:`repro.snapshot.preempt` (see FarmRunner)
    preemptible = False

    def run(self, graph: JobGraph, strict: bool = True) -> Dict[str, Any]:
        """Run every job; returns ``{job name: result}``.

        With ``strict`` (default) raises :class:`CampaignError` after
        the graph drains if anything failed; non-strict returns the
        partial results.
        """
        self.report = RunReport()
        self._graph, self._results = graph, {}
        self._done: Dict[str, str] = {}  # name -> terminal state
        self._inflight: Dict[str, Any] = {}
        self._retry_at: Dict[str, tuple] = {}  # name -> (due, _Pending)
        with self._executor():
            while True:
                if self._preempt_requested():  # draining: wait only
                    self._retry_at.clear()  # deferred with the rest
                else:
                    now = time.monotonic()
                    for name, (due, pending) in list(self._retry_at.items()):
                        if due <= now:
                            del self._retry_at[name]
                            self._attempt(pending)
                    ready = self._ready()
                    for job in ready:
                        pending = _Pending(
                            job, resolve_refs(job.args, self._results),
                            resolve_refs(job.kwargs, self._results))
                        if job.local:
                            self._attempt(pending)
                        else:
                            self._start(pending)
                    if ready:
                        continue  # in-process completions ready more
                if self._inflight:
                    self._wait(self._until_retry())
                elif self._retry_at:
                    time.sleep(self._until_retry())  # nothing in flight
                else:
                    break
        # nothing in flight and nothing ready: drained after a
        # preemption (the rest resumes from the store next run), or
        # waiting on a dependency that never ran
        state, error = (("deferred", "campaign preempted")
                        if self._preempt_requested() else
                        ("blocked", "dependency never completed"))
        for name in graph.order():
            if name not in self._done:
                self._settle(graph.jobs[name], state, "none", error=error)
        if strict and self.report.failures:
            raise CampaignError(dict(self.report.failures))
        return self._results

    def _executor(self):
        """Context holding one run's executor resources."""
        return contextlib.nullcontext()

    def _ready(self) -> List[Job]:
        """Jobs whose dependencies all succeeded, not yet done, in
        flight or waiting to retry; jobs downstream of a failure are
        settled ``blocked`` on the way."""
        done = self._done
        ready: List[Job] = []
        for name in self._graph.order():
            if name in done or name in self._inflight or \
                    name in self._retry_at:
                continue
            job = self._graph.jobs[name]
            failed = [dep for dep in job.deps
                      if done.get(dep) in ("failed", "blocked")]
            if failed:
                self._settle(job, "blocked", "none", error=(
                    "upstream failure: %s" % ", ".join(failed)))
            elif all(done.get(dep) == "ok" for dep in job.deps):
                ready.append(job)
        return ready

    def _settle(self, job: Job, state: str, cache: str = "",
                result: Any = None, wall_s: float = 0.0, worker: Any = None,
                attempts: int = 0, error: str = "",
                icount: Optional[int] = None) -> None:
        """End *job* in *state*: results, report, manifest, telemetry,
        then the ``expand`` callback of an ``ok`` job.  *cache*
        defaults to ``miss`` for keyed jobs and ``none`` otherwise."""
        cache = cache or ("miss" if job.key else "none")
        self._done[job.name] = state
        if state == "ok":
            self._results[job.name] = result
        self.report.states[job.name] = state
        self.report.cache[job.name] = cache
        if state != "ok":
            self.report.failures[job.name] = error or state
        wall = round(wall_s, 6)
        if self.manifest is not None:
            self.manifest.append({
                "job": job.name,
                "stage": job.stage,
                "selector": job.selector,
                "key": job.key,
                "state": state,
                "cache": cache,
                "wall_s": wall,
                "worker": worker,
                "attempts": attempts,
                "error": error,
                "icount": icount,
            })
        obs = hooks.OBS
        if obs.enabled:
            obs.count("farm.jobs")
            obs.count("farm.cache.%s" % cache)
            if attempts > 1:
                obs.count("farm.retries", attempts - 1)
            if state != "ok":
                obs.count("farm.%s" % state)
            if wall:
                # Executed jobs ran in a worker process the tracer
                # cannot see; emit the span parent-side from the
                # measured wall time, so trace and manifest agree
                # exactly.
                obs.observe("farm.job_wall_s", wall)
                obs.complete(job.name, wall,
                             cat="farm.%s" % (job.stage or "job"),
                             state=state, cache=cache, worker=worker,
                             attempts=attempts)
        if state == "ok" and job.expand is not None:
            job.expand(result, self._graph, self._results)

    def _until_retry(self) -> Optional[float]:
        """Seconds until the next retry comes due (None: no retry)."""
        if not self._retry_at:
            return None
        due = min(due for due, _ in self._retry_at.values())
        return max(0.0, due - time.monotonic())

    def _task(self, job: Job, args: tuple, kwargs: dict,
              resume: Any = None) -> tuple:
        """The :func:`_call_job` arguments of one attempt of *job*: the
        process that runs it commits the result to ``self.store``."""
        return job.fn, args, kwargs, resume, self.store, job.key, job.kind

    def _attempt(self, pending: _Pending) -> None:
        """Run one attempt of *pending* in this process and complete it."""
        job = pending.job
        outcome: Future = Future()
        try:
            outcome.set_result(_call_job(*self._task(
                job, pending.args, pending.kwargs,
                self._resume_snapshot(job))))
        except Exception as exc:
            outcome.set_exception(exc)
        self._complete(pending, outcome)

    def _complete(self, pending: _Pending, outcome: Future) -> None:
        """The one retry rule: settle *pending* from its attempt's
        *outcome*, or queue its next attempt after a capped exponential
        backoff."""
        job, attempts = pending.job, pending.attempts
        try:
            worker, wall, result = outcome.result()
        except Exception as exc:
            retries = job.retries if job.retries is not None else self.retries
            if self.preemptible and isinstance(exc, Preempted):
                # park the checkpoint; the next campaign resumes from it
                if job.key and self.store is not None:
                    self.store.put(self.snapshot_key(job.key),
                                   exc.snapshot, "snapshot")
                self._settle(job, "preempted", attempts=attempts,
                             error=str(exc))
            elif attempts <= (retries or 0):
                delay = min(self.backoff * 2 ** (attempts - 1),
                            self.max_backoff)
                self._retry_at[job.name] = (time.monotonic() + delay,
                                            pending)
                pending.attempts += 1
            else:
                self._settle(job, "failed", attempts=attempts,
                             error="%s: %s" % (type(exc).__name__, exc))
            return
        # the attempt committed the result; only the resume checkpoint
        # is left to clean up
        self._drop_resume_snapshot(job)
        self._settle(job, "ok", result=result, wall_s=wall, worker=worker,
                     attempts=attempts, icount=_job_icount(result))

    def _preempt_requested(self) -> bool:
        return self.preemptible and preempt.requested()

    @staticmethod
    def snapshot_key(job_key: str) -> str:
        return SNAPSHOT_PREFIX + job_key

    def _resume_snapshot(self, job: Job):
        """The parked checkpoint for *job*, if a prior run left one."""
        if not (self.preemptible and job.key and self.store is not None):
            return None
        snap_key = self.snapshot_key(job.key)
        try:
            if self.store.contains(snap_key):
                return self.store.get(snap_key)
        except StoreCorruption:
            self.store.delete(snap_key)
        return None

    def _drop_resume_snapshot(self, job: Job) -> None:
        """The job settled: its resume checkpoint is garbage now."""
        if self.preemptible and job.key and self.store is not None:
            self.store.delete(self.snapshot_key(job.key))


class FarmRunner(GraphRunner):
    """Executes :class:`JobGraph`s with memoization, retries, fan-out."""

    retries = 2

    def __init__(self, store: Optional[ArtifactStore] = None,
                 jobs: Optional[int] = None,
                 manifest_path: Optional[str] = None,
                 preemptible: bool = False) -> None:
        self.store = store
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        #: cooperate with :mod:`repro.snapshot.preempt`: stop scheduling
        #: once a preemption is requested, persist checkpoints raised by
        #: job bodies under ``snap/<job key>``, and seed resumes from
        #: such artifacts on the next campaign of the same graph
        self.preemptible = preemptible
        self.report = RunReport()

    @contextlib.contextmanager
    def _executor(self) -> Iterator[None]:
        self._pool = self._new_pool()
        try:
            yield
        except BaseException:
            self._close_pool(kill=True)
            raise
        finally:
            # drained: idle workers exit on the shutdown sentinels
            self._close_pool()

    def _new_pool(self) -> Optional[ProcessPoolExecutor]:
        return ProcessPoolExecutor(self.jobs) if self.jobs > 1 else None

    def _close_pool(self, kill: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # SIGKILL, not SIGTERM: workers may have inherited a
            # preemption handler (``farm run --preemptible``) that
            # swallows SIGTERM
            for process in list((pool._processes or {}).values()):
                process.kill()
        pool.shutdown(wait=True, cancel_futures=kill)

    def _start(self, pending: _Pending) -> None:
        # the cache lookup happens here, in the parent
        job = pending.job
        if job.key and self.store is not None and \
                self.store.contains(job.key):
            try:
                result = self.store.get(job.key)
            except StoreCorruption:
                # a damaged entry must never poison a campaign: drop it
                # and recompute
                self.store.delete(job.key)
            else:
                self._settle(job, "ok", "hit", result)
                return
        self._attempt(pending)

    def _attempt(self, pending: _Pending) -> None:
        if self._pool is None or pending.job.local:
            super()._attempt(pending)
            return
        job = pending.job
        task = self._task(job, pending.args, pending.kwargs,
                          self._resume_snapshot(job))
        try:
            pending.future = self._pool.submit(_call_job, *task)
        except BrokenProcessPool:
            # a worker died: the broken pool failed every job it held
            # (each completes under the retry rule); later attempts get
            # a new one
            self._close_pool(kill=True)
            self._pool = self._new_pool()
            pending.future = self._pool.submit(_call_job, *task)
        self._inflight[job.name] = pending

    def _wait(self, timeout: Optional[float]) -> None:
        futures = [pending.future for pending in self._inflight.values()]
        done, _ = wait(futures, timeout, FIRST_COMPLETED)
        for name, pending in list(self._inflight.items()):
            if pending.future in done:
                del self._inflight[name]
                self._complete(pending, pending.future)
