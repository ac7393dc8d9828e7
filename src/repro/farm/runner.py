"""The campaign runner: execute a job graph over a worker pool.

:class:`GraphRunner` holds the one DAG loop every campaign executor
shares; :class:`FarmRunner` is the local executor (the networked one
is :class:`repro.service.campaign.ServiceCampaignRunner`).  Rules:

- a job is *ready* once all dependencies completed successfully;
- ready jobs whose memoization key is present in the artifact store are
  **cache hits**: the stored result is served without executing;
- other ready jobs fan out across a process pool (``jobs=N``, default
  ``os.cpu_count()``); ``jobs=1`` runs everything in-process, which is
  also the reference semantics the pool must match;
- a failing job is retried with capped exponential backoff, then marked
  ``failed``; jobs downstream of a failure are marked ``blocked``.  A
  worker that dies mid-job breaks the pool: every job it held fails
  under the same rule, and the retries go to a fresh pool;
- every terminal state appends one record to the run manifest.

The process that runs a job commits its keyed result to the store
(:func:`commit_result`): a pool worker right after the job body, the
parent only for jobs it runs inline.  The result also travels back to
the parent as an object, which ``expand`` callbacks, downstream
``Ref``s and the campaign result need; the parent schedules, settles
and writes the manifest.  Blocks are content-addressed and written by
atomic rename, and the record is written last as the commit point, so
concurrent commits need no locking, and the next campaign with
unchanged keys is a warm run.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Container, Dict, Iterator, List, Optional

from repro.farm.jobs import Job, JobGraph, resolve_refs
from repro.farm.manifest import RunManifest
from repro.farm.store import SNAPSHOT_PREFIX, ArtifactStore, StoreCorruption
from repro.observe import hooks


class CampaignError(Exception):
    """One or more jobs failed (strict mode)."""

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = failures
        lines = ["%s: %s" % (name, error)
                 for name, error in sorted(failures.items())]
        super().__init__("campaign failed: " + "; ".join(lines))


def commit_result(store: Optional[ArtifactStore], key: str, kind: str,
                  result: Any) -> None:
    """Memoize a job's *result* under its *key* (no store or no key:
    nothing to do).  A raised error fails the job like its body would."""
    if store is not None and key:
        store.put(key, result, kind)


def _call_job(fn, args, kwargs, resume=None, store=None, key="", kind=""):
    """Run one job body in this process (a pool worker or the parent)
    and :func:`commit_result` its result; returns (pid, wall seconds of
    the body alone, result)."""
    if resume is not None:
        # Seed the process-global preemption context so the job body
        # resumes from the shipped checkpoint.
        from repro.snapshot import preempt
        preempt.GLOBAL.take_resume()  # drop any stale slot
        preempt.set_resume(resume)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    commit_result(store, key, kind, result)
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
    """A farm job on its way through the pool (retries included)."""

    job: Job
    args: tuple
    kwargs: dict
    attempts: int = 1
    future: Optional[Future] = None


class GraphRunner:
    """The one campaign loop, shared by the local farm and the service.

    :meth:`run` owns every scheduling rule: readiness, ``Ref``
    resolution, ``local`` jobs run inline under the retry rule, the
    settle step (results, manifest record, ``expand`` callback),
    ``blocked``/``deferred`` settling and the strict
    :class:`CampaignError`.  An executor only moves non-local jobs:

    - ``_start(job, args, kwargs)`` serves a ready job from its cache
      or puts it in flight in ``self._inflight``;
    - ``_poll()`` settles finished jobs; True if anything progressed;
    - ``_store_result(job, result)`` memoizes a keyed job run inline
      (a raised error fails the attempt);
    - ``_busy()`` names the jobs not to schedule again (default: the
      in-flight ones), ``_executor()`` holds per-run resources.
    """

    manifest: Optional[RunManifest] = None
    report: RunReport
    #: default retry budget of a job run inline (None: one attempt),
    #: with capped exponential backoff between attempts
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
        with self._executor():
            while True:
                progressed = False
                if not self._preempt_requested():  # draining: poll only
                    for job in self._ready():
                        args = resolve_refs(job.args, self._results)
                        kwargs = resolve_refs(job.kwargs, self._results)
                        if job.local:
                            self._run_inline(job, args, kwargs)
                        else:
                            self._start(job, args, kwargs)
                        progressed = True
                progressed |= self._poll()
                busy = self._busy()
                remaining = [name for name in graph.order()
                             if name not in self._done]
                if not remaining and not busy:
                    break
                if progressed:
                    continue
                if busy:
                    time.sleep(0.003)
                    continue
                # nothing in flight and nothing ready: drained after a
                # preemption (the rest resumes from the store next
                # run), or waiting on a dependency that never ran
                state, error = (("deferred", "campaign preempted")
                                if self._preempt_requested() else
                                ("blocked", "dependency never completed"))
                for name in remaining:
                    self._settle(graph.jobs[name], state, "none",
                                 error=error)
                break
        if strict and self.report.failures:
            raise CampaignError(dict(self.report.failures))
        return self._results

    def _executor(self):
        """Context holding one run's executor resources."""
        return contextlib.nullcontext()

    def _busy(self) -> Container[str]:
        return self._inflight

    def _ready(self) -> List[Job]:
        """Jobs whose dependencies all succeeded, not yet done or busy;
        jobs downstream of a failure are settled ``blocked`` on the
        way."""
        done, busy = self._done, self._busy()
        ready: List[Job] = []
        for name in self._graph.order():
            if name in done or name in busy:
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

    def _run_inline(self, job: Job, args: tuple, kwargs: dict,
                    resume: Any = None) -> None:
        """Run *job* in this process under the retry rule, settle it."""
        attempts = 1
        while True:
            start = time.perf_counter()
            try:
                worker, wall, result = _call_job(job.fn, args, kwargs,
                                                 resume)
                if job.key:
                    self._store_result(job, result)
            except Exception as exc:
                if self._preempted(job, exc, time.perf_counter() - start,
                                   os.getpid(), attempts):
                    return
                if attempts >= self._attempts(job):
                    self._settle(job, "failed", worker=os.getpid(),
                                 attempts=attempts, error="%s: %s" % (
                                     type(exc).__name__, exc))
                    return
                time.sleep(self._delay(attempts))
                attempts += 1
                continue
            self._settle(job, "ok", result=result, wall_s=wall,
                         worker=worker, attempts=attempts,
                         icount=_job_icount(result))
            return

    def _attempts(self, job: Job) -> int:
        retries = job.retries if job.retries is not None else self.retries
        return 1 + (retries or 0)

    def _delay(self, attempt: int) -> float:
        return min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)

    def _preempt_requested(self) -> bool:
        if not self.preemptible:
            return False
        from repro.snapshot import preempt
        return preempt.requested()

    def _preempted(self, job: Job, exc: Exception, wall_s: float,
                   worker: Any, attempts: int) -> bool:
        """Park the checkpoint of a preempted job body; False if *exc*
        is an ordinary failure."""
        if not self.preemptible:
            return False
        from repro.snapshot.preempt import Preempted
        if not isinstance(exc, Preempted):
            return False
        self._save_preemption(job, exc.snapshot)
        self._settle(job, "preempted", wall_s=wall_s, worker=worker,
                     attempts=attempts, error=str(exc))
        return True


class FarmRunner(GraphRunner):
    """Executes :class:`JobGraph`s with memoization, retries, fan-out."""

    def __init__(self, store: Optional[ArtifactStore] = None,
                 jobs: Optional[int] = None,
                 retries: int = 2,
                 backoff: float = 0.05,
                 max_backoff: float = 2.0,
                 manifest_path: Optional[str] = None,
                 preemptible: bool = False) -> None:
        self.store = store
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        #: cooperate with :mod:`repro.snapshot.preempt`: stop scheduling
        #: once a preemption is requested, persist checkpoints raised by
        #: job bodies under ``snap/<job key>``, and seed resumes from
        #: such artifacts on the next campaign of the same graph
        self.preemptible = preemptible
        self.report = RunReport()

    @staticmethod
    def snapshot_key(job_key: str) -> str:
        return SNAPSHOT_PREFIX + job_key

    @contextlib.contextmanager
    def _executor(self) -> Iterator[None]:
        self._retry_at: Dict[str, tuple] = {}  # name -> (when, _Pending)
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

    def _busy(self) -> Container[str]:
        return self._inflight.keys() | self._retry_at.keys()

    def _start(self, job: Job, args: tuple, kwargs: dict) -> None:
        # the cache lookup happens here, in the parent
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
        self._launch(_Pending(job, args, kwargs))

    def _task(self, job: Job, args: tuple, kwargs: dict,
              resume: Any = None) -> tuple:
        """The :func:`_call_job` arguments the pool ships for one
        attempt of *job*: the worker commits the result to this
        runner's store itself."""
        return job.fn, args, kwargs, resume, self.store, job.key, job.kind

    def _launch(self, pending: _Pending) -> None:
        job = pending.job
        resume = self._resume_snapshot(job)
        if self._pool is None:
            self._run_inline(job, pending.args, pending.kwargs, resume)
            return
        task = self._task(job, pending.args, pending.kwargs, resume)
        try:
            pending.future = self._pool.submit(_call_job, *task)
        except BrokenProcessPool:
            # a worker died: the broken pool failed every job it held
            # (settled or retried by _poll); later attempts get a new one
            self._close_pool(kill=True)
            self._pool = self._new_pool()
            pending.future = self._pool.submit(_call_job, *task)
        self._inflight[job.name] = pending

    def _poll(self) -> bool:
        progressed = False
        if self._preempt_requested():
            self._retry_at.clear()  # deferred with the rest of the graph
        now = time.time()
        for name, (when, pending) in list(self._retry_at.items()):
            if when <= now:
                del self._retry_at[name]
                self._launch(pending)
                progressed = True
        for name, pending in list(self._inflight.items()):
            if not pending.future.done():
                continue
            del self._inflight[name]
            progressed = True
            job = pending.job
            try:
                worker, wall, result = pending.future.result()
            except Exception as exc:
                if self._preempted(job, exc, 0.0, None, pending.attempts):
                    continue
                if pending.attempts < self._attempts(job):
                    self._retry_at[name] = (
                        time.time() + self._delay(pending.attempts),
                        pending)
                    pending.attempts += 1
                else:
                    self._settle(job, "failed", attempts=pending.attempts,
                                 error="%s: %s" % (type(exc).__name__, exc))
                continue
            # the worker committed the result; only the resume
            # checkpoint is the parent's to clean up
            self._drop_resume_snapshot(job)
            self._settle(job, "ok", result=result, wall_s=wall,
                         worker=worker, attempts=pending.attempts,
                         icount=_job_icount(result))
        return progressed

    def _store_result(self, job: Job, result: Any) -> None:
        commit_result(self.store, job.key, job.kind, result)
        self._drop_resume_snapshot(job)

    def _drop_resume_snapshot(self, job: Job) -> None:
        """The job settled: its resume checkpoint is garbage now."""
        if self.preemptible and job.key and self.store is not None:
            self.store.delete(self.snapshot_key(job.key))

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

    def _save_preemption(self, job: Job, snapshot) -> None:
        if job.key and self.store is not None:
            self.store.put(self.snapshot_key(job.key), snapshot, "snapshot")
