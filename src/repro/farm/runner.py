"""The campaign runner: execute a job graph over a worker pool.

Scheduling rules:

- a job is *ready* once all dependencies completed successfully;
- ready jobs whose memoization key is present in the artifact store are
  **cache hits**: the stored result is served without executing;
- other ready jobs fan out across a ``multiprocessing`` pool
  (``jobs=N``, default ``os.cpu_count()``); ``jobs=1`` runs everything
  in-process, which is also the reference semantics the pool must match;
- a failing job is retried with capped exponential backoff, then marked
  ``failed``; jobs downstream of a failure are marked ``blocked``;
- every terminal state appends one record to the run manifest.

Results are held in the parent; jobs with a key are written to the
store as they complete, so the next campaign with unchanged keys is a
warm run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Container, Dict, List, Optional

from repro.farm.jobs import Job, JobGraph, resolve_refs
from repro.farm.manifest import RunManifest
from repro.farm.store import ArtifactStore, StoreCorruption
from repro.observe import hooks


class CampaignError(Exception):
    """One or more jobs failed (strict mode)."""

    def __init__(self, failures: Dict[str, str]) -> None:
        self.failures = failures
        lines = ["%s: %s" % (name, error)
                 for name, error in sorted(failures.items())]
        super().__init__("campaign failed: " + "; ".join(lines))


def _call_job(fn, args, kwargs, resume=None):
    """Worker-side wrapper: returns (worker pid, wall seconds, result)."""
    if resume is not None:
        # Seed the pool worker's process-global preemption context so
        # the job body resumes from the shipped checkpoint.
        from repro.snapshot import preempt
        preempt.GLOBAL.take_resume()  # drop any stale slot
        preempt.set_resume(resume)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return os.getpid(), time.perf_counter() - start, result


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
class _Pending:
    """Book-keeping for one submitted-but-unfinished job."""

    job: Job
    async_result: Any
    attempts: int
    submitted: float


@dataclass
class RunReport:
    """What a campaign runner observed, beyond the results dict."""

    states: Dict[str, str] = field(default_factory=dict)
    cache: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for value in self.cache.values() if value == "hit")


class GraphRunner:
    """What every campaign runner shares (the local farm, the service).

    Subclasses execute ready jobs their own way; the readiness rule,
    blocked-propagation, ``expand`` callbacks and the manifest record
    are defined once here, so the runners' manifests cannot drift
    apart.
    """

    manifest: Optional[RunManifest] = None
    report: RunReport

    def _record(self, job: Job, state: str, cache: str, wall_s: float,
                worker: Any, attempts: int, error: str = "",
                icount: Optional[int] = None) -> None:
        """Note one job's terminal state: report, manifest, telemetry."""
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

    def _ready(self, graph: JobGraph, done: Dict[str, str],
               busy: Container[str]) -> List[Job]:
        """Jobs whose dependencies all succeeded, not yet done or *busy*;
        jobs downstream of a failure are marked ``blocked`` on the way."""
        ready: List[Job] = []
        for name in graph.order():
            if name in done or name in busy:
                continue
            job = graph.jobs[name]
            dep_states = [done.get(dep) for dep in job.deps]
            if any(state in ("failed", "blocked") for state in dep_states):
                self._record(job, "blocked", "none", 0.0, None, 0,
                             "upstream failure: %s" % ", ".join(
                                 dep for dep in job.deps
                                 if done.get(dep) in ("failed", "blocked")))
                done[name] = "blocked"
                continue
            if all(state == "ok" for state in dep_states):
                ready.append(job)
        return ready

    def _settle(self, graph: JobGraph, done: Dict[str, str],
                names: List[str], state: str, error: str) -> None:
        """End jobs that will not run in this campaign."""
        for name in names:
            self._record(graph.jobs[name], state, "none", 0.0, None, 0,
                         error)
            done[name] = state

    def _finish(self, job: Job, result: Any, graph: JobGraph,
                results: Dict[str, Any]) -> None:
        if job.expand is not None:
            job.expand(result, graph, results)


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
        return "snap/" + job_key

    # -- execution ---------------------------------------------------------

    def run(self, graph: JobGraph, strict: bool = True) -> Dict[str, Any]:
        """Run every job; returns ``{job name: result}``.

        With ``strict`` (default) raises :class:`CampaignError` after
        the graph drains if anything failed; non-strict returns the
        partial results.
        """
        self.report = RunReport()
        results: Dict[str, Any] = {}
        done: Dict[str, str] = {}          # name -> ok|failed|blocked
        inflight: Dict[str, _Pending] = {}
        retry_at: Dict[str, tuple] = {}    # name -> (when, attempts)
        pool = (multiprocessing.Pool(processes=self.jobs)
                if self.jobs > 1 else None)
        try:
            while True:
                progressed = self._schedule(graph, results, done,
                                            inflight, retry_at, pool)
                progressed |= self._collect(graph, results, done,
                                            inflight, retry_at, pool)
                remaining = [name for name in graph.order()
                             if name not in done]
                if not remaining and not inflight:
                    break
                if not progressed:
                    if inflight or retry_at:
                        time.sleep(0.003)
                    elif self._preempt_requested():
                        # drained: the rest of the campaign resumes from
                        # the store (results + checkpoints) next run
                        self._settle(graph, done, remaining, "deferred",
                                     "campaign preempted")
                        break
                    else:
                        # jobs remain but none can ever become ready
                        self._settle(graph, done, remaining, "blocked",
                                     "dependency never completed")
                        break
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()
        if strict and self.report.failures:
            raise CampaignError(dict(self.report.failures))
        return results

    def _preempt_requested(self) -> bool:
        if not self.preemptible:
            return False
        from repro.snapshot import preempt
        return preempt.requested()

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

    def _schedule(self, graph, results, done, inflight, retry_at,
                  pool) -> bool:
        if self._preempt_requested():
            return False  # draining: collect in-flight work only
        progressed = False
        now = time.time()
        # resubmit due retries
        for name in list(retry_at):
            when, attempts = retry_at[name]
            if when <= now:
                del retry_at[name]
                job = graph.jobs[name]
                progressed |= self._launch(job, results, done, inflight,
                                           pool, attempts, graph)
        busy = inflight.keys() | retry_at.keys()
        for job in self._ready(graph, done, busy):
            # cache lookup happens at schedule time, in the parent
            if job.key and self.store is not None and \
                    self.store.contains(job.key):
                try:
                    result = self.store.get(job.key)
                except StoreCorruption:
                    # a damaged entry must never poison a campaign:
                    # drop it and recompute
                    self.store.delete(job.key)
                else:
                    results[job.name] = result
                    done[job.name] = "ok"
                    self._record(job, "ok", "hit", 0.0, None, 0)
                    self._finish(job, result, graph, results)
                    progressed = True
                    continue
            progressed |= self._launch(job, results, done, inflight, pool,
                                       attempts=1, graph=graph)
        return progressed

    def _launch(self, job: Job, results, done, inflight, pool,
                attempts: int, graph) -> bool:
        args = resolve_refs(job.args, results)
        kwargs = resolve_refs(job.kwargs, results)
        resume = self._resume_snapshot(job)
        if pool is None or job.local:
            self._run_inline(job, args, kwargs, results, done, graph,
                             attempts, resume)
            return True
        async_result = pool.apply_async(_call_job,
                                        (job.fn, args, kwargs, resume))
        inflight[job.name] = _Pending(job=job, async_result=async_result,
                                      attempts=attempts,
                                      submitted=time.time())
        return True

    def _run_inline(self, job: Job, args, kwargs, results, done, graph,
                    attempts: int, resume=None) -> None:
        max_attempts = 1 + (job.retries if job.retries is not None
                            else self.retries)
        error = ""
        while attempts <= max_attempts:
            if resume is not None:
                from repro.snapshot import preempt
                preempt.GLOBAL.take_resume()
                preempt.set_resume(resume)
            start = time.perf_counter()
            try:
                result = job.fn(*args, **kwargs)
            except Exception as exc:
                if self.preemptible:
                    from repro.snapshot.preempt import Preempted
                    if isinstance(exc, Preempted):
                        self._save_preemption(job, exc.snapshot)
                        done[job.name] = "preempted"
                        self._record(job, "preempted",
                                     "miss" if job.key else "none",
                                     time.perf_counter() - start,
                                     os.getpid(), attempts, str(exc))
                        return
                error = "%s: %s" % (type(exc).__name__, exc)
                if attempts < max_attempts:
                    time.sleep(self._delay(attempts))
                attempts += 1
                continue
            wall = time.perf_counter() - start
            self._complete(job, result, wall, os.getpid(), attempts,
                           results, done, graph)
            return
        done[job.name] = "failed"
        self._record(job, "failed", "miss" if job.key else "none", 0.0,
                     os.getpid(), max_attempts, error)

    def _collect(self, graph, results, done, inflight, retry_at,
                 pool) -> bool:
        progressed = False
        for name in list(inflight):
            pending = inflight[name]
            if not pending.async_result.ready():
                continue
            del inflight[name]
            progressed = True
            job = pending.job
            try:
                worker, wall, result = pending.async_result.get()
            except Exception as exc:
                if self.preemptible:
                    from repro.snapshot.preempt import Preempted
                    if isinstance(exc, Preempted):
                        self._save_preemption(job, exc.snapshot)
                        done[name] = "preempted"
                        self._record(job, "preempted",
                                     "miss" if job.key else "none",
                                     0.0, None, pending.attempts, str(exc))
                        continue
                error = "%s: %s" % (type(exc).__name__, exc)
                max_attempts = 1 + (job.retries if job.retries is not None
                                    else self.retries)
                if pending.attempts < max_attempts:
                    retry_at[name] = (
                        time.time() + self._delay(pending.attempts),
                        pending.attempts + 1,
                    )
                else:
                    done[name] = "failed"
                    self._record(job, "failed",
                                 "miss" if job.key else "none",
                                 0.0, None, pending.attempts, error)
                continue
            self._complete(job, result, wall, worker, pending.attempts,
                           results, done, graph)
        return progressed

    def _delay(self, attempt: int) -> float:
        return min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)

    def _complete(self, job: Job, result, wall: float, worker: int,
                  attempts: int, results, done, graph) -> None:
        if job.key and self.store is not None:
            self.store.put(job.key, result, job.kind)
            if self.preemptible:
                # the job settled: its resume checkpoint is garbage now
                self.store.delete(self.snapshot_key(job.key))
        results[job.name] = result
        done[job.name] = "ok"
        self._record(job, "ok", "miss" if job.key else "none", wall,
                     worker, attempts, icount=_job_icount(result))
        self._finish(job, result, graph, results)
