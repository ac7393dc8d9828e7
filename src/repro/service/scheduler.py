"""The service's work queue: fair-share admission, leases, retries.

Scheduling model (all decisions are O(log n), all state in-memory):

- every queued job belongs to a **client**; each client keeps a
  priority queue (higher ``priority`` first, FIFO within a priority);
- across clients the scheduler runs **fair share by virtual time**: a
  lease charges the job's client one unit of vtime, and the next lease
  always goes to the backlogged client with the lowest vtime — so two
  clients flooding the queue drain in alternation regardless of who
  submitted first (a client's heap holds only its queued jobs: a job
  leaves it when leased and re-enters when re-queued);
- the queue is **bounded**: ``submit`` raises :class:`QueueFull` once
  ``max_queued`` jobs wait, which the server surfaces as a retryable
  429 — backpressure instead of unbounded memory;
- jobs are **memo-deduplicated in flight**: a second submit of the same
  memoization key while the first is queued or leased attaches to the
  existing job ("duplicate") instead of running the work twice — this
  is what makes two clients racing the same campaign bit-identical and
  single-execution;
- a lease carries a **deadline**; workers heartbeat to extend it, and
  :meth:`expire` re-queues jobs whose worker went silent (or fails them
  once attempts exceed ``1 + retries``) — a dead worker loses its lease,
  never the job;
- ``complete`` is **idempotent per request id**: replays of a delivered
  completion return the settled job; a completion racing a lost lease
  raises :class:`LeaseLost` (the job re-ran elsewhere — the
  content-addressed store makes the duplicate artifact write harmless).

The scheduler is transport-free and clock-injectable, so every invariant
above is unit-testable without sockets or sleeps.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

try:
    import asyncio
    _Event = asyncio.Event
except ImportError:  # pragma: no cover - asyncio is stdlib
    _Event = None


class QueueFull(Exception):
    """Admission refused: the bounded queue is at capacity (retryable)."""


class LeaseLost(Exception):
    """The lease was expired, reassigned, or never existed."""


class UnknownJob(KeyError):
    """No job with that id."""


@dataclass
class ServiceJob:
    """One unit of remote work, as the scheduler tracks it."""

    job_id: str
    client: str
    name: str
    #: opaque to the scheduler (base64 pickle of ``(fn, args, kwargs)``)
    payload: str
    memo_key: str = ""
    result_key: str = ""
    kind: str = ""
    stage: str = ""
    priority: int = 0
    retries: int = 2
    state: str = "queued"  # queued | leased | ok | failed
    attempts: int = 0
    error: str = ""
    worker: str = ""
    lease_id: str = ""
    lease_deadline: float = 0.0
    submitted_at: float = 0.0
    first_leased_at: float = 0.0
    wall_s: float = 0.0
    icount: Optional[int] = None
    #: store key of the checkpoint a preempted worker pushed; the next
    #: lease resumes from it (and gc treats it as a root while unsettled)
    snapshot_key: str = ""
    #: how many times the job was preempted and re-queued
    preemptions: int = 0
    #: every client that submitted this memo key while it was in flight
    clients: Set[str] = field(default_factory=set)
    #: request ids whose completion was accepted (idempotency record)
    completed_requests: Set[str] = field(default_factory=set)
    done: "_Event" = field(default_factory=_Event)

    @property
    def settled(self) -> bool:
        return self.state in ("ok", "failed")

    def describe(self) -> dict:
        """The wire-visible view (no payload: leases carry it once)."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "client": self.client,
            "state": self.state,
            "stage": self.stage,
            "memo_key": self.memo_key,
            "result_key": self.result_key,
            "kind": self.kind,
            "priority": self.priority,
            "attempts": self.attempts,
            "error": self.error,
            "worker": self.worker,
            "wall_s": self.wall_s,
            "icount": self.icount,
            "snapshot_key": self.snapshot_key,
            "preemptions": self.preemptions,
        }


class FairShareScheduler:
    """Bounded, fair-share, lease-based job queue (see module docs)."""

    def __init__(self, max_queued: int = 1024,
                 lease_timeout: float = 10.0,
                 retries: int = 2,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_queued = max_queued
        self.lease_timeout = lease_timeout
        self.retries = retries
        self.clock = clock
        self.jobs: Dict[str, ServiceJob] = {}
        #: client -> heap of (-priority, seq, job_id)
        self._queues: Dict[str, List[Tuple[int, int, str]]] = {}
        self._vtime: Dict[str, float] = {}
        self._by_memo: Dict[str, str] = {}  # in-flight memo key -> job id
        self._leases: Dict[str, str] = {}   # lease id -> job id
        self._seq = itertools.count()
        self._queued = 0

    # -- admission ---------------------------------------------------------

    def submit(self, client: str, name: str, payload: str,
               memo_key: str = "", result_key: str = "", kind: str = "",
               stage: str = "", priority: int = 0,
               retries: Optional[int] = None) -> Tuple[str, ServiceJob]:
        """Admit one job; returns ``(status, job)``.

        ``status`` is ``"queued"`` for a fresh admission or
        ``"duplicate"`` when an in-flight job with the same memo key
        absorbed this submit.  Raises :class:`QueueFull` at capacity
        (duplicates never count against capacity).
        """
        if memo_key and memo_key in self._by_memo:
            job = self.jobs[self._by_memo[memo_key]]
            if not job.settled:
                job.clients.add(client)
                return "duplicate", job
        if self._queued >= self.max_queued:
            raise QueueFull("queue at capacity (%d jobs)" % self.max_queued)
        job = ServiceJob(
            job_id="J%06d" % next(self._seq),
            client=client, name=name, payload=payload,
            memo_key=memo_key, result_key=result_key, kind=kind,
            stage=stage, priority=priority,
            retries=self.retries if retries is None else retries,
            submitted_at=self.clock(),
        )
        job.clients.add(client)
        self.jobs[job.job_id] = job
        if memo_key:
            self._by_memo[memo_key] = job.job_id
        self._enqueue(job)
        return "queued", job

    def _enqueue(self, job: ServiceJob) -> None:
        job.state = "queued"
        job.lease_id = ""
        heapq.heappush(self._queues.setdefault(job.client, []),
                       (-job.priority, next(self._seq), job.job_id))
        self._queued += 1
        # a newcomer starts at the active floor, not at zero: otherwise
        # a fresh client would monopolize leases until it "caught up"
        if job.client not in self._vtime:
            floor = min(self._vtime.values()) if self._vtime else 0.0
            self._vtime[job.client] = floor

    # -- leasing -----------------------------------------------------------

    def lease(self, worker: str) -> Optional[ServiceJob]:
        """Hand the fairest next job to *worker*, or None when idle."""
        backlogged = [client for client, heap in self._queues.items()
                      if heap]
        if not backlogged:
            return None
        client = min(backlogged, key=lambda name: (self._vtime[name], name))
        _neg_priority, _seq, job_id = heapq.heappop(self._queues[client])
        job = self.jobs[job_id]
        now = self.clock()
        job.state = "leased"
        job.attempts += 1
        job.worker = worker
        job.lease_id = "L%06d" % next(self._seq)
        job.lease_deadline = now + self.lease_timeout
        if not job.first_leased_at:
            job.first_leased_at = now
        self._leases[job.lease_id] = job.job_id
        self._queued -= 1
        self._vtime[client] += 1.0
        return job

    def heartbeat(self, lease_id: str) -> float:
        """Extend a live lease; returns the new deadline."""
        job = self._job_for_lease(lease_id)
        job.lease_deadline = self.clock() + self.lease_timeout
        return job.lease_deadline

    def _job_for_lease(self, lease_id: str) -> ServiceJob:
        job_id = self._leases.get(lease_id)
        if job_id is None:
            raise LeaseLost("unknown or expired lease %s" % lease_id)
        job = self.jobs[job_id]
        if job.state != "leased" or job.lease_id != lease_id:
            raise LeaseLost("lease %s is no longer current" % lease_id)
        return job

    # -- completion --------------------------------------------------------

    def complete(self, lease_id: str, request_id: str, ok: bool = True,
                 error: str = "", wall_s: float = 0.0,
                 icount: Optional[int] = None,
                 worker: str = "",
                 preempted: bool = False,
                 snapshot_key: str = "") -> ServiceJob:
        """Settle (or retry) the leased job; idempotent per request id.

        A *preempted* completion is neither success nor failure: the
        worker checkpointed the job (pushing *snapshot_key* to the
        store) and surrendered the lease.  The job is re-queued with
        the snapshot key attached — and the lease's attempt is handed
        back, so a job drained N times across worker restarts still
        has its full retry budget for real failures.
        """
        job_id = self._leases.get(lease_id)
        if job_id is not None:
            job = self.jobs[job_id]
            if request_id and request_id in job.completed_requests:
                return job  # replayed delivery
            if job.state == "leased" and job.lease_id == lease_id:
                if request_id:
                    job.completed_requests.add(request_id)
                if preempted:
                    job.attempts = max(0, job.attempts - 1)
                    job.preemptions += 1
                    if snapshot_key:
                        job.snapshot_key = snapshot_key
                    job.error = ""
                    del self._leases[lease_id]
                    self._enqueue(job)
                elif ok:
                    job.wall_s = wall_s
                    job.icount = icount
                    if worker:
                        job.worker = worker
                    self._settle(job, "ok")
                elif job.attempts < 1 + job.retries:
                    job.error = error
                    del self._leases[lease_id]
                    self._enqueue(job)
                else:
                    self._settle(job, "failed", error or "job failed")
                return job
        # no current lease: tolerate replays of an already-settled job
        for job in self.jobs.values():
            if request_id and request_id in job.completed_requests:
                return job
        raise LeaseLost("lease %s is no longer current" % lease_id)

    def _settle(self, job: ServiceJob, state: str, error: str = "") -> None:
        job.state = state
        job.error = "" if state == "ok" else (error or job.error)
        self._leases.pop(job.lease_id, None)
        job.lease_id = ""
        if job.memo_key and self._by_memo.get(job.memo_key) == job.job_id:
            del self._by_memo[job.memo_key]
        job.done.set()

    # -- lease expiry ------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> List[ServiceJob]:
        """Re-queue (or fail) jobs whose lease deadline passed."""
        now = self.clock() if now is None else now
        touched: List[ServiceJob] = []
        for lease_id in list(self._leases):
            job = self.jobs[self._leases[lease_id]]
            if job.state != "leased" or job.lease_deadline > now:
                continue
            del self._leases[lease_id]
            touched.append(job)
            if job.attempts < 1 + job.retries:
                job.error = "lease expired (worker %s)" % job.worker
                self._enqueue(job)
            else:
                self._settle(job, "failed",
                             "lease expired (worker %s), retries exhausted"
                             % job.worker)
        return touched

    # -- introspection -----------------------------------------------------

    def get(self, job_id: str) -> ServiceJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id)

    @property
    def queued(self) -> int:
        return self._queued

    def snapshot_roots(self) -> List[str]:
        """Snapshot keys the store must keep: unsettled preempted jobs.

        Once a job settles its snapshot is garbage (the real artifact
        exists, or the retry budget is gone); while it is queued or
        leased the snapshot is the job's progress and must survive gc.
        """
        return sorted({job.snapshot_key for job in self.jobs.values()
                       if job.snapshot_key and not job.settled})

    def stats(self) -> dict:
        states: Dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        clients = {}
        for client, heap in self._queues.items():
            clients[client] = {
                "queued": len(heap),
                "vtime": round(self._vtime.get(client, 0.0), 6),
            }
        return {
            "queued": self._queued,
            "leased": len(self._leases),
            "jobs": len(self.jobs),
            "states": states,
            "clients": clients,
            "preemptions": sum(job.preemptions
                               for job in self.jobs.values()),
            "snapshot_roots": self.snapshot_roots(),
        }
