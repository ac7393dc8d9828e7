"""The service worker: lease, execute, upload, complete — forever.

A worker is a plain process (no asyncio) that long-polls ``lease``,
unpickles the job payload, runs it through the farm's body runner
(:func:`repro.farm.runner._call_job`, which seeds the resume
checkpoint, times the body alone and uploads the result through
``put-artifact``), and reports ``complete``.  While the job runs, a
background thread heartbeats the lease on a **second** connection so a
long-running checkpoint replay cannot time out merely for being slow —
only a dead or wedged worker loses its lease.

Failure model: if the worker dies mid-job the heartbeats stop, the
server's reaper expires the lease, and the job re-queues for another
worker.  If the worker survives but ``complete`` races a reaped lease,
the 409 is logged and dropped — the re-run elsewhere is authoritative,
and the content-addressed store makes the duplicate artifact harmless.

Preemption (graceful drain): on SIGTERM the worker stops taking new
leases and asks the running job to checkpoint itself through
:mod:`repro.snapshot.preempt`.  A cooperative job raises ``Preempted``
with a machine snapshot; the worker pushes it to the store and
completes the lease as *preempted*, so the scheduler re-queues the job
with the snapshot key attached and the next worker resumes instead of
restarting.  A job that ignores the request is given
``drain_timeout_s`` to finish; past that a watchdog **abandons the
lease explicitly** (a failed completion, so the retry is immediate
rather than waiting out lease expiry) and exits the process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Optional

from repro.farm.runner import _call_job, _job_icount
from repro.farm.store import SNAPSHOT_PREFIX
from repro.observe import hooks
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    decode_payload,
)
from repro.snapshot import preempt, snapshot_digest
from repro.snapshot.preempt import Preempted


def snapshot_key_for(snapshot) -> str:
    """Store key under which a preemption checkpoint is pushed."""
    return SNAPSHOT_PREFIX + snapshot_digest(snapshot)


class _Heartbeat:
    """Keeps one lease alive from a daemon thread until stopped."""

    def __init__(self, client: ServiceClient, lease_id: str,
                 interval_s: float) -> None:
        self._client = client
        self._lease_id = lease_id
        self._interval = max(0.05, interval_s)
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.heartbeat(self._lease_id)
            except ServiceError:
                self.lost = True  # lease reaped: stop burning the wire
                return
            except ServiceUnavailable:
                pass  # keep trying; the lease may still be alive

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(5.0)


class ServiceWorker:
    """Pulls and executes jobs until stopped or the queue stays idle."""

    def __init__(self, host: str, port: int, name: str = "",
                 poll_s: float = 1.0, idle_exit_s: float = 0.0,
                 drain_timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.name = name or ("worker-%d" % os.getpid())
        self.client = ServiceClient(host, port, client_id=self.name)
        #: dedicated connection for heartbeats (the main socket is busy
        #: with put-artifact/complete while a job runs)
        self.pulse = ServiceClient(host, port,
                                   client_id=self.name + "/hb")
        self.poll_s = poll_s
        #: exit after this long with no work (0 = run forever)
        self.idle_exit_s = idle_exit_s
        #: grace period for the in-flight job to finish or checkpoint
        #: after SIGTERM (0 = wait forever)
        self.drain_timeout_s = drain_timeout_s
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_preempted = 0
        self._stop = threading.Event()
        self._current_lease = ""

    def stop(self) -> None:
        self._stop.set()

    # -- graceful drain ----------------------------------------------------

    def install_signal_handlers(self) -> None:
        """Route SIGTERM to :meth:`handle_sigterm` (main thread only)."""
        signal.signal(signal.SIGTERM, self.handle_sigterm)

    def handle_sigterm(self, signum=None, frame=None) -> None:
        """Drain: no new leases, checkpoint request, bounded grace.

        Safe to call from a signal handler — it only sets events and
        starts the watchdog thread.
        """
        self.stop()
        preempt.request()
        if self.drain_timeout_s > 0:
            threading.Thread(target=self._drain_watchdog,
                             daemon=True).start()

    def _drain_watchdog(self) -> None:
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline:
            if not self._current_lease:
                return  # drained cleanly; run() will return
            time.sleep(0.05)
        lease_id = self._current_lease
        if lease_id:
            # The job neither finished nor checkpointed in time: give
            # the lease back explicitly so the scheduler retries now
            # instead of waiting out the lease timeout.  Fresh
            # connection — the worker's own sockets are mid-call.
            try:
                with ServiceClient(self.host, self.port,
                                   client_id=self.name + "/drain",
                                   retries=1) as emergency:
                    emergency.complete(
                        lease_id, ok=False,
                        error="worker %s drain timeout" % self.name,
                        worker=self.name)
            except Exception:
                pass  # lease expiry remains the backstop
        os._exit(1)

    def run(self) -> int:
        """The worker loop; returns the number of jobs executed."""
        # a fresh loop starts with a clean process-global preemption
        # context (a prior in-process worker may have drained)
        preempt.reset()
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            try:
                grant = self.client.lease(self.name, wait_s=self.poll_s)
            except ServiceUnavailable:
                if self.idle_exit_s:
                    return self.jobs_done
                time.sleep(self.poll_s)
                continue
            if grant is None:
                now = time.monotonic()
                idle_since = idle_since or now
                if self.idle_exit_s and now - idle_since > self.idle_exit_s:
                    return self.jobs_done
                continue
            idle_since = None
            self._execute(grant)
        return self.jobs_done

    def _resume(self, grant: dict):
        """A re-leased job's checkpoint (None: start cold)."""
        key = str(grant.get("snapshot_key", "") or "")
        if not key:
            return None
        try:
            snapshot = self.client.get_artifact(key)
        except Exception:
            return None  # missing/corrupt checkpoint: start cold
        obs = hooks.OBS
        if obs.enabled:
            obs.count("service.worker.resumes")
        return snapshot

    def _execute(self, grant: dict) -> None:
        lease_id = grant["lease_id"]
        heartbeat_s = float(grant.get("heartbeat_s", 1.0))
        obs = hooks.OBS
        self._current_lease = lease_id
        try:
            with _Heartbeat(self.pulse, lease_id, heartbeat_s) as pulse:
                ok, error, wall, icount, snapshot = True, "", 0.0, None, None
                try:
                    fn, args, kwargs = decode_payload(grant["payload"])
                    # the shared body runner seeds the resume slot,
                    # times the body alone and uploads the result
                    _, wall, result = _call_job(
                        fn, args, kwargs, self._resume(grant), self.client,
                        grant.get("result_key") or grant.get("memo_key"),
                        grant.get("kind", ""))
                    icount = _job_icount(result)
                except Preempted as exc:
                    snapshot = exc.snapshot
                except Exception as exc:
                    ok = False
                    error = "%s: %s" % (type(exc).__name__, exc)
                    if obs.enabled:
                        obs.count("service.worker.errors")
            if pulse.lost:
                # the lease was reaped under us: the job re-ran
                # elsewhere, so our completion (and artifact) must not
                # be reported
                if obs.enabled:
                    obs.count("service.worker.lost_leases")
                return
            try:
                if snapshot is not None:
                    snap_key = snapshot_key_for(snapshot)
                    self.client.put_artifact(snap_key, snapshot, "snapshot")
                    self.client.complete(lease_id, preempted=True,
                                         snapshot_key=snap_key,
                                         worker=self.name)
                else:
                    self.client.complete(lease_id, ok=ok, error=error,
                                         wall_s=wall, icount=icount,
                                         worker=self.name)
            except ServiceError as exc:
                if exc.code != 409:  # 409 = lease reaped mid-completion
                    raise
                if obs.enabled:
                    obs.count("service.worker.lost_leases")
                return
            if snapshot is not None:
                self.jobs_preempted += 1
                if obs.enabled:
                    obs.count("service.worker.preemptions")
            elif ok:
                self.jobs_done += 1
            else:
                self.jobs_failed += 1
            if obs.enabled:
                obs.count("service.worker.jobs")
                obs.observe("service.worker.wall_s", wall)
        finally:
            self._current_lease = ""


def worker_main(host: str, port: int, name: str = "", poll_s: float = 1.0,
                idle_exit_s: float = 0.0,
                drain_timeout_s: float = 30.0) -> int:
    """Process entry point (used by ``repro service worker`` and tests)."""
    worker = ServiceWorker(host, port, name=name, poll_s=poll_s,
                           idle_exit_s=idle_exit_s,
                           drain_timeout_s=drain_timeout_s)
    try:
        worker.install_signal_handlers()
    except ValueError:
        pass  # not the main thread (embedded in tests): no SIGTERM hook
    try:
        return worker.run()
    finally:
        worker.client.close()
        worker.pulse.close()
