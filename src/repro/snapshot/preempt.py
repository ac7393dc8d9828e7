"""Cooperative preemption: checkpoint-on-SIGTERM plumbing.

The farm/service worker cannot interrupt a job at an arbitrary Python
bytecode — but it doesn't need to.  Long-running job bodies (the BBV
profiler is the expensive one) poll :func:`requested` at quantum-aligned
points (slice boundaries) and, when a preemption has been requested,
capture a :class:`~repro.snapshot.state.MachineSnapshot` with their loop
progress in ``extra`` and raise :class:`Preempted`.  The worker catches
it, pushes the snapshot as a store artifact, and completes the lease as
*preempted* so the scheduler re-queues the job with the snapshot key
attached.

The resume side is the mirror image: before invoking a re-leased job's
function, the worker parks the fetched snapshot in the context; the job
body claims it (by kind tag) and restores instead of starting cold.

The context is process-global because the signal handler and the job
body live in the same process but different stack frames; it is safe
for the single-job-at-a-time worker loop this repo uses.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.snapshot.state import MachineSnapshot


class Preempted(Exception):
    """A job checkpointed itself in response to a preemption request.

    Carries the snapshot to persist; ``str(exc)`` is the reason.
    """

    def __init__(self, snapshot: "MachineSnapshot",
                 reason: str = "preempted") -> None:
        super().__init__(reason)
        self.snapshot = snapshot

    def __reduce__(self):
        # Default exception pickling keeps only ``args``; the snapshot
        # must cross a multiprocessing pool boundary intact.
        return (Preempted, (self.snapshot, str(self)))


class PreemptionContext:
    """One process's preemption request flag + resume snapshot slot."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._resume: Optional["MachineSnapshot"] = None

    # -- request side (signal handler / drain watchdog) -----------------

    def request(self) -> None:
        self._event.set()

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def reset(self) -> None:
        """Clear the flag and drop any unclaimed resume snapshot."""
        self._event.clear()
        with self._lock:
            self._resume = None

    # -- resume side (worker -> job body handoff) ------------------------

    def set_resume(self, snapshot: Optional["MachineSnapshot"]) -> None:
        with self._lock:
            self._resume = snapshot

    def take_resume(self, kind: str = "") -> Optional["MachineSnapshot"]:
        """Claim the parked resume snapshot.

        With *kind*, only a snapshot whose ``extra["kind"]`` matches is
        claimed — a mismatched snapshot is left parked so a stale
        artifact can't derail an unrelated job body.
        """
        with self._lock:
            snapshot = self._resume
            if snapshot is None:
                return None
            if kind and snapshot.extra.get("kind") != kind:
                return None
            self._resume = None
            return snapshot


#: The process-wide context used by workers and job bodies.
GLOBAL = PreemptionContext()


def request() -> None:
    GLOBAL.request()


def requested() -> bool:
    return GLOBAL.requested


def reset() -> None:
    GLOBAL.reset()


def set_resume(snapshot: Optional["MachineSnapshot"]) -> None:
    GLOBAL.set_resume(snapshot)


def take_resume(kind: str = "") -> Optional["MachineSnapshot"]:
    return GLOBAL.take_resume(kind)
