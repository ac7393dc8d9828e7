"""Simulated hardware performance-monitoring unit (PMU).

The counters themselves live on :class:`~repro.machine.machine.Thread`
(``icount``, ``cycles``, ``llc_misses``, ``branches``) so the interpreter
hot path pays nothing for them.  This module provides the user-facing
facade: named events, perf-stat-style reads, and the overflow-arming
primitive behind the paper's graceful-exit mechanism (one counter per
thread counting retired instructions, with a callback at the recorded
region instruction count — paper §I-B, §II-C1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine, Thread


class PerfEvent(enum.Enum):
    """Countable hardware events."""

    INSTRUCTIONS_RETIRED = "instructions"
    CYCLES = "cycles"
    LLC_MISSES = "llc_misses"
    BRANCHES = "branches"


_THREAD_FIELD = {
    PerfEvent.INSTRUCTIONS_RETIRED: "icount",
    PerfEvent.CYCLES: "cycles",
    PerfEvent.LLC_MISSES: "llc_misses",
    PerfEvent.BRANCHES: "branches",
}


@dataclass
class PerfCounter:
    """A snapshot-style counter: reads the delta since it was started."""

    thread: "Thread"
    event: PerfEvent
    base: int = 0

    def start(self) -> None:
        """Reset the counter's reference point to now."""
        self.base = getattr(self.thread, _THREAD_FIELD[self.event])

    def read(self) -> int:
        """Event count since :meth:`start` (or thread start)."""
        return getattr(self.thread, _THREAD_FIELD[self.event]) - self.base


class PMU:
    """Performance-monitoring facade over a machine's threads."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    def counter(self, tid: int, event: PerfEvent) -> PerfCounter:
        """Create a delta counter for (tid, event), started at zero."""
        thread = self._thread(tid)
        counter = PerfCounter(thread=thread, event=event)
        return counter

    def _thread(self, tid: int) -> "Thread":
        thread = self.machine.threads.get(tid)
        if thread is None:
            raise KeyError("no such thread: %d" % tid)
        return thread

    def read(self, tid: int, event: PerfEvent) -> int:
        """Absolute value of a thread's counter."""
        return getattr(self._thread(tid), _THREAD_FIELD[event])

    def arm(self, tid: int, threshold: int,
            handler_address: Optional[int] = None) -> None:
        """Arm the retired-instruction overflow trap for a thread.

        At ``current icount + threshold`` the CPU redirects the thread to
        *handler_address* (a signal-handler analog); with no handler the
        thread is terminated at the threshold.  This is the substrate
        behind ``libperfle``'s graceful exit.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        thread = self._thread(tid)
        thread.pmu_trap_at = thread.icount + threshold
        thread.pmu_handler = handler_address

    def snapshot(self, tid: int) -> Dict[str, int]:
        """All counters of one thread, keyed by event name."""
        thread = self._thread(tid)
        return {
            event.value: getattr(thread, field)
            for event, field in _THREAD_FIELD.items()
        }

    def totals(self) -> Dict[str, int]:
        """Counters summed over all threads (alive and exited)."""
        out = {event.value: 0 for event in PerfEvent}
        for thread in self.machine.threads.values():
            for event, field in _THREAD_FIELD.items():
                out[event.value] += getattr(thread, field)
        return out
