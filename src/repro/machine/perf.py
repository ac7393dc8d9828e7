"""Simulated hardware performance-monitoring unit (PMU).

The counters themselves live on :class:`~repro.machine.machine.Thread`
(``icount``, ``cycles``, ``llc_misses``, ``branches``) so the interpreter
hot path pays nothing for them.  This module provides the perf-stat
facade: named events and their totals over a machine's threads.  The
overflow trap behind the paper's graceful-exit mechanism (paper §I-B,
§II-C1) is armed by the kernel's PMU system call on
``Thread.pmu_trap_at``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine


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


class PMU:
    """Performance-monitoring facade over a machine's threads."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine

    def totals(self) -> Dict[str, int]:
        """Counters summed over all threads (alive and exited)."""
        out = {event.value: 0 for event in PerfEvent}
        for thread in self.machine.threads.values():
            for event, field in _THREAD_FIELD.items():
                out[event.value] += getattr(thread, field)
        return out
