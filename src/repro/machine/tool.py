"""Pin-style dynamic-instrumentation interface.

A :class:`Tool` attached to a :class:`~repro.machine.machine.Machine`
receives callbacks as the program executes — the analog of writing a
Pintool.  The PinPlay logger, the BBV profiler used by SimPoint, and the
Sniper front-end are all implemented as tools.

Attaching any tool moves the machine onto its instrumented execution
path, which is measurably slower than the bare path; that cost is the
reproduction's analog of Pin's dynamic-instrumentation overhead
(Table I's ~15x/~40x rows are measured, not asserted).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.instructions import Instruction
    from repro.machine.machine import Machine, Thread


class Tool:
    """Base class for instrumentation tools.

    Subclasses override only the hooks they need.  All hooks default to
    no-ops; the machine checks ``wants_*`` class attributes to skip
    invoking unused hook categories on the hot path.

    Only ``wants_instructions`` pins the machine to per-instruction
    interpretation.  Marker tools (``wants_markers``) run on every
    dispatch tier: superblocks end at MARKER, so compiled and chained
    code return to the dispatch header right after one retires, with
    exact icount and cycles, and the hook fires there.  A stop requested
    from ``on_marker`` lands immediately after the marker.
    """

    #: Set false in subclasses that do not need per-instruction callbacks.
    wants_instructions: bool = True
    #: Set true to receive memory-operand callbacks.
    wants_memory: bool = False
    #: Set true to receive basic-block callbacks.
    wants_blocks: bool = False
    #: Set true to receive MARKER-retired callbacks.
    wants_markers: bool = False

    def on_attach(self, machine: "Machine") -> None:
        """Called when the tool is attached to a machine."""

    def on_thread_start(self, machine: "Machine", thread: "Thread") -> None:
        """A thread became runnable (includes the initial thread)."""

    def on_thread_exit(self, machine: "Machine", thread: "Thread") -> None:
        """A thread exited."""

    def on_instruction(self, machine: "Machine", thread: "Thread",
                       pc: int, insn: "Instruction") -> None:
        """Called before each instruction executes."""

    def on_basic_block(self, machine: "Machine", thread: "Thread",
                       pc: int) -> None:
        """Called at each basic-block entry (after any taken branch and
        at thread start)."""

    def on_marker(self, machine: "Machine", thread: "Thread") -> None:
        """Called right after *thread* retires a MARKER instruction.

        ``thread.icount`` and ``thread.cycles`` already include the
        marker, so ``thread.icount - 1`` is the count before it.
        """

    def on_memory_read(self, machine: "Machine", thread: "Thread",
                       address: int, size: int) -> None:
        """Called before a data-memory read."""

    def on_memory_write(self, machine: "Machine", thread: "Thread",
                        address: int, size: int) -> None:
        """Called before a data-memory write."""

    def on_syscall_before(self, machine: "Machine", thread: "Thread",
                          number: int) -> Optional[bool]:
        """Called before a syscall executes.

        Returning True suppresses the actual syscall (the tool is
        expected to have injected results itself) — this is how the
        PinPlay replayer skips and injects system calls.
        """
        return None

    def on_syscall_after(self, machine: "Machine", thread: "Thread",
                         number: int, result: int) -> None:
        """Called after a (non-suppressed) syscall executes."""

    def on_region_limit(self, machine: "Machine", thread: "Thread") -> None:
        """A thread retired exactly ``thread.icount_limit`` instructions.

        Fires at the precise retire boundary on both dispatch paths
        (the fast path spills mid-block, mirroring PMU-trap slicing).
        The hook may raise/clear the limit, block the thread, or request
        a stop; doing none of those stops the machine.
        """
