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

from typing import TYPE_CHECKING, FrozenSet, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa.instructions import Instruction
    from repro.machine.machine import Machine, Thread


class Tool:
    """Base class for instrumentation tools.

    Subclasses override only the hooks they need.  All hooks default to
    no-ops; the machine checks ``wants_*`` class attributes to skip
    invoking unused hook categories on the hot path.

    Only ``wants_instructions`` pins the machine to per-instruction
    interpretation.  Block tools (``wants_blocks``) run on the compiled
    tier too, and there they see every block entry: hot loops that the
    compiler turned into one generated function (up to
    ``compile.LOOP_BLOCKS`` blocks on one page, spinning without a
    return to the dispatch header) run only while no block tool is
    attached, unless every attached block tool sets
    ``accepts_loop_exits``.  Then a loop whose head entry the tools
    have just seen keeps spinning, and the entries of its members
    reach the tools as one ``on_loop_exit`` call per spin instead.
    Set it only if that call is equivalent for the tool to the entries
    it replaces (the BBV counter adds the members' instructions; the
    ROI watcher's first entries never fall inside a spin), and never
    request a stop from it.  A tool that must see some entries one by
    one (exact icount and cycles at a LoopPoint marker crossing) names
    their PCs in ``watched_pcs``: a loop with a watched member entry
    does not spin while it is attached.
    Marker tools (``wants_markers``) run on both
    dispatch tiers: superblocks end at MARKER, so compiled and
    interpreted blocks return to the dispatch header right after one
    retires, with exact icount and cycles, and the hook fires there.  A
    stop requested from ``on_marker`` lands immediately after the
    marker.

    A tool whose cursors a suspended run must carry implements
    :meth:`save_state` and :meth:`restore_state`, and names the
    snapshot slice that holds them in ``SNAPSHOT_SLICE``.
    """

    #: Set false in subclasses that do not need per-instruction callbacks.
    wants_instructions: bool = True
    #: Set true to receive memory-operand callbacks.
    wants_memory: bool = False
    #: Set true to receive basic-block callbacks.
    wants_blocks: bool = False
    #: Set true to receive MARKER-retired callbacks.
    wants_markers: bool = False
    #: Set true if a block tool may see a compiled loop's spin as one
    #: ``on_loop_exit`` call instead of its member entries (see above).
    accepts_loop_exits: bool = False
    #: Block entry PCs no loop spin may pass (see above).
    watched_pcs: FrozenSet[int] = frozenset()
    #: Snapshot slice (``pinplay`` or ``observe``) of :meth:`save_state`.
    SNAPSHOT_SLICE: str = ""

    def save_state(self) -> Optional[dict]:
        """This tool's cursors as JSON, for a snapshot (None: nothing)."""
        return None

    def restore_state(self, state: dict) -> None:
        """Refill a freshly attached instance from :meth:`save_state`."""

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

    def on_loop_exit(self, machine: "Machine", thread: "Thread", pc: int,
                     members: Tuple[Tuple[int, int], ...],
                     counts: Tuple[int, ...], stop: int,
                     partial: int) -> None:
        """A compiled loop headed at *pc* stopped spinning (tools that
        set ``accepts_loop_exits`` only).

        The head's entry was reported by ``on_basic_block``; this call
        stands for every member entry after it.  *members* holds each
        member's ``(offset from pc, instruction count)``, head first,
        and *counts* how many times each ran to completion.  The spin
        ended in member *stop*: *partial* instructions into it after an
        SMC break or a fault (a fault raises right after this call),
        else (*partial* 0) just after completing it.  ``thread.icount``
        covers the whole spin.
        """

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
