"""The :class:`Machine` facade: CPU + memory + kernel + scheduler + tools.

A Machine is one simulated computer running one process.  The paper's
workflows map onto it directly:

- a *native run* is ``Machine.run()`` with no tools attached,
- a *Pin run* attaches :class:`~repro.machine.tool.Tool` instances
  (logger, BBV profiler, simulator front-end),
- *constrained replay* drives the scheduler from a recorded slice log,
- an *ELFie run* loads an ELFie with the ELF loader and free-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.isa.registers import RegisterFile
from repro.machine.cpu import Cpu, CpuFault, NO_TRAP
from repro.machine.kernel import Kernel
from repro.machine.memory import AddressSpace, PageFault
from repro.machine.perf import PMU
from repro.machine.scheduler import ScheduleSlice, Scheduler
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks

SIGSEGV = 11


@dataclass(slots=True)
class Thread:
    """One hardware thread: architectural state plus counters."""

    tid: int
    regs: RegisterFile = field(default_factory=RegisterFile)
    alive: bool = True
    blocked: bool = False
    futex_addr: Optional[int] = None
    #: Channel id this thread is blocked on (pipe/socket read, write, or
    #: accept); the interrupted syscall's rip is rewound so a wake-up
    #: re-executes it (syscall-restart semantics).
    wait_channel: Optional[int] = None
    #: Blocked-signal bitmask (bit N-1 = signal N), rt_sigprocmask(2).
    sigmask: int = 0
    #: Thread-directed pending signals (tkill/tgkill).
    pending: int = 0
    exit_code: int = 0
    #: Retired-instruction count (the canonical PMU instructions counter).
    icount: int = 0
    #: Cycles accrued by the hardware timing model.
    cycles: int = 0
    llc_misses: int = 0
    branches: int = 0
    spin_pauses: int = 0
    #: Absolute icount at which a PMU overflow trap fires (NO_TRAP = off).
    pmu_trap_at: int = NO_TRAP
    pmu_handler: Optional[int] = None
    #: Absolute icount at which execution must stop *exactly* (NO_TRAP =
    #: off).  Unlike the PMU trap this does not redirect control flow:
    #: the CPU spills mid-block and calls ``Machine.on_icount_limit`` so
    #: a tool (e.g. the replayer's region-budget accounting) can react at
    #: the precise retire boundary.
    icount_limit: int = NO_TRAP
    #: True when the next instruction begins a basic block.
    new_block: bool = True

    @property
    def runnable(self) -> bool:
        return self.alive and not self.blocked


@dataclass
class ExitStatus:
    """How a run ended."""

    kind: str                 # "exit" | "signal" | "stopped"
    code: int = 0             # process exit code (kind == "exit")
    signal: int = 0           # delivering signal (kind == "signal")
    detail: str = ""          # human-readable cause
    fault_address: Optional[int] = None

    @property
    def graceful(self) -> bool:
        """True for a normal exit — the paper's "graceful exit"."""
        return self.kind == "exit"


class Machine:
    """A simulated computer executing one PX process."""

    def __init__(self, seed: int = 0, fs: Optional[FileSystem] = None,
                 root: str = "/", base_quantum: int = 64) -> None:
        self.mem = AddressSpace()
        self.cpu = Cpu(self)
        self.kernel = Kernel(self, fs=fs, root=root)
        self.scheduler = Scheduler(seed=seed, base_quantum=base_quantum)
        self.pmu = PMU(self)
        self.threads: Dict[int, Thread] = {}
        self._next_tid = 0
        self.exit_status: Optional[ExitStatus] = None
        self.tools: List[Tool] = []
        self.instr_tools: List[Tool] = []
        self.block_tools: List[Tool] = []
        #: Entry PCs the block tools must see one by one (no spin).
        self.watched_pcs: FrozenSet[int] = frozenset()
        self.marker_tools: List[Tool] = []
        self._syscall_tools: List[Tool] = []
        #: Global retired-instruction counter across all threads.
        self.executed_total = 0
        # The slice in flight and its bounds in its thread's icount,
        # plus run()'s budget (see next_slices).
        self._slice: Optional[ScheduleSlice] = None
        self._slice_start = 0
        #: The icount at which the slice in flight ends (the fast loop
        #: reads it after every pick it takes in place).
        self.slice_end = 0
        self._extended = 0
        self._budget: Optional[int] = None
        # The sorted runnable tids while the run loop would hand out the
        # next slice exactly as the fast loop may (see next_slice); None
        # from any event that can change them until the loop's next pick.
        self._runnable: Optional[Tuple[int, ...]] = None

    # -- setup ------------------------------------------------------------

    def create_thread(self, parent: Optional[Thread] = None,
                      regs: Optional[RegisterFile] = None,
                      tid: Optional[int] = None) -> Thread:
        """Create a new thread (the clone(2) backend).

        An explicit *tid* (used when reconstructing pinball state) must
        be unused; the sequential counter skips past it.
        """
        if tid is None:
            tid = self._next_tid
        elif tid in self.threads:
            raise ValueError("thread id %d already exists" % tid)
        self._next_tid = max(self._next_tid, tid + 1)
        if regs is not None:
            initial = regs.copy()
        elif parent is not None:
            initial = parent.regs.copy()
        else:
            initial = RegisterFile()
        thread = Thread(tid=tid, regs=initial)
        self.threads[tid] = thread
        for tool in self.tools:
            tool.on_thread_start(self, thread)
        return thread

    def attach(self, tool: Tool) -> None:
        """Attach an instrumentation tool (Pin-style)."""
        self.tools.append(tool)
        self._rebuild_tool_lists()
        tool.on_attach(self)

    def detach(self, tool: Tool) -> None:
        """Detach a previously attached tool."""
        self.tools.remove(tool)
        self._rebuild_tool_lists()

    def _rebuild_tool_lists(self) -> None:
        # A tool attached or detached mid-run takes effect at the next
        # slice end, which must then return to the run loop.
        self._runnable = None
        self.instr_tools = [t for t in self.tools if t.wants_instructions]
        self.block_tools = [t for t in self.tools if t.wants_blocks]
        self.watched_pcs = frozenset().union(
            *(t.watched_pcs for t in self.block_tools))
        self.marker_tools = [t for t in self.tools if t.wants_markers]
        self._syscall_tools = list(self.tools)
        # Instruction tools need exact per-instruction callbacks; block,
        # memory, marker, and syscall tools all fire on the superblock
        # fast path.  Re-applying the tier lets the Cpu re-derive
        # fast_dispatch; how block and memory tools narrow the fast path
        # is decided in Cpu._run_fast, per run_thread call.
        self.cpu.set_dispatch(self.cpu.dispatch_tier)
        mem_tools = [t for t in self.tools if t.wants_memory]
        if mem_tools:
            def read_hook(thread: Thread, addr: int, size: int) -> None:
                for tool in mem_tools:
                    tool.on_memory_read(self, thread, addr, size)

            def write_hook(thread: Thread, addr: int, size: int) -> None:
                for tool in mem_tools:
                    tool.on_memory_write(self, thread, addr, size)

            self.cpu.read_hook = read_hook
            self.cpu.write_hook = write_hook
        else:
            self.cpu.read_hook = None
            self.cpu.write_hook = None

    # -- lifecycle ----------------------------------------------------------

    def on_thread_exited(self, thread: Thread) -> None:
        """Bookkeeping when a thread dies (exit(2) or PMU terminate)."""
        self._runnable = None
        for tool in self.tools:
            tool.on_thread_exit(self, thread)
        if all(not t.alive for t in self.threads.values()):
            if self.exit_status is None:
                self.exit_status = ExitStatus(
                    kind="exit", code=thread.exit_code,
                    detail="last thread exited",
                )

    def exit_process(self, code: int) -> None:
        """exit_group(2): terminate every thread."""
        for thread in self.threads.values():
            if thread.alive:
                thread.alive = False
                thread.exit_code = code
        self.exit_status = ExitStatus(kind="exit", code=code,
                                      detail="exit_group")

    def deliver_fault(self, thread: Thread, signal: int, detail: str,
                      fault_address: Optional[int] = None) -> None:
        """Kill the process with a signal (SIGSEGV/SIGFPE/SIGILL)."""
        obs = hooks.OBS
        if obs.enabled:
            obs.count("machine.faults")
            obs.instant("machine.fault", "machine", tid=thread.tid,
                        signal=signal, detail=detail)
        for t in self.threads.values():
            t.alive = False
        self.exit_status = ExitStatus(
            kind="signal", signal=signal, detail=detail,
            fault_address=fault_address,
        )

    def request_stop(self, reason: str) -> None:
        """Ask the run loop to stop as soon as possible (tool API)."""
        self.cpu.stop_flag = reason

    def on_marker(self, thread: Thread) -> None:
        """*thread* just retired a MARKER: dispatch the marker tools."""
        for tool in self.marker_tools:
            tool.on_marker(self, thread)

    def on_loop_exit(self, thread: Thread, pc: int, members, counts,
                     stop: int, partial: int) -> None:
        """A compiled loop at *pc* stopped spinning: dispatch the block
        tools (all of which accept loop exits; see ``Tool``)."""
        for tool in self.block_tools:
            tool.on_loop_exit(self, thread, pc, members, counts, stop,
                              partial)

    def on_icount_limit(self, thread: Thread) -> None:
        """A thread reached its ``icount_limit`` exactly.

        Dispatches the tool hook; if no tool raises the limit, blocks
        the thread, or requests a stop, the machine stops itself so the
        CPU loop cannot livelock re-reporting the same boundary.
        """
        self._runnable = None
        for tool in self.tools:
            tool.on_region_limit(self, thread)
        if (thread.runnable and thread.icount >= thread.icount_limit
                and self.cpu.stop_flag is None):
            self.request_stop(
                "icount limit reached (tid %d)" % thread.tid)

    # -- syscall plumbing -----------------------------------------------------

    def do_syscall(self, thread: Thread) -> None:
        """Run one syscall through tool interception and the kernel."""
        # Any syscall may block, wake, clone, exit or signal a thread.
        self._runnable = None
        number = thread.regs.gpr[0]
        suppressed = False
        for tool in self._syscall_tools:
            if tool.on_syscall_before(self, thread, number):
                suppressed = True
        if suppressed:
            return
        result = self.kernel.dispatch(thread)
        for tool in self._syscall_tools:
            tool.on_syscall_after(self, thread, number, result)

    # -- queries -----------------------------------------------------------

    def total_icount(self) -> int:
        return sum(t.icount for t in self.threads.values())

    def total_cycles(self) -> int:
        return sum(t.cycles for t in self.threads.values())

    def runnable_tids(self) -> List[int]:
        # Inlined `t.runnable` — this runs once per scheduler pick.
        return [t.tid for t in self.threads.values()
                if t.alive and not t.blocked]

    @property
    def running(self) -> bool:
        return self.exit_status is None and any(
            t.runnable for t in self.threads.values()
        )

    def stdout(self) -> bytes:
        return bytes(self.kernel.fdt.stdout)

    def stderr(self) -> bytes:
        return bytes(self.kernel.fdt.stderr)

    # -- run loop ------------------------------------------------------------

    def run(self, max_instructions: Optional[int] = None) -> ExitStatus:
        """Run until process exit, a fault, a stop request, or the
        instruction budget is exhausted.

        Returns the final :class:`ExitStatus`; a budget stop or tool stop
        yields ``kind == "stopped"``.
        """
        self.cpu.stop_flag = None
        self.cpu.yield_flag = False
        self._budget = max_instructions
        threads = self.threads
        while self.exit_status is None:
            if not self.scheduler.mid_slice:
                # Quantum-boundary signal delivery.  Skipped while a cut
                # slice's remainder is parked: a budget-stepped run must
                # deliver at the same boundaries as a straight run.
                self.kernel.deliver_pending_signals()
                if self.exit_status is not None:
                    break
            runnable = self.runnable_tids()
            if not runnable:
                if any(t.blocked for t in threads.values()):
                    self.deliver_fault(
                        next(iter(threads.values())), SIGSEGV,
                        "deadlock: all threads blocked (futex/channel waits)",
                    )
                break
            if max_instructions is not None:
                # Check the budget before picking: a pick consumes a
                # replay-log slice (or free-run RNG state), which a
                # stepped run re-entering with an exhausted budget must
                # not burn.
                remaining = max_instructions - self.executed_total
                if remaining <= 0:
                    return self._stopped("instruction budget exhausted")
            slice_ = self.scheduler.pick(runnable)
            quantum = slice_.quantum
            if max_instructions is not None:
                quantum = min(quantum, remaining)
            thread = threads[slice_.tid]
            self._slice = slice_
            self._slice_start = thread.icount
            self.slice_end = thread.icount + quantum
            self._extended = 0
            # Until an event that may change them (see next_slice), the
            # fast loop takes the next picks in place.  A signal pending
            # anywhere needs this loop's delivery at the slice end.
            self._runnable = None if (
                self.kernel.process_pending
                or any(t.pending and t.alive for t in threads.values())
            ) else tuple(sorted(runnable))
            try:
                self.cpu.run_thread(thread, quantum)
            except (PageFault, CpuFault) as exc:
                thread = threads[self._slice.tid]
                # Commit the picks for every slice end the faulting
                # block ran across, as the per-slice loop would have.
                if self.slice_end <= thread.icount:
                    self.next_slices(thread.icount - self.slice_end + 1)
                self._count_slices()
                if isinstance(exc, PageFault):
                    self.deliver_fault(thread, SIGSEGV, str(exc),
                                       fault_address=exc.address)
                else:
                    self.deliver_fault(thread, exc.signal, str(exc))
                break
            self._count_slices()
            # Slices picked in place are already accounted; only the
            # last one can have ended early.
            slice_ = self._slice
            thread = threads[slice_.tid]
            executed = thread.icount - self._slice_start
            self.executed_total += executed
            yielded = self.cpu.yield_flag
            self.cpu.yield_flag = False
            if executed != slice_.quantum:
                # A signal-raising syscall forfeits the slice remainder
                # (not resumable): the shortened slice is recorded, so
                # replay reaches the delivery boundary at the same spot.
                self.scheduler.note_partial(
                    slice_, executed,
                    resumable=thread.runnable and not yielded)
            if self.cpu.stop_flag is not None:
                return self._stopped(self.cpu.stop_flag)
            if (max_instructions is not None
                    and self.executed_total >= max_instructions
                    and self.exit_status is None):
                return self._stopped("instruction budget exhausted")
        if self.exit_status is None:
            self.exit_status = ExitStatus(kind="exit", code=0,
                                          detail="no runnable threads")
        return self.exit_status

    # -- slice ends inside the fast loop ----------------------------------

    def next_slice(self) -> Optional[Thread]:
        """At a block boundary that ends the slice in flight, pick the
        next slice in place, exactly as the run loop would; returns the
        thread that runs it, or None when the run loop must look.

        The loop looks when a stop or yield is requested, the budget is
        spent, or the runnable set or pending signals may have changed
        since its last pick.  They change only at a syscall (a clone,
        exit, futex wait or wake, or signal), a thread's death, a tool
        attached or detached, or an icount-limit hook: each of those
        clears the cached set, and a syscall also ends its block, so
        the fast loop never asks past one.  The pick is
        :meth:`Scheduler.extend`'s, whose RNG draws and recorded slices
        are those of :meth:`Scheduler.pick`.
        """
        runnable = self._runnable
        cpu = self.cpu
        if runnable is None or cpu.stop_flag is not None or cpu.yield_flag:
            return None
        closed = self.executed_total + self.slice_end - self._slice_start
        room = NO_TRAP
        if self._budget is not None:
            room = self._budget - closed
            if room <= 0:
                return None
        self.executed_total = closed
        slice_, allotted, _, _ = self.scheduler.extend(runnable, 1, room)
        thread = self.threads[slice_.tid]
        self._slice = slice_
        self._slice_start = thread.icount
        self.slice_end = thread.icount + allotted
        self._extended += 1
        return thread

    def slice_room(self) -> int:
        """How many instructions past the end of the slice in flight its
        thread may retire before the run loop must look again: 0 unless
        that thread is the lone runnable one in free-run (every next
        pick is then that thread), else what is left of the budget
        (NO_TRAP without one).  The fast loop asks ahead of a block that
        straddles the slice end or of a compiled loop's spin."""
        runnable = self._runnable
        cpu = self.cpu
        if (runnable is None or len(runnable) != 1
                or self.scheduler.replaying or cpu.stop_flag is not None
                or cpu.yield_flag):
            return 0
        budget = self._budget
        if budget is None:
            return NO_TRAP
        return budget - (self.executed_total + self.slice_end
                         - self._slice_start)

    def next_slices(self, need: int) -> None:
        """Close the slice in flight at its end and pick the same
        thread's next slices, exactly as the run loop would, until at
        least *need* more instructions are allotted (each pick
        budget-clamped).

        The thread has run *need* instructions past the slice end
        inside the room :meth:`slice_room` gave, so every pick is its
        own.  The picks are :meth:`Scheduler.extend`'s.
        """
        self.executed_total += self.slice_end - self._slice_start
        budget = self._budget
        room = NO_TRAP if budget is None else budget - self.executed_total
        slice_, allotted, last, picks = self.scheduler.extend(
            (self._slice.tid,), need, room)
        self._slice = slice_
        # Every pick but the last is closed already.
        self.executed_total += allotted - last
        self._slice_start = self.slice_end + allotted - last
        self.slice_end += allotted
        self._extended += picks

    def _count_slices(self) -> None:
        obs = hooks.OBS
        if obs.enabled:
            obs.count("sched.slices", 1 + self._extended)
            if self._extended:
                obs.count("sched.slices_extended", self._extended)

    def _stopped(self, reason: str) -> ExitStatus:
        status = ExitStatus(kind="stopped", detail=reason)
        # A stop is resumable: exit_status stays None so run() can continue.
        self.cpu.stop_flag = None
        return status
