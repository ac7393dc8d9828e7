"""Constrained replay of pinballs.

Replay reconstructs the captured machine state (memory image, per-thread
registers, heap break, open file descriptors, blocked threads and their
futex wait-queue order), then re-executes the region with:

- **system-call injection**: system calls are skipped and their recorded
  register results and memory side-effects are injected instead.
  Kernel-state-changing calls (``clone``, exits, futex, memory
  management, PMU arming) are the exception — they must really execute
  so threads exist/die/block/wake, mappings appear, and traps fire;
  their native results are checked against the recorded results, which
  is itself a divergence detector.
- **thread-order enforcement**: the scheduler consumes the recorded
  slice log, reproducing the captured interleaving.

With ``injection=False`` (the paper's new ``-replay:injection 0``
switch) neither mechanism is applied: system calls re-execute natively
and the scheduler free-runs — mimicking an ELFie execution while still
under the replay harness, which the paper added for debugging ELFie
failures.

Divergence is reported as a structured :class:`DivergenceInfo` (kind,
thread, pc, icount) rather than a bare string, so the verifier and the
CLI can localize and fail on it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.machine.kernel import Listener, ShmSegment
from repro.machine.machine import ExitStatus, Machine
from repro.machine.tool import Tool
from repro.machine.vfs import Channel, FileSystem, OpenFile, VfsError
from repro.observe import hooks
from repro.pinplay.pinball import Pinball, SyscallRecord
from repro.snapshot.state import MachineSnapshot, capture, restore

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DivergenceInfo:
    """Where and how a replay first left the recorded execution.

    ``icount`` is region-relative (threads reconstructed from a pinball
    start counting at zero).  ``kind`` is one of:

    ``budget-overrun``
        A thread tried to execute past its recorded region length.
    ``syscall-unrecorded``
        A thread executed a syscall with no recorded counterpart.
    ``syscall-mismatch``
        The syscall number differs from the recorded one.
    ``syscall-result``
        A natively re-executed syscall returned a different result.
    ``icount-mismatch``
        Region ended with per-thread instruction counts off the record.
    """

    kind: str
    tid: int
    pc: int
    icount: int
    detail: str = ""

    def __str__(self) -> str:
        return "%s: tid %d at pc 0x%x, icount %d%s" % (
            self.kind, self.tid, self.pc, self.icount,
            " (%s)" % self.detail if self.detail else "")


class _InjectionTool(Tool):
    """Skips system calls and injects their recorded effects.

    Like PinPlay's replayer, the tool instruments every instruction
    (region-length accounting) and — for multi-threaded pinballs —
    every memory operand (shared-memory order bookkeeping).  This
    dynamic instrumentation is where constrained replay's run-time
    overhead over a native run comes from (Table I); pass
    ``instrument=False`` when a simulator provides its own
    instrumentation (the Sniper + PinPlay integration).  Region-budget
    enforcement does not depend on the flag: it rides the per-thread
    ``icount_limit`` the CPU enforces exactly on both dispatch paths.
    """

    wants_instructions = True
    wants_memory = False
    SNAPSHOT_SLICE = "pinplay"

    def __init__(self, pinball: Pinball, instrument: bool = True) -> None:
        self._queues: Dict[int, List[SyscallRecord]] = {}
        for record in pinball.syscalls:
            self._queues.setdefault(record.tid, []).append(record)
        self.injected = 0
        self.native_syscalls = 0
        self.diverged: Optional[DivergenceInfo] = None
        self.wants_instructions = instrument
        # memory-operand monitoring backs lazy page injection (ST) and
        # shared-memory order enforcement (MT)
        self.wants_memory = instrument
        self.replayed_instructions = 0
        self.monitored_accesses = 0
        self.uncaptured_accesses = 0
        self._pending: Dict[int, SyscallRecord] = {}
        self._captured_pages = frozenset(
            addr >> 12 for addr in pinball.pages)

    def save_state(self) -> dict:
        diverged = self.diverged
        return {
            "queues": [[tid, [record.to_json() for record in queue]]
                       for tid, queue in sorted(self._queues.items())],
            "injected": self.injected,
            "native_syscalls": self.native_syscalls,
            "diverged": None if diverged is None else asdict(diverged),
            "instrument": self.wants_instructions,
            "replayed_instructions": self.replayed_instructions,
            "monitored_accesses": self.monitored_accesses,
            "uncaptured_accesses": self.uncaptured_accesses,
            "pending": [[tid, record.to_json()]
                        for tid, record in sorted(self._pending.items())],
            "captured_pages": sorted(self._captured_pages),
        }

    def restore_state(self, state: dict) -> None:
        self._queues = {tid: [SyscallRecord.from_json(item)
                              for item in queue]
                        for tid, queue in state["queues"]}
        self.injected = state["injected"]
        self.native_syscalls = state["native_syscalls"]
        diverged = state["diverged"]
        self.diverged = (None if diverged is None
                         else DivergenceInfo(**diverged))
        self.wants_instructions = state["instrument"]
        self.wants_memory = state["instrument"]
        self.replayed_instructions = state["replayed_instructions"]
        self.monitored_accesses = state["monitored_accesses"]
        self.uncaptured_accesses = state["uncaptured_accesses"]
        self._pending = {tid: SyscallRecord.from_json(item)
                         for tid, item in state["pending"]}
        self._captured_pages = frozenset(state["captured_pages"])

    def _diverge(self, machine, thread, kind: str, detail: str = "") -> None:
        if self.diverged is not None:
            return
        self.diverged = DivergenceInfo(
            kind=kind, tid=thread.tid, pc=thread.regs.rip,
            icount=thread.icount, detail=detail)
        machine.request_stop("replay divergence")

    def on_instruction(self, machine, thread, pc, insn) -> None:
        self.replayed_instructions += 1

    def on_region_limit(self, machine, thread) -> None:
        # The CPU stopped the thread exactly at its recorded region
        # length and is being asked to run it further: control flow has
        # left the recording (a faithful replay's schedule never
        # schedules a thread past its budget).
        self._diverge(
            machine, thread, "budget-overrun",
            "thread %d scheduled past its recorded region length (%d)"
            % (thread.tid, thread.icount))

    def on_memory_read(self, machine, thread, addr, size) -> None:
        # page-injection monitoring: accesses outside the captured image
        # are counted (they are legitimate for pages the region itself
        # maps via mmap/brk, so they are noted rather than fatal)
        self.monitored_accesses += 1
        if (addr >> 12) not in self._captured_pages:
            self.uncaptured_accesses += 1

    def on_memory_write(self, machine, thread, addr, size) -> None:
        self.monitored_accesses += 1
        if (addr >> 12) not in self._captured_pages:
            self.uncaptured_accesses += 1

    def on_syscall_before(self, machine, thread, number):
        queue = self._queues.get(thread.tid)
        if not queue:
            self._diverge(
                machine, thread, "syscall-unrecorded",
                "thread %d executed unrecorded syscall %d"
                % (thread.tid, number))
            return True
        record = queue[0]
        if record.number != number:
            self._diverge(
                machine, thread, "syscall-mismatch",
                "thread %d executed syscall %d, recorded %d"
                % (thread.tid, number, record.number))
            return True
        queue.pop(0)
        if record.native:
            # Must really run (the recording kernel flagged it as
            # changing kernel state: kernel.KERNEL_STATE_SYSCALLS, and
            # channel-end read/write/close/dup); on_syscall_after checks
            # the result.
            self._pending[thread.tid] = record
            self.native_syscalls += 1
            return None
        # Inject: set the result register and replay memory effects.
        thread.regs.gpr[0] = record.result & MASK64
        for addr, data in record.writes:
            machine.mem.write(addr, data)
        self.injected += 1
        return True

    def on_syscall_after(self, machine, thread, number, result) -> None:
        record = self._pending.pop(thread.tid, None)
        if record is None:
            return
        if (result & MASK64) != (record.result & MASK64):
            self._diverge(
                machine, thread, "syscall-result",
                "syscall %d returned %d, recorded %d"
                % (number, result, record.result))


@dataclass
class ReplayResult:
    """Outcome of a pinball replay."""

    machine: Machine
    status: ExitStatus
    injection: bool
    #: Instructions executed per (recorded) thread during replay.
    thread_icounts: Dict[int, int] = field(default_factory=dict)
    #: Total instructions executed during the replayed region.
    total_icount: int = 0
    injected_syscalls: int = 0
    diverged: Optional[DivergenceInfo] = None

    @property
    def matches_recording(self) -> bool:
        """True when per-thread icounts equal the recorded counts."""
        return self.diverged is None


def _reconstruct(pinball: Pinball, seed: int,
                 fs: Optional[FileSystem],
                 restore_blocked: bool = False) -> Machine:
    """Build a machine in the pinball's captured start state.

    File descriptors open at region start are restored eagerly — at
    their recorded offsets — before anything executes, so the first
    replayed syscall (which may be a ``read``) sees correct kernel
    state.  With ``restore_blocked`` the captured blocked threads are
    parked on their futexes in the recorded wake order (constrained
    replay); without it they free-run, mimicking an ELFie start.
    """
    machine = Machine(seed=seed, fs=fs)
    kernel = machine.kernel
    for addr, (prot, data) in pinball.pages.items():
        machine.mem.map(addr, len(data), prot, data=data)
    kernel.set_brk(pinball.brk_start, pinball.brk_end)
    for record in sorted(pinball.threads, key=lambda r: r.tid):
        thread = machine.create_thread(regs=record.regs, tid=record.tid)
        thread.sigmask = record.sigmask
        thread.pending = record.pending
        if record.pmu_remaining is not None:
            # Re-arm the trap that was pending at region start; replay
            # icounts restart at zero, so the recorded remaining
            # distance is the new absolute trap point.
            thread.pmu_trap_at = record.pmu_remaining
            thread.pmu_handler = record.pmu_handler
    if pinball.next_tid:
        machine._next_tid = max(machine._next_tid, pinball.next_tid)

    # Signal and IPC kernel state captured at region start.  The
    # recorded channel refcounts are restored verbatim; channel-backed
    # descriptors are installed below without re-accounting.
    kernel.sigactions = dict(pinball.sigactions)
    kernel.process_pending = pinball.process_pending
    channels = {cid: Channel.from_json(cid, chan)
                for cid, chan in pinball.channels.items()}
    kernel.channels = channels
    kernel._next_channel_id = max(pinball.next_channel_id,
                                  max(channels, default=0) + 1)
    for port, listener in pinball.listeners.items():
        kernel._listeners[port] = Listener.from_json(port, listener)
    for shmid, seg in pinball.shm_segments.items():
        kernel.shm_segments[shmid] = ShmSegment.from_json(shmid, seg)
    kernel._next_shmid = max(pinball.next_shmid,
                             max(kernel.shm_segments, default=0) + 1)

    shared_endpoints: Dict[tuple, OpenFile] = {}
    for open_file in pinball.open_files:
        if open_file.kind != "file":
            # Dup'ed endpoint descriptors share one description; key on
            # the endpoint identity so dups restore as dups.
            key = (open_file.kind, open_file.read_cid,
                   open_file.write_cid, open_file.bound_port)
            endpoint = shared_endpoints.get(key)
            if endpoint is None:
                endpoint = OpenFile(
                    path=open_file.path, flags=open_file.flags,
                    kind=open_file.kind,
                    read_ch=(channels.get(open_file.read_cid)
                             if open_file.read_cid is not None else None),
                    write_ch=(channels.get(open_file.write_cid)
                              if open_file.write_cid is not None else None),
                    bound_port=open_file.bound_port)
                shared_endpoints[key] = endpoint
            kernel.fdt.restore_unaccounted(open_file.fd, endpoint)
            continue
        try:
            kernel.fdt.restore(
                open_file.fd, open_file.path, open_file.flags,
                open_file.offset)
        except VfsError:
            # File absent from the replay filesystem: constrained
            # replay injects its reads anyway; injection-less replay
            # will (correctly) observe EBADF like a bare ELFie would.
            pass
    if restore_blocked:
        waiters = kernel._futex_waiters
        for addr, tids in pinball.futex_waiters.items():
            queue = [tid for tid in tids if tid in machine.threads]
            if queue:
                waiters[addr] = queue
        channel_waiters = kernel._channel_waiters
        for cid, tids in pinball.channel_waiters.items():
            queue = [tid for tid in tids if tid in machine.threads]
            if queue:
                channel_waiters[cid] = queue
        for record in pinball.threads:
            if not record.blocked:
                continue
            thread = machine.threads[record.tid]
            thread.blocked = True
            thread.futex_addr = record.futex_addr
            thread.wait_channel = record.wait_channel
    return machine


class ReplaySession:
    """A replay that can be advanced in instruction-count steps.

    This is the verifier's replay cursor: ``step(target)`` runs until
    ``machine.executed_total`` reaches *target* (clamped to the region
    budget), preserving recorded-slice remainders across steps, so a
    replay advanced epoch by epoch retires exactly the same interleaved
    instruction sequence as :func:`replay` in one shot.  ``result()``
    finalizes and returns the :class:`ReplayResult`.
    """

    def __init__(self, pinball: Pinball, injection: bool = True,
                 seed: int = 0, fs: Optional[FileSystem] = None,
                 max_instructions: Optional[int] = None,
                 instrument: bool = True) -> None:
        machine = _reconstruct(pinball, seed=seed, fs=fs,
                               restore_blocked=injection)
        tool = None
        if injection:
            tool = _InjectionTool(pinball, instrument=instrument)
            machine.attach(tool)
            machine.scheduler.replay(pinball.schedule)
            # Exact per-thread budgets: the CPU spills mid-block and
            # reports the boundary precisely (no overshoot to block end).
            for record in pinball.threads:
                machine.threads[record.tid].icount_limit = (
                    record.region_icount)
            budget = pinball.replay_budget
        else:
            budget = max_instructions
            if budget is None:
                budget = 4 * max(pinball.region_icount, 1)
        self._bind(pinball, injection, machine, tool, budget)

    def _bind(self, pinball: Pinball, injection: bool, machine: Machine,
              tool: Optional[_InjectionTool], budget: int) -> None:
        self.pinball = pinball
        self.injection = injection
        self.machine = machine
        self.tool = tool
        self.budget = budget
        self.status: Optional[ExitStatus] = None
        self._finished = False

    def checkpoint(self, **extra) -> MachineSnapshot:
        """Whole-machine snapshot at the current (stopped) position;
        *extra* rides along with what :meth:`resume` reads back."""
        return capture(self.machine, extra=dict(
            extra, budget=self.budget, injection=self.injection))

    @classmethod
    def resume(cls, pinball: Pinball, snapshot: MachineSnapshot,
               tools: Sequence[Tool] = ()) -> "ReplaySession":
        """The session a :meth:`checkpoint` of a replay of *pinball*
        suspended, with *tools* attached after its injection tool.

        The injection tool is built empty and refilled from the
        snapshot (syscall queues, divergence flag); the machine is
        restored, not reconstructed from the pinball again.
        """
        injection = snapshot.extra["injection"]
        tool = _InjectionTool(pinball) if injection else None
        own = [tool] if tool is not None else []
        machine = restore(snapshot, tools=own + list(tools))
        session = cls.__new__(cls)
        session._bind(pinball, injection, machine, tool,
                      snapshot.extra["budget"])
        return session

    @property
    def executed(self) -> int:
        """Instructions retired so far (region-relative)."""
        return self.machine.executed_total

    @property
    def done(self) -> bool:
        return (self.machine.exit_status is not None
                or self.executed >= self.budget
                or (self.tool is not None
                    and self.tool.diverged is not None))

    def step(self, target: int) -> ExitStatus:
        """Advance until *target* total instructions (or the budget)."""
        self.status = self.machine.run(
            max_instructions=min(target, self.budget))
        return self.status

    def run(self) -> ExitStatus:
        """Run to the end of the region budget."""
        return self.step(self.budget)

    def divergence(self) -> Optional[DivergenceInfo]:
        """How this constrained replay left the recording, judged at its
        end: the injection tool's divergence, else the first thread
        whose instruction count is off its recorded ``region_icount``."""
        if self.tool.diverged is not None:
            return self.tool.diverged
        for record in self.pinball.threads:
            thread = self.machine.threads[record.tid]
            if thread.icount != record.region_icount:
                return DivergenceInfo(
                    kind="icount-mismatch", tid=record.tid,
                    pc=thread.regs.rip & MASK64, icount=thread.icount,
                    detail="executed %d instructions, recorded %d"
                    % (thread.icount, record.region_icount))
        return None

    def result(self) -> ReplayResult:
        """Detach instrumentation and summarize the replay."""
        tool = self.tool
        if not self._finished:
            self._finished = True
            if tool is not None:
                self.machine.detach(tool)
        machine = self.machine
        thread_icounts = {
            record.tid: machine.threads[record.tid].icount
            for record in self.pinball.threads
        }
        diverged = self.divergence() if self.injection else None
        status = self.status
        if status is None:
            status = ExitStatus(kind="stopped", detail="not run")
        return ReplayResult(
            machine=machine,
            status=status,
            injection=self.injection,
            thread_icounts=thread_icounts,
            total_icount=sum(thread_icounts.values()),
            injected_syscalls=tool.injected if tool else 0,
            diverged=diverged,
        )


def replay(pinball: Pinball, injection: bool = True, seed: int = 0,
           fs: Optional[FileSystem] = None,
           max_instructions: Optional[int] = None,
           instrument: bool = True) -> ReplayResult:
    """Replay *pinball*; constrained when ``injection`` is true.

    A constrained replay stops exactly at the recorded region length and
    reports whether per-thread instruction counts match the recording.
    An injection-less replay (``injection=False``) free-runs for up to
    ``max_instructions`` (default: 4x the recorded region) and reports
    whatever happened — including SIGSEGV-style deaths, which is its
    purpose as an ELFie-debugging aid.
    """
    session = ReplaySession(pinball, injection=injection, seed=seed, fs=fs,
                            max_instructions=max_instructions,
                            instrument=instrument)
    obs = hooks.OBS
    with obs.span("replay", "pinplay", pinball=pinball.name,
                  injection=injection):
        session.run()
    result = session.result()

    if obs.enabled:
        obs.count("replay.runs")
        if session.tool is not None:
            obs.count("replay.injected_syscalls", session.tool.injected)
        if result.diverged:
            obs.count("replay.divergences")
            obs.instant("replay.divergence", "pinplay",
                        pinball=pinball.name, kind=result.diverged.kind,
                        tid=result.diverged.tid, pc=result.diverged.pc,
                        icount=result.diverged.icount,
                        detail=str(result.diverged))

    return result
