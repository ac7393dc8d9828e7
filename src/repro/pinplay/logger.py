"""The PinPlay logger: capture a region of execution into a pinball.

The logger runs the test program on a machine, fast-forwards to the
region start, snapshots the architectural state, then records during the
region: every system call's results and memory side-effects, the
realized thread schedule, and (in lazy mode) the set of touched pages.

:func:`log_region` captures one region per run; :func:`log_regions`
captures any set of regions, overlapping windows included, in one run,
each pinball byte-identical to the one :func:`log_region` records.

Fat-pinball switches (paper §II-A):

``whole_image``
    Record *all* mapped pages, including sections never touched in the
    region (``-log:whole_image``).
``pages_early``
    Put page contents in the initial memory image rather than as lazy
    injection records (``-log:pages_early``).  In this reproduction
    page contents are always from region start; the switch controls
    whether untouched pages survive into the ``.text`` file.
``fat``
    Both of the above (``-log:fat``).  ELFies must be generated from
    fat pinballs; an ELFie from a lazy pinball is missing pages and
    usually dies on its first divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.machine.cpu import NO_TRAP
from repro.machine.kernel import NR
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SHIFT
from repro.machine.scheduler import ScheduleSlice, intern_slice
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.pinball import (
    OpenFileRecord,
    Pinball,
    SyscallRecord,
    ThreadRecord,
)
from repro.pinplay.regions import RegionSpec


@dataclass
class LogOptions:
    """Logger configuration (the -log:* switches)."""

    name: str = "pinball"
    fat: bool = True
    whole_image: Optional[bool] = None
    pages_early: Optional[bool] = None

    def resolved(self) -> Tuple[bool, bool]:
        """Effective (whole_image, pages_early) after -log:fat."""
        whole = self.whole_image if self.whole_image is not None else self.fat
        early = self.pages_early if self.pages_early is not None else self.fat
        return whole, early


class _RecordingTool(Tool):
    """Tool attached for the duration of the region capture."""

    wants_instructions = False

    def __init__(self, lazy: bool) -> None:
        self.lazy = lazy
        self.wants_instructions = lazy  # code-page tracking needs the PC
        self.syscalls: List[SyscallRecord] = []
        self.touched_pages: Set[int] = set()
        self._pending: Dict[int, Tuple[Tuple[int, ...], Optional[str]]] = {}

    def on_instruction(self, machine, thread, pc, insn) -> None:
        # lazy mode: code pages are "touched" by fetching from them;
        # an instruction straddling a page boundary touches both pages
        self.touched_pages.add(pc >> PAGE_SHIFT)
        last = (pc + insn.size - 1) >> PAGE_SHIFT
        if last != (pc >> PAGE_SHIFT):
            self.touched_pages.add(last)

    def on_syscall_before(self, machine, thread, number):
        gpr = thread.regs.gpr
        args = (gpr[7], gpr[6], gpr[2], gpr[10], gpr[8], gpr[9])
        path = None
        if number == NR.OPEN:
            try:
                path = machine.mem.read_cstring(gpr[7]).decode("utf-8", "replace")
            except Exception:
                path = None
        self._pending[thread.tid] = (args, path)
        return None

    def on_syscall_after(self, machine, thread, number, result) -> None:
        args, path = self._pending.pop(thread.tid, ((0,) * 6, None))
        self.syscalls.append(
            SyscallRecord(
                tid=thread.tid,
                number=number,
                args=args,
                result=result,
                writes=list(machine.kernel.last_effects),
                path=path,
                native=machine.kernel.last_native,
            )
        )


def _thread_snapshot(thread) -> ThreadRecord:
    """Capture one thread's region-start state, PMU trap included."""
    record = ThreadRecord(
        tid=thread.tid, regs=thread.regs.copy(),
        blocked=thread.blocked, futex_addr=thread.futex_addr,
        sigmask=thread.sigmask, pending=thread.pending,
        wait_channel=thread.wait_channel,
    )
    if thread.pmu_trap_at != NO_TRAP:
        # The trap point is an absolute icount; replay threads restart
        # at zero, so store the remaining distance.
        record.pmu_remaining = thread.pmu_trap_at - thread.icount
        record.pmu_handler = thread.pmu_handler
    return record


def _capture_open_files(machine: Machine) -> List[OpenFileRecord]:
    """Snapshot the non-console descriptor table at region start."""
    fdt = machine.kernel.fdt
    records = []
    for fd in fdt.open_fds():
        if fdt.is_console_fd(fd):
            continue
        of = fdt.entry(fd)
        records.append(OpenFileRecord(
            fd=fd, path=of.path, flags=of.flags, offset=of.offset,
            kind=of.kind,
            read_cid=of.read_ch.cid if of.read_ch else None,
            write_cid=of.write_ch.cid if of.write_ch else None,
            bound_port=of.bound_port,
        ))
    return records


def _capture_futex_waiters(machine: Machine) -> Dict[int, List[int]]:
    """Snapshot the futex wait-queue order at region start."""
    return {addr: list(tids)
            for addr, tids in machine.kernel._futex_waiters.items()
            if tids}


def _capture_kernel_ipc(machine: Machine) -> dict:
    """Snapshot channel/signal/shm kernel state at region start.

    Returned keys match :class:`Pinball` field names so callers can
    splat the dict straight into the constructor.
    """
    kernel = machine.kernel
    return {
        "channels": {chan.cid: chan.to_json()
                     for chan in kernel.channels.values()},
        "channel_waiters": {cid: list(tids) for cid, tids
                            in kernel._channel_waiters.items() if tids},
        "listeners": {listener.port: listener.to_json()
                      for listener in kernel._listeners.values()},
        "sigactions": dict(kernel.sigactions),
        "process_pending": kernel.process_pending,
        "shm_segments": {seg.shmid: seg.to_json()
                         for seg in kernel.shm_segments.values()},
        "next_channel_id": kernel._next_channel_id,
        "next_shmid": kernel._next_shmid,
    }


class _WindowStart:
    """The state a pinball needs from its capture window's start."""

    def __init__(self, machine: Machine) -> None:
        self.pages = machine.mem.snapshot()
        self.perms = machine.mem.snapshot_perms()
        self.icounts: Dict[int, int] = {}
        self.threads: List[ThreadRecord] = []
        for thread in machine.threads.values():
            if thread.alive:
                self.icounts[thread.tid] = thread.icount
                self.threads.append(_thread_snapshot(thread))
        kernel = machine.kernel
        self.fields = dict(
            brk_start=kernel.brk_start,
            brk_end=kernel.brk_end,
            # tid allocation state must be snapshotted *before* the
            # record window: a clone inside the region bumps the counter,
            # and replay must re-allocate the same tids the recording run
            # handed out.
            next_tid=machine._next_tid,
            open_files=_capture_open_files(machine),
            futex_waiters=_capture_futex_waiters(machine),
            **_capture_kernel_ipc(machine),
        )

    def pinball(self, machine: Machine, name: str, region: RegionSpec,
                syscalls: List[SyscallRecord],
                schedule: List[ScheduleSlice],
                touched: Optional[Set[int]] = None,
                **flags: bool) -> Pinball:
        """Close the window at the machine's current state.

        With *touched*, only those pages are kept (lazy mode).
        """
        for record in self.threads:
            record.region_icount = (machine.threads[record.tid].icount
                                    - self.icounts[record.tid])
        kept = self.pages if touched is None else {
            page: data for page, data in self.pages.items()
            if page in touched}
        obs = hooks.OBS
        if obs.enabled:
            obs.count("logger.regions")
            obs.count("logger.pages_captured", len(kept))
            obs.count("logger.syscall_records", len(syscalls))
        return Pinball(
            name=name,
            region=region,
            pages={page << PAGE_SHIFT: (self.perms[page], data)
                   for page, data in kept.items()},
            threads=self.threads,
            syscalls=syscalls,
            schedule=schedule,
            **flags,
            **self.fields,
        )


def _window_schedule(trace: Sequence[ScheduleSlice], cuts: Set[int],
                     first: int, last: int) -> List[ScheduleSlice]:
    """``trace[first:last]`` with every slice cut strictly inside it
    joined; ``k in cuts`` means ``trace[k]`` continues ``trace[k - 1]``.
    """
    schedule: List[ScheduleSlice] = []
    for index in range(first, last):
        entry = trace[index]
        if index in cuts and index > first:
            head = schedule.pop()
            entry = intern_slice(head.tid, head.quantum + entry.quantum)
        schedule.append(entry)
    return schedule


def log_regions(image: bytes, regions: Sequence[RegionSpec],
                seed: int = 0,
                argv: Optional[Sequence[str]] = None,
                fs: Optional[FileSystem] = None,
                fat: bool = True,
                aslr_seed: Optional[int] = None) -> Dict[str, Pinball]:
    """Capture any set of regions of one program in a single run.

    Each pinball is byte-identical to what :func:`log_region` records
    for that region alone (window ``[warmup_start, end)``), though the
    program runs once; windows may overlap, nest, touch, or repeat
    under several names.  The run fast-forwards to the first window
    start, then records one syscall list and schedule trace to the
    last window end, stopping at every window start and end (windows
    ending at a stop close before those starting there open).  A window
    snapshots the machine at its start and takes its slice of both.

    Merge rule: a budget stop inside a slice trims the recorded entry
    to what ran and parks the remainder (:meth:`Scheduler.note_partial`)
    for the next pick, which records it as a second entry.  Budget
    stops are otherwise schedule-transparent (same RNG draws,
    interleaving and signal delivery), so joining the two entries of
    every slice cut strictly inside a window gives the schedule of a
    run that never stopped there.  Cuts at the window's own start or
    end stay: a standalone capture stops there too.

    A window still open at program exit is emitted with what it
    recorded, as :func:`log_region` would; windows starting beyond exit
    are skipped.  Only fat pinballs are supported (no per-region page
    touch tracking).
    """
    if not fat:
        raise ValueError("log_regions only produces fat pinballs")
    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, argv=argv, aslr_seed=aslr_seed)
    scheduler = machine.scheduler
    recorder = _RecordingTool(lazy=False)
    stops = sorted({r.warmup_start for r in regions}
                   | {r.end for r in regions})
    #: open window -> (start state, first trace index, first syscall)
    open_windows: Dict[RegionSpec, Tuple[_WindowStart, int, int]] = {}
    cuts: Set[int] = set()
    out: Dict[str, Pinball] = {}

    def close(region: RegionSpec) -> None:
        start, first_slice, first_call = open_windows.pop(region)
        out[region.name] = start.pinball(
            machine, region.name, region,
            syscalls=recorder.syscalls[first_call:],
            schedule=_window_schedule(scheduler.trace, cuts, first_slice,
                                      len(scheduler.trace)),
            fat=True, whole_image=True, pages_early=True)

    obs = hooks.OBS
    for stop in stops:
        if machine.executed_total < stop:
            if scheduler.record:
                span = obs.span("logger.record", "pinplay",
                                regions=[r.name for r in open_windows])
            else:
                span = obs.span("logger.fast_forward", "pinplay")
            with span:
                status = machine.run(max_instructions=stop)
            if status.kind != "stopped":
                break
        if scheduler.mid_slice:
            cuts.add(len(scheduler.trace))
        for region in [r for r in open_windows if r.end == stop]:
            close(region)
        if not scheduler.record:
            machine.attach(recorder)
            scheduler.record = True
        for region in regions:
            if region.warmup_start == stop:
                open_windows[region] = (_WindowStart(machine),
                                        len(scheduler.trace),
                                        len(recorder.syscalls))
    for region in list(open_windows):
        close(region)
    return {region.name: out[region.name] for region in regions
            if region.name in out}


def log_region(image: bytes, region: RegionSpec,
               options: Optional[LogOptions] = None,
               seed: int = 0,
               argv: Optional[Sequence[str]] = None,
               fs: Optional[FileSystem] = None,
               aslr_seed: Optional[int] = None) -> Pinball:
    """Run *image* and capture *region* (warmup included) as a pinball.

    The captured window is ``[region.warmup_start, region.end)`` so that
    replay and ELFie runs can execute the warmup before the measured
    region, as PinPoints does.  Raises ``ValueError`` if the program
    exits before the window starts.
    """
    options = options or LogOptions()
    whole_image, pages_early = options.resolved()

    machine = Machine(seed=seed, fs=fs)
    load_elf(machine, image, argv=argv, aslr_seed=aslr_seed)

    window_start = region.warmup_start
    obs = hooks.OBS

    # Fast-forward (uninstrumented) to the window start.
    if window_start:
        with obs.span("logger.fast_forward", "pinplay", region=region.name):
            status = machine.run(max_instructions=window_start)
        if status.kind != "stopped":
            raise ValueError(
                "program ended (%s) before region start at %d instructions"
                % (status.kind, window_start)
            )

    # Snapshot state at window start, then record during the window.
    start = _WindowStart(machine)
    recorder = _RecordingTool(lazy=not pages_early)
    machine.attach(recorder)
    machine.scheduler.record = True
    machine.scheduler.trace = []
    if not whole_image:
        machine.mem.touch_hook = (
            lambda page, is_write: recorder.touched_pages.add(page)
        )
    with obs.span("logger.record", "pinplay", region=region.name):
        machine.run(max_instructions=region.end)
    machine.scheduler.record = False
    machine.mem.touch_hook = None
    machine.detach(recorder)

    return start.pinball(
        machine, options.name, region,
        syscalls=recorder.syscalls,
        schedule=list(machine.scheduler.trace),
        touched=None if whole_image else recorder.touched_pages,
        fat=whole_image and pages_early,
        whole_image=whole_image,
        pages_early=pages_early,
    )
