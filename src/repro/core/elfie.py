"""ELFie run harness: load and execute ELFies natively (§II-C).

An ELFie is just a program binary — running one means loading it with
the system ELF loader into a fresh machine and letting it free-run.
The harness adds the conveniences the paper's workflows need:

- a sysstate working directory (chroot-style root) so the region's
  file system calls find their proxy files,
- per-thread *application* instruction counts, measured from each
  thread's ROI entry (the point where startup code jumps into captured
  code, identified by the thread's ROI marker or, without one, by its
  jump to a captured ``.tN.start`` address),
- capture of the perfle counter output on stderr, and for simulators a
  fast-forward over startup to the ROI marker (:func:`simulate_roi`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.isa.encoding import InstructionDecodeError, decode
from repro.isa.instructions import Op, instruction_size
from repro.machine.cpu import OP_COST
from repro.machine.loader import LoadedImage, LoaderError, load_elf
from repro.machine.machine import ExitStatus, Machine
from repro.machine.memory import PageFault
from repro.machine.scheduler import Scheduler
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks


class _RoiWatcher(Tool):
    """Records each thread's icount when it enters application code.

    Entry is the thread's ROI marker or, in an ELFie built without one,
    its first block entry at a captured ``.tN.start`` address (the
    target of the startup's final jump).  Neither hook needs
    per-instruction callbacks, so the run stays on the fast path.  The
    block hook is attached only when *roi_rips* is non-empty.  It keeps
    the first entry only, and a thread's first entry at its
    ``.tN.start`` is the startup's jump from another page, which the
    dispatch header always reports, so compiled loops keep spinning
    under it and their exits need no hook (``accepts_loop_exits``).
    """

    wants_instructions = False
    wants_markers = True
    accepts_loop_exits = True

    def __init__(self, roi_rips: Iterable[int]) -> None:
        self.roi_rips = set(roi_rips)
        self.wants_blocks = bool(self.roi_rips)
        self.entry_icount: Dict[int, int] = {}

    def on_marker(self, machine, thread) -> None:
        self.entry_icount.setdefault(thread.tid, thread.icount - 1)

    def on_basic_block(self, machine, thread, pc) -> None:
        if pc in self.roi_rips:
            self.entry_icount.setdefault(thread.tid, thread.icount)


def _startup_has_marker(machine: Machine, loaded: LoadedImage) -> bool:
    """True when the ELFie's startup retires a ROI marker before it
    jumps into captured code (``pinball2elf --roi-start``).

    Decodes the first thread's straight-line init code up to that
    jump; every thread's init tail carries the same marker or none.
    """
    pc = loaded.symbols.get("__elfie_thread_init_0")
    while pc is not None:
        try:
            insn, size = decode(machine.mem.fetch(pc))
        except (InstructionDecodeError, PageFault):
            return False
        if insn.op == Op.MARKER:
            return True
        if insn.op == Op.JMPABS:
            return False
        pc += size
    return False


class _MarkerStop(Tool):
    """Stops right after the first MARKER retires; notes its tid and pc."""

    wants_instructions = False
    wants_markers = True

    def __init__(self) -> None:
        self.before: Optional[Tuple[int, int]] = None
        self.tid: Optional[int] = None
        self.pc = 0

    def on_marker(self, machine, thread) -> None:
        if self.before is None:
            self.before = (machine.total_icount() - 1,
                           machine.total_cycles() - OP_COST[Op.MARKER])
            self.tid = thread.tid
            self.pc = thread.regs.rip - instruction_size(Op.MARKER)
            machine.request_stop("ROI marker")


def run_to_marker(machine: Machine, max_instructions: int
                  ) -> Tuple[Optional[Tuple[int, int]], ExitStatus]:
    """Run *machine* until the first MARKER retires on any thread.

    The ROI marker sits where ELFie startup hands over to captured
    code, so this runs the startup on the fast path and stops right
    after the marker.  Returns ``(before, status)``: *before* holds the
    machine-wide ``(instructions, cycles)`` just before the marker
    retired, or is None when the run ended first (exit, death, or the
    *max_instructions* budget), as *status* reports.
    """
    stop = _MarkerStop()
    machine.attach(stop)
    status = machine.run(max_instructions=max_instructions)
    machine.detach(stop)
    return stop.before, status


@dataclass
class ElfieRun:
    """Result of one ELFie execution."""

    machine: Machine
    status: ExitStatus
    loaded: Optional[LoadedImage]
    #: tid -> instructions retired after entering application code.
    app_icounts: Dict[int, int] = field(default_factory=dict)
    #: tid -> icount at ROI entry (startup instructions).
    startup_icounts: Dict[int, int] = field(default_factory=dict)
    stderr: bytes = b""
    stdout: bytes = b""
    loader_error: Optional[str] = None

    @property
    def graceful(self) -> bool:
        return self.status.kind == "exit"

    def perfle_counters(self) -> List[int]:
        """Counter values printed by the perfle exit handler."""
        values = []
        for line in self.stderr.decode("ascii", "replace").splitlines():
            line = line.strip()
            if line.isdigit():
                values.append(int(line))
        return values


def prepare_elfie_machine(image: bytes, seed: int = 0,
                          fs: Optional[FileSystem] = None,
                          workdir: str = "/",
                          stack_seed: Optional[int] = None,
                          ) -> Tuple[Machine, LoadedImage]:
    """Load an ELFie into a fresh machine without running it.

    Simulators use this to take over execution themselves.  Raises
    :class:`LoaderError` (e.g. :class:`StackCollisionError`) like the
    system loader would.
    """
    machine = Machine(seed=seed, fs=fs, root=workdir)
    loaded = load_elf(machine, image, argv=["elfie"], stack_seed=stack_seed)
    return machine, loaded


def simulate_roi(image: bytes, tool: Tool, max_instructions: int,
                 seed: int = 0, fs: Optional[FileSystem] = None,
                 workdir: str = "/", scheduler: Optional[Scheduler] = None,
                 on_enter: Optional[Callable[[int, int], None]] = None
                 ) -> Tuple[ExitStatus, bool]:
    """Load an ELFie, skip its startup, and run *tool* over the ROI.

    Simulators skip startup via the ROI marker (§III-C): it runs to the
    first MARKER with no tool attached, so compiled, and *tool* attaches
    right after the marker retires, with ``on_enter(tid, pc)`` of the
    marker called just before.  The whole run shares one absolute
    *max_instructions* cap.  Returns the final status and whether the
    ROI was reached.
    """
    machine, _ = prepare_elfie_machine(image, seed=seed, fs=fs,
                                       workdir=workdir)
    if scheduler is not None:
        machine.scheduler = scheduler
    stop = _MarkerStop()
    with hooks.OBS.span("elfie.fast_forward", "elfie") as span:
        machine.attach(stop)
        status = machine.run(max_instructions=max_instructions)
        machine.detach(stop)
        if stop.tid is None:
            return status, False
        span.set(instructions=machine.total_icount(), tid=stop.tid,
                 pc=stop.pc)
    if on_enter is not None:
        on_enter(stop.tid, stop.pc)
    machine.attach(tool)
    status = machine.run(max_instructions=max_instructions)
    machine.detach(tool)
    return status, True


def run_elfie(image: bytes, seed: int = 0,
              fs: Optional[FileSystem] = None,
              workdir: str = "/",
              max_instructions: Optional[int] = None,
              stack_seed: Optional[int] = None,
              track_roi: bool = True) -> ElfieRun:
    """Execute an ELFie natively and report what happened.

    A loader failure (stack collision) is reported as a run whose
    ``loader_error`` is set and whose status is a SIGKILL-style signal —
    the process died before any ELFie code executed (paper Fig. 4).
    """
    try:
        machine, loaded = prepare_elfie_machine(
            image, seed=seed, fs=fs, workdir=workdir, stack_seed=stack_seed)
    except LoaderError as exc:
        dead = Machine(seed=seed)
        return ElfieRun(
            machine=dead,
            status=ExitStatus(kind="signal", signal=9,
                              detail="killed during load: %s" % exc),
            loaded=None,
            loader_error=str(exc),
        )

    watcher: Optional[_RoiWatcher] = None
    if track_roi:
        watcher = _RoiWatcher(
            () if _startup_has_marker(machine, loaded) else (
                value for name, value in loaded.symbols.items()
                if name.startswith(".t") and name.endswith(".start")))
        machine.attach(watcher)

    status = machine.run(max_instructions=max_instructions)

    app_icounts: Dict[int, int] = {}
    startup_icounts: Dict[int, int] = {}
    if watcher is not None:
        machine.detach(watcher)
        for tid, entry in watcher.entry_icount.items():
            thread = machine.threads[tid]
            startup_icounts[tid] = entry
            app_icounts[tid] = thread.icount - entry
    return ElfieRun(
        machine=machine,
        status=status,
        loaded=loaded,
        app_icounts=app_icounts,
        startup_icounts=startup_icounts,
        stderr=machine.stderr(),
        stdout=machine.stdout(),
    )
