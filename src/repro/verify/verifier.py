"""The differential fidelity verifier.

``verify_pinball`` runs the *original workload* (fast-forwarded to the
region and then driven by the recorded schedule — the deterministic
reference execution) and the *constrained replay* of its pinball in
digest-checkpointed epochs.  At every epoch boundary both machines'
architectural-state and memory digests must agree; the first
disagreement is auto-bisected — with fresh cursor pairs per probe, so
every probe replays from the reconstructed start state — down to the
first divergent instruction, and reported with a side-by-side
register/memory diff.

``verify_elfie_entry`` checks the other conversion boundary: that ELFie
startup code hands control to application code with exactly the
captured per-thread architectural state (GPRs, RFLAGS, FS/GS bases,
XSAVE area) and, for single-threaded regions, the captured memory image
intact.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.machine.loader import load_elf
from repro.machine.machine import ExitStatus, Machine
from repro.machine.memory import PAGE_SHIFT
from repro.machine.tool import Tool
from repro.machine.vfs import FileSystem
from repro.observe import hooks
from repro.pinplay.pinball import Pinball
from repro.pinplay.replayer import DivergenceInfo, ReplaySession
from repro.snapshot import MachineSnapshot, capture, restore
from repro.verify.differ import side_by_side
from repro.verify.digest import DirtyPageTracker, EpochDigest, epoch_digest

MASK64 = (1 << 64) - 1

#: Default number of digest epochs per region.
DEFAULT_EPOCHS = 16

#: Ceiling for measuring a workload's natural length.
MEASURE_CAP = 2_000_000

#: Instructions an ELFie's startup may take to enter application code.
MAX_STARTUP = 1_000_000


def _fork_fs(fs: Optional[FileSystem]) -> Optional[FileSystem]:
    """Fresh filesystem per cursor: replays mutate offsets and files."""
    if fs is None:
        return None
    fresh = FileSystem()
    fresh.copy_from(fs)
    return fresh


def _region_tids(machine: Machine, pinball: Pinball) -> List[int]:
    """Thread ids comparable across the reference and the replay.

    Threads that died before the region started exist in the original
    machine but not in a pinball reconstruction; threads created inside
    the region get tids at or above the pinball's ``next_tid`` on both
    sides (the tid counter is part of the capture).
    """
    keep = {record.tid for record in pinball.threads}
    return [tid for tid in machine.threads
            if tid in keep or tid >= pinball.next_tid]


class StraightCursor:
    """An uninterrupted run of a workload, advanced in icount steps.

    Positions count from ``base``, the instructions retired before the
    cursor's icount 0 (none for a whole run).
    """

    label = "straight"
    base = 0

    def __init__(self, image: bytes, seed: int = 0,
                 fs: Optional[FileSystem] = None,
                 argv: Optional[Sequence[str]] = None,
                 budget: int = MEASURE_CAP,
                 aslr_seed: Optional[int] = None) -> None:
        self.machine = Machine(seed=seed, fs=fs)
        load_elf(self.machine, image, argv=argv, aslr_seed=aslr_seed)
        self.budget = budget
        self._start()
        self.tracker = DirtyPageTracker()
        self.machine.attach(self.tracker)

    def _start(self) -> None:
        """Bring the loaded machine to icount 0 (a whole run is there)."""

    @property
    def executed(self) -> int:
        return self.machine.executed_total - self.base

    def step(self, target: int) -> ExitStatus:
        return self.machine.run(
            max_instructions=self.base + min(target, self.budget))

    def digest(self, index: int) -> EpochDigest:
        return epoch_digest(self.machine, index, self.executed)

    def structured_divergence(self) -> Optional[DivergenceInfo]:
        return None

    def checkpoint(self) -> MachineSnapshot:
        """Whole-machine snapshot at the current (stopped) position."""
        return capture(self.machine, extra={
            "cursor": self.label, "base": self.base, "budget": self.budget})

    def resume_clone(self, snapshot: MachineSnapshot) -> "StraightCursor":
        """Fresh cursor continuing from a checkpoint() of this cursor."""
        cursor = copy.copy(self)
        cursor.tracker = DirtyPageTracker()
        cursor.machine = restore(snapshot, tools=[cursor.tracker])
        cursor.base = snapshot.extra["base"]
        cursor.budget = snapshot.extra["budget"]
        return cursor


class NativeCursor(StraightCursor):
    """The reference execution of a pinball's region.

    A straight run of the original workload to the region start
    (warmup included), with the recorded schedule then replayed over it
    — the machine is deterministic, so driving the original code with
    the realized slices reproduces the recorded execution exactly,
    giving the verifier a ground-truth cursor with no injection
    involved.  Digests compare the region's threads only.
    """

    label = "native"

    def __init__(self, image: bytes, pinball: Pinball, seed: int = 0,
                 fs: Optional[FileSystem] = None,
                 argv: Optional[Sequence[str]] = None,
                 aslr_seed: Optional[int] = None) -> None:
        self.pinball = pinball
        super().__init__(image, seed=seed, fs=fs, argv=argv,
                         budget=pinball.replay_budget, aslr_seed=aslr_seed)

    def _start(self) -> None:
        start = self.pinball.region.warmup_start
        if start:
            status = self.machine.run(max_instructions=start)
            if status.kind != "stopped":
                raise ValueError(
                    "workload ended (%s) before region start at %d"
                    % (status.kind, start))
        self.base = self.machine.executed_total
        self.machine.scheduler.replay(self.pinball.schedule)

    def digest(self, index: int) -> EpochDigest:
        return epoch_digest(self.machine, index, self.executed,
                            tids=_region_tids(self.machine, self.pinball))


class ReplayCursor:
    """The constrained replay, advanced in instruction-count steps."""

    label = "replay"

    def __init__(self, pinball: Pinball, seed: int = 0,
                 fs: Optional[FileSystem] = None) -> None:
        self.pinball = pinball
        self.session = ReplaySession(pinball, injection=True, seed=seed,
                                     fs=fs)
        self.machine = self.session.machine
        self.tracker = DirtyPageTracker()
        self.machine.attach(self.tracker)

    @property
    def executed(self) -> int:
        return self.session.executed

    def step(self, target: int) -> ExitStatus:
        return self.session.step(target)

    def digest(self, index: int) -> EpochDigest:
        return epoch_digest(self.machine, index, self.executed,
                            tids=_region_tids(self.machine, self.pinball))

    def structured_divergence(self) -> Optional[DivergenceInfo]:
        # A replay still inside its budget has not diverged (the tool
        # stops it, making it done, the moment it does).
        return self.session.divergence() if self.session.done else None

    def checkpoint(self) -> MachineSnapshot:
        """Whole-machine snapshot at the current (stopped) position."""
        return self.session.checkpoint(cursor=self.label)

    def resume_clone(self, snapshot: MachineSnapshot) -> "ReplayCursor":
        """Fresh cursor continuing from a checkpoint() of this cursor."""
        cursor = copy.copy(self)
        cursor.tracker = DirtyPageTracker()
        cursor.session = ReplaySession.resume(self.pinball, snapshot,
                                              tools=[cursor.tracker])
        cursor.machine = cursor.session.machine
        return cursor


@dataclass(frozen=True)
class EpochComparison:
    """One epoch boundary's digest pair."""

    index: int
    icount: int
    a: EpochDigest
    b: EpochDigest
    match: bool


@dataclass
class Divergence:
    """A localized fidelity divergence."""

    epoch: int                   # first mismatching epoch
    icount: int                  # first divergent instruction (1-based)
    tid: int                     # thread that retired it
    pc: int                      # its address
    diff: str                    # side-by-side state diff at icount
    dirty_pages: List[int] = field(default_factory=list)
    replay: Optional[DivergenceInfo] = None

    def __str__(self) -> str:
        head = ("divergence at epoch %d, instruction %d: tid %d, pc 0x%x"
                % (self.epoch, self.icount, self.tid, self.pc))
        if self.replay is not None:
            head += " [%s]" % self.replay
        return head


@dataclass
class FidelityReport:
    """Outcome of one differential verification."""

    name: str
    labels: Tuple[str, str]
    ok: bool
    region_icount: int
    epoch_length: int
    epochs: List[EpochComparison] = field(default_factory=list)
    first_bad_epoch: Optional[int] = None
    divergence: Optional[Divergence] = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "ok": self.ok,
            "region_icount": self.region_icount,
            "epoch_length": self.epoch_length,
            "epochs": [
                {"index": c.index, "icount": c.icount, "match": c.match,
                 "a": {"arch": c.a.arch, "mem": c.a.mem},
                 "b": {"arch": c.b.arch, "mem": c.b.mem}}
                for c in self.epochs
            ],
            "first_bad_epoch": self.first_bad_epoch,
            "divergence": None if self.divergence is None else {
                "epoch": self.divergence.epoch,
                "icount": self.divergence.icount,
                "tid": self.divergence.tid,
                "pc": self.divergence.pc,
                "diff": self.divergence.diff,
                "dirty_pages": self.divergence.dirty_pages,
                "replay": (str(self.divergence.replay)
                           if self.divergence.replay else None),
            },
        }

    def summary(self) -> str:
        if self.ok:
            return ("fidelity OK: %s, %d instructions, %d epochs clean"
                    % (self.name, self.region_icount, len(self.epochs)))
        return "fidelity FAIL: %s, %s" % (self.name, self.divergence)


MakePair = Callable[[], Tuple[object, object]]


def _probe(make_pair: MakePair, icount: int):
    """Fresh cursor pair advanced to *icount*; returns (equal, a, b)."""
    a, b = make_pair()
    if icount:
        a.step(icount)
        b.step(icount)
    equal = (a.executed == b.executed
             and a.digest(0).matches(b.digest(0)))
    return equal, a, b


def _bisect_icount(make_pair: MakePair, lo: int, hi: int) -> int:
    """Smallest icount in (lo, hi] whose states mismatch.

    Invariant: probe(lo) is equal, probe(hi) mismatches.  Each probe
    uses a fresh cursor pair, so probes are independent of each other
    and of the epoch sweep that established the bracket.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        equal, _, _ = _probe(make_pair, mid)
        if equal:
            lo = mid
        else:
            hi = mid
    return hi


def _advanced_thread(machine: Machine,
                     before: Dict[int, Tuple[int, int]]):
    """(tid, pc-before-step) of the thread that retired the last step."""
    for tid in sorted(machine.threads):
        thread = machine.threads[tid]
        prev = before.get(tid)
        if prev is None:
            return tid, thread.regs.rip & MASK64
        if thread.icount != prev[0]:
            return tid, prev[1]
    return None


def _localize(make_pair: MakePair, epoch: int, icount: int,
              labels: Tuple[str, str]) -> Divergence:
    """Pin the divergence at *icount* down to (tid, pc) plus a diff."""
    _, a, b = _probe(make_pair, icount - 1)
    before_a = {tid: (t.icount, t.regs.rip & MASK64)
                for tid, t in a.machine.threads.items()}
    before_b = {tid: (t.icount, t.regs.rip & MASK64)
                for tid, t in b.machine.threads.items()}
    a.tracker.take()
    b.tracker.take()
    a.step(icount)
    b.step(icount)
    culprit = (_advanced_thread(b.machine, before_b)
               or _advanced_thread(a.machine, before_a))
    if culprit is None:
        # Neither machine advanced: the divergence is a stall (e.g. the
        # replay stopped on a syscall check); report the replay's state.
        tid = min(b.machine.threads) if b.machine.threads else -1
        pc = (b.machine.threads[tid].regs.rip & MASK64) if tid >= 0 else 0
        culprit = (tid, pc)
    dirty = sorted(a.tracker.take() | b.tracker.take())
    diff = side_by_side(a.machine, b.machine, labels=labels)
    return Divergence(
        epoch=epoch, icount=icount, tid=culprit[0], pc=culprit[1],
        diff=diff, dirty_pages=dirty,
        replay=(b.structured_divergence() or a.structured_divergence()),
    )


def differential_verify(make_pair: MakePair, budget: int,
                        epochs: int = DEFAULT_EPOCHS,
                        bisect: bool = True,
                        labels: Tuple[str, str] = ("native", "replay"),
                        name: str = "") -> FidelityReport:
    """Run two cursors in digest-checkpointed lockstep.

    *make_pair* builds a fresh ``(a, b)`` cursor pair in their start
    states; the pair is advanced epoch by epoch, digests compared at
    every boundary (including icount 0, which checks the reconstruction
    itself).  On the first mismatch — digest or progress — the
    divergence is bisected to the exact instruction when *bisect* is
    set.

    When bisecting, the sweep keeps a whole-machine snapshot pair
    (``checkpoint()``) from the last good epoch and every bisection
    probe resumes from it (``resume_clone()``) instead of rebuilding
    cursors from the region start — probe cost becomes O(epoch) instead
    of O(region).
    """
    obs = hooks.OBS
    epoch_length = max(1, -(-budget // max(1, epochs)))
    a, b = make_pair()
    last_snapshots = None
    report = FidelityReport(name=name, labels=labels, ok=True,
                            region_icount=budget,
                            epoch_length=epoch_length)
    last_good = 0
    bad_at: Optional[int] = None
    index = 0
    while True:
        target = min(budget, index * epoch_length)
        if target:
            a.step(target)
            b.step(target)
        da = a.digest(index)
        db = b.digest(index)
        match = da.matches(db) and a.executed == b.executed
        report.epochs.append(EpochComparison(
            index=index, icount=target, a=da, b=db, match=match))
        if not match:
            report.ok = False
            report.first_bad_epoch = index
            if a.executed != b.executed:
                bad_at = min(a.executed, b.executed) + 1
            else:
                bad_at = target
            break
        last_good = a.executed
        if target >= budget or a.executed < target:
            # Region complete — or both cursors stalled identically
            # (early region exit), which digest equality already vouches
            # for.
            break
        if bisect:
            try:
                last_snapshots = (a.checkpoint(), b.checkpoint())
            except ValueError:
                last_snapshots = None  # not at a resumable boundary
        index += 1
    if report.ok:
        # Digests agree everywhere; still surface a structured replay
        # complaint (e.g. a trailing per-thread icount mismatch).
        info = b.structured_divergence() or a.structured_divergence()
        if info is not None:
            report.ok = False
            report.first_bad_epoch = report.epochs[-1].index
            report.divergence = Divergence(
                epoch=report.epochs[-1].index, icount=b.executed,
                tid=info.tid, pc=info.pc, diff="", replay=info)
    elif bisect:
        probe_pair = make_pair
        if last_snapshots is not None:
            snap_a, snap_b = last_snapshots

            def probe_pair():
                return (a.resume_clone(snap_a), b.resume_clone(snap_b))

        first_bad = _bisect_icount(probe_pair, last_good, bad_at)
        report.divergence = _localize(probe_pair, report.first_bad_epoch,
                                      first_bad, labels)
    else:
        info = b.structured_divergence() or a.structured_divergence()
        report.divergence = Divergence(
            epoch=report.first_bad_epoch, icount=bad_at,
            tid=info.tid if info else -1, pc=info.pc if info else 0,
            diff="", replay=info)
    if obs.enabled:
        obs.count("verify.runs")
        if not report.ok:
            obs.count("verify.divergences")
            div = report.divergence
            bad = report.epochs[-1]
            obs.instant(
                "verify.divergence", "verify", report=name,
                epoch=report.first_bad_epoch,
                icount=div.icount if div else -1,
                tid=div.tid if div else -1,
                pc=div.pc if div else 0,
                kind=(div.replay.kind if div and div.replay else "digest"),
                digest_a=bad.a.key, digest_b=bad.b.key)
    return report


def verify_pinball(image: bytes, pinball: Pinball, seed: int = 0,
                   fs: Optional[FileSystem] = None,
                   argv: Optional[Sequence[str]] = None,
                   epochs: int = DEFAULT_EPOCHS,
                   bisect: bool = True,
                   aslr_seed: Optional[int] = None) -> FidelityReport:
    """Differentially verify a pinball against its source workload.

    *aslr_seed* must match the seed the pinball was logged with: the
    native reference re-loads the image, and a different base would
    diverge from the captured (absolute-address) pages immediately.
    """

    def make_pair():
        return (
            NativeCursor(image, pinball, seed=seed, fs=_fork_fs(fs),
                         argv=argv, aslr_seed=aslr_seed),
            ReplayCursor(pinball, seed=seed, fs=_fork_fs(fs)),
        )

    with hooks.OBS.span("verify.pinball", "verify", pinball=pinball.name):
        return differential_verify(
            make_pair, pinball.replay_budget, epochs=epochs, bisect=bisect,
            labels=("native", "replay"), name=pinball.name)


# -- ELFie entry-state verification ---------------------------------------


class _EntryCapture(Tool):
    """Snapshots each thread's registers as it enters application code.

    State is captured inside the pre-execution instruction hook:
    ``request_stop`` only takes effect at the next scheduling boundary,
    so by the time ``machine.run`` returns the application has already
    executed a handful of instructions (which may e.g. ``munmap`` a
    captured page).  The memory comparison therefore happens here too.
    """

    wants_instructions = True

    def __init__(self, entry_rips: Dict[int, int],
                 pages: Optional[Dict[int, Tuple[int, bytes]]] = None) -> None:
        self.entry_rips = entry_rips
        self.captured: Dict[int, object] = {}
        #: Captured pages to compare once every thread has entered.
        self.pages = pages
        self.bad_pages: Optional[List[int]] = None

    def _check_pages(self, machine) -> None:
        bad: List[int] = []
        for addr in sorted(self.pages or {}):
            page = addr >> PAGE_SHIFT
            if not machine.mem.is_mapped(addr):
                bad.append(page)
            elif machine.mem.page_bytes(page) != self.pages[addr][1]:
                bad.append(page)
        self.bad_pages = bad

    def on_instruction(self, machine, thread, pc, insn) -> None:
        if thread.tid in self.captured:
            return
        if pc == self.entry_rips.get(thread.tid):
            self.captured[thread.tid] = thread.regs.copy()
            if len(self.captured) == len(self.entry_rips):
                if self.pages is not None:
                    self._check_pages(machine)
                machine.request_stop("all threads entered application code")


@dataclass
class ElfieEntryReport:
    """Did ELFie startup reproduce the captured entry state?"""

    name: str
    ok: bool
    entered: Dict[int, bool] = field(default_factory=dict)
    #: tid -> list of "reg expected/got" mismatch strings.
    register_mismatches: Dict[int, List[str]] = field(default_factory=dict)
    #: Captured pages whose contents differ at entry (ST regions only).
    memory_checked: bool = False
    bad_pages: List[int] = field(default_factory=list)
    detail: str = ""

    def summary(self) -> str:
        if self.ok:
            return "elfie entry OK: %s" % self.name
        return "elfie entry FAIL: %s (%s)" % (self.name, self.detail)


def _compare_entry_regs(expected, got) -> List[str]:
    from repro.isa.registers import GPR_NAMES
    rows = []
    for idx, reg_name in enumerate(GPR_NAMES):
        if (expected.gpr[idx] & MASK64) != (got.gpr[idx] & MASK64):
            rows.append("%s expected %016x got %016x"
                        % (reg_name, expected.gpr[idx] & MASK64,
                           got.gpr[idx] & MASK64))
    if expected.flags.to_word() != got.flags.to_word():
        rows.append("rflags expected %016x got %016x"
                    % (expected.flags.to_word(), got.flags.to_word()))
    if (expected.fs_base & MASK64) != (got.fs_base & MASK64):
        rows.append("fs_base expected %016x got %016x"
                    % (expected.fs_base & MASK64, got.fs_base & MASK64))
    if (expected.gs_base & MASK64) != (got.gs_base & MASK64):
        rows.append("gs_base expected %016x got %016x"
                    % (expected.gs_base & MASK64, got.gs_base & MASK64))
    if expected.xsave_bytes() != got.xsave_bytes():
        rows.append("xsave area differs (xmm/mxcsr)")
    return rows


def verify_elfie_entry(elfie_image: bytes, pinball: Pinball,
                       seed: int = 0, fs: Optional[FileSystem] = None,
                       workdir: str = "/") -> ElfieEntryReport:
    """Run an ELFie's startup and check the application entry state.

    Every captured thread must reach its captured RIP with its captured
    GPRs, RFLAGS, FS/GS bases, and XSAVE area.  For single-threaded
    regions the captured page contents are compared too (in
    multi-threaded ELFies the first-entering thread legitimately
    mutates memory while later threads are still in startup).
    """
    from repro.core.elfie import prepare_elfie_machine

    report = ElfieEntryReport(name=pinball.name, ok=True)
    machine, _loaded = prepare_elfie_machine(elfie_image, seed=seed, fs=fs,
                                             workdir=workdir)
    # ELFie thread tids are assigned in clone order, which follows the
    # pinball's tid-sorted thread order: elfie tid i <-> sorted record i.
    records = sorted(pinball.threads, key=lambda r: r.tid)
    entry_rips = {position: record.regs.rip & MASK64
                  for position, record in enumerate(records)}
    single_threaded = len(records) == 1
    capture = _EntryCapture(
        entry_rips, pages=pinball.pages if single_threaded else None)
    machine.attach(capture)
    machine.run(max_instructions=MAX_STARTUP)
    machine.detach(capture)

    details: List[str] = []
    for position, record in enumerate(records):
        entered = position in capture.captured
        report.entered[record.tid] = entered
        if not entered:
            report.ok = False
            details.append("tid %d never reached entry rip 0x%x"
                           % (record.tid, record.regs.rip & MASK64))
            continue
        rows = _compare_entry_regs(record.regs, capture.captured[position])
        if rows:
            report.ok = False
            report.register_mismatches[record.tid] = rows
            details.append("tid %d: %s" % (record.tid, "; ".join(rows)))
    if capture.bad_pages is not None:
        report.memory_checked = True
        report.bad_pages = capture.bad_pages
        if report.bad_pages:
            report.ok = False
            details.append("%d captured pages differ at entry (first 0x%x)"
                           % (len(report.bad_pages),
                              report.bad_pages[0] << PAGE_SHIFT))
    report.detail = "; ".join(details)
    obs = hooks.OBS
    if obs.enabled:
        obs.count("verify.elfie_entries")
        if not report.ok:
            obs.count("verify.elfie_entry_failures")
            obs.instant("verify.elfie_entry_failure", "verify",
                        name=pinball.name, detail=report.detail)
    return report
