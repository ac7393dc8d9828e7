"""Suspend/resume lockstep assurance.

The snapshot subsystem's correctness claim is the same shape as the
ELFie's: a run that is suspended, serialized, and resumed must be
*bit-identical* to one that never stopped.  This module checks that
claim with the differential verifier's epoch machinery: a *straight*
cursor runs the workload uninterrupted while a *resumed* cursor runs
the same workload but — at one or more pseudo-randomly chosen (yet
deterministic) instruction counts — suspends itself, round-trips the
machine through the canonical snapshot encoding, restores onto a brand
new machine, and continues.  Per-epoch sha256 digests of architectural
state and memory must agree at every boundary; any mismatch is
localized by the verifier's bisection (which itself time-travels from
the last good epoch's snapshots).

``run_lockstep_case`` applies the check to a fuzzer-generated workload
(including the multithreaded futex cases) and ``lockstep_corpus`` sweeps
the pinned regression corpus — the CI job's suspend/resume gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.machine.loader import load_elf
from repro.machine.machine import ExitStatus, Machine
from repro.machine.vfs import FileSystem
from repro.snapshot.state import MachineSnapshot, capture, restore
from repro.verify.corpus import CorpusCase, corpus_paths, load_corpus_case
from repro.verify.digest import DirtyPageTracker
from repro.verify.fuzz import FuzzCase, build_case, generate_case
from repro.verify.verifier import (
    DEFAULT_EPOCHS,
    MEASURE_CAP,
    FidelityReport,
    StraightCursor,
    _fork_fs,
    differential_verify,
)


class ResumedCursor(StraightCursor):
    """Same run, but suspended/serialized/restored at each hop icount.

    Every hop round-trips the machine through the canonical snapshot
    bytes (``state_bytes`` + copied pages), so what continues is what a
    store artifact — or a migrated worker — would have restored, not a
    shared-object shortcut.
    """

    label = "resumed"

    def __init__(self, image: bytes, seed: int = 0,
                 fs: Optional[FileSystem] = None,
                 argv: Optional[Sequence[str]] = None,
                 budget: int = MEASURE_CAP,
                 hops: Sequence[int] = ()) -> None:
        super().__init__(image, seed=seed, fs=fs, argv=argv, budget=budget)
        self._hops: List[int] = sorted(set(hops))
        self.hops_done = 0

    def _hop(self) -> None:
        snapshot = capture(self.machine)
        # Serialize round-trip: the restored machine is built from the
        # canonical encoding, exactly as a resumed farm job would be.
        wire = MachineSnapshot.from_state_bytes(
            {addr: (prot, bytes(data))
             for addr, (prot, data) in snapshot.pages.items()},
            snapshot.state_bytes())
        self.tracker = DirtyPageTracker()
        self.machine = restore(wire, tools=[self.tracker])
        self.hops_done += 1

    def step(self, target: int) -> ExitStatus:
        limit = min(target, self.budget)
        while self._hops and self._hops[0] <= limit:
            hop_at = self._hops.pop(0)
            if hop_at > self.executed:
                status = self.machine.run(max_instructions=hop_at)
                if status.kind != "stopped":
                    # Workload ended before the hop point; nothing left
                    # to suspend.
                    self._hops.clear()
                    return status
            self._hop()
        return self.machine.run(max_instructions=limit)

    def resume_clone(self, snapshot: MachineSnapshot) -> "ResumedCursor":
        cursor = super().resume_clone(snapshot)
        cursor._hops = []  # a probe from a snapshot runs straight on
        return cursor


def measure_budget(image: bytes, seed: int = 0,
                   fs: Optional[FileSystem] = None,
                   argv: Optional[Sequence[str]] = None,
                   cap: int = MEASURE_CAP) -> int:
    """Natural instruction count of the workload (capped at *cap*)."""
    machine = Machine(seed=seed, fs=_fork_fs(fs))
    load_elf(machine, image, argv=argv)
    machine.run(max_instructions=cap)
    return machine.executed_total


def pick_hops(budget: int, hops: int, hop_seed: int) -> List[int]:
    """Deterministic pseudo-random suspend points inside (0, budget)."""
    if budget <= 2 or hops <= 0:
        return []
    rng = random.Random(0x5AFE ^ hop_seed)
    return sorted(rng.sample(range(1, budget), min(hops, budget - 2)))


def verify_snapshot_lockstep(image: bytes, seed: int = 0,
                             fs: Optional[FileSystem] = None,
                             argv: Optional[Sequence[str]] = None,
                             budget: Optional[int] = None,
                             epochs: int = DEFAULT_EPOCHS,
                             hops: int = 2, hop_seed: int = 0,
                             bisect: bool = True,
                             name: str = "lockstep") -> FidelityReport:
    """Straight vs. suspend/resume differential check on one workload."""
    if budget is None:
        budget = measure_budget(image, seed=seed, fs=fs, argv=argv)
    hop_points = pick_hops(budget, hops, hop_seed)

    def make_pair():
        return (
            StraightCursor(image, seed=seed, fs=_fork_fs(fs), argv=argv,
                           budget=budget),
            ResumedCursor(image, seed=seed, fs=_fork_fs(fs), argv=argv,
                          budget=budget, hops=hop_points),
        )

    return differential_verify(
        make_pair, budget, epochs=epochs, bisect=bisect,
        labels=("straight", "resumed"), name=name)


@dataclass
class LockstepOutcome:
    """One workload's suspend/resume verdict."""

    name: str
    ok: bool
    detail: str = ""
    report: Optional[FidelityReport] = None

    def summary(self) -> str:
        if self.ok:
            return "lockstep OK: %s" % self.name
        return "lockstep FAIL: %s (%s)" % (self.name, self.detail)


def run_lockstep_case(case: FuzzCase, seed: int = 0, epochs: int = DEFAULT_EPOCHS,
                      hops: int = 2, hop_seed: int = 0) -> LockstepOutcome:
    """Suspend/resume-check one fuzzer workload end to end."""
    try:
        image, fs = build_case(case)
    except Exception as exc:
        return LockstepOutcome(name=case.name, ok=True,
                               detail="ungeneratable: %s" % exc)
    report = verify_snapshot_lockstep(
        image, seed=seed, fs=fs, epochs=epochs, hops=hops,
        hop_seed=hop_seed ^ case.seed, name=case.name)
    detail = "" if report.ok else str(report.divergence)
    return LockstepOutcome(name=case.name, ok=report.ok, detail=detail,
                           report=report)


def mt_cases(count: int = 2, start_seed: int = 0) -> List[FuzzCase]:
    """The first *count* generated cases with 2+ threads (futex MT)."""
    found: List[FuzzCase] = []
    case_seed = start_seed
    while len(found) < count:
        case = generate_case(case_seed)
        case_seed += 1
        if case.threads >= 2:
            found.append(case)
    return found


@dataclass
class LockstepSweep:
    """Aggregate of a corpus + MT-case lockstep run."""

    outcomes: List[Tuple[str, LockstepOutcome]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for _, outcome in self.outcomes)

    @property
    def failures(self) -> List[Tuple[str, LockstepOutcome]]:
        return [(name, outcome) for name, outcome in self.outcomes
                if not outcome.ok]


def lockstep_corpus(directory: str, seed: int = 0, hops: int = 2,
                    hop_seed: int = 0, mt_count: int = 2,
                    epochs: int = DEFAULT_EPOCHS) -> LockstepSweep:
    """Suspend/resume-check every corpus seed plus *mt_count* MT cases."""
    sweep = LockstepSweep()
    for path in corpus_paths(directory):
        entry: CorpusCase = load_corpus_case(path)
        outcome = run_lockstep_case(entry.case, seed=seed, epochs=epochs,
                                    hops=hops, hop_seed=hop_seed)
        sweep.outcomes.append((entry.name, outcome))
    for case in mt_cases(count=mt_count):
        outcome = run_lockstep_case(case, seed=seed, epochs=epochs,
                                    hops=hops, hop_seed=hop_seed)
        sweep.outcomes.append((case.name, outcome))
    return sweep
