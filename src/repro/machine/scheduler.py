"""Preemptive round-robin thread scheduler with seeded quantum jitter.

The scheduler's random seed is the platform's source of run-to-run
variation: two native runs (or two ELFie runs) with different seeds can
interleave threads differently, which is exactly the non-determinism the
paper attributes to ELFies.  The PinPlay logger records the realized
schedule as a sequence of :class:`ScheduleSlice` records, and the
replayer feeds them back through :class:`Scheduler.replay` to get
constrained (deterministic) replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class ScheduleSlice:
    """One scheduling decision: run thread *tid* for *quantum* instructions.

    Build slices with :func:`intern_slice`, which hands out one shared
    object per ``(tid, quantum)``; equality is by value, and identity
    carries no meaning.
    """

    tid: int
    quantum: int

    def __reduce__(self):
        # A plain constructor call, so pickle memoizes each interned
        # slice once and a schedule ships as a few objects plus memo
        # references (the dataclass default goes through per-entry
        # __getstate__/__setstate__).
        return (ScheduleSlice, (self.tid, self.quantum))


#: The shared slice per ``(tid, quantum)``.  A run needs a few dozen
#: (every pick, remainder and joined cut is at most the largest
#: jittered quantum); past the cap, as a decoded hostile schedule could
#: push it, new pairs get unshared slices.
_INTERNED: Dict[Tuple[int, int], ScheduleSlice] = {}
_INTERN_CAP = 1 << 16


def intern_slice(tid: int, quantum: int) -> ScheduleSlice:
    """The shared :class:`ScheduleSlice` for ``(tid, quantum)``."""
    key = (tid, quantum)
    entry = _INTERNED.get(key)
    if entry is None:
        entry = ScheduleSlice(tid, quantum)
        if len(_INTERNED) < _INTERN_CAP:
            _INTERNED[key] = entry
    return entry


def intern_slices(entries: Iterable[Sequence[int]]) -> List[ScheduleSlice]:
    """The shared slices of ``[tid, quantum]`` *entries*, in order.

    A decoded schedule repeats a few dozen pairs thousands of times, so
    each entry is one probe of the shared table; :func:`intern_slice`
    runs only for a pair not shared yet.
    """
    shared = _INTERNED.get
    return [shared((tid, quantum)) or intern_slice(tid, quantum)
            for tid, quantum in entries]


class Scheduler:
    """Chooses which runnable thread executes next and for how long.

    In free-run mode, threads are rotated round-robin with a quantum
    jittered around ``base_quantum`` by a seeded RNG.  In replay mode, a
    recorded slice log is consumed instead, reproducing the captured
    interleaving exactly.
    """

    def __init__(self, seed: int = 0, base_quantum: int = 64,
                 jitter: float = 0.5) -> None:
        if base_quantum <= 0:
            raise ValueError("base_quantum must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.seed = seed
        self.base_quantum = base_quantum
        self.jitter = jitter
        self._rng = random.Random(seed)
        # randint(-s, s) == -s + _randbelow(2s + 1) draw-for-draw; going
        # straight to _randbelow skips randrange's argument plumbing on
        # the per-quantum hot path while consuming identical RNG state.
        self._randbelow = getattr(self._rng, "_randbelow", None)
        self._next_index = 0
        self._replay_log: Optional[List[ScheduleSlice]] = None
        self._replay_pos = 0
        self._replay_pending: Optional[ScheduleSlice] = None
        #: True while the parked remainder belongs to a still-runnable
        #: thread (a budget/stop cut, not a block).  The machine defers
        #: signal delivery while this is set so a budget-stepped run
        #: delivers at the same retire boundaries as a straight run.
        self._pending_resumable = False
        self.trace: List[ScheduleSlice] = []
        self.record = False
        #: Index in :attr:`trace` of the current pick (-1: not recorded).
        self._picked = -1

    def replay(self, log: Sequence[ScheduleSlice]) -> None:
        """Switch to replay mode, consuming *log* slice by slice."""
        self._replay_log = list(log)
        self._replay_pos = 0
        self._replay_pending = None
        self._pending_resumable = False

    @property
    def mid_slice(self) -> bool:
        """True when a cut slice's remainder from a still-runnable thread
        is parked (the logical quantum has not finished yet)."""
        return self._replay_pending is not None and self._pending_resumable

    @property
    def replaying(self) -> bool:
        return self._replay_log is not None

    def pick(self, runnable_tids: Iterable[int]) -> ScheduleSlice:
        """Choose the next thread and quantum from *runnable_tids*.

        Raises ``RuntimeError`` if no thread is runnable (caller must
        detect deadlock) or if a replay log names a non-runnable thread.
        """
        tids = sorted(runnable_tids)
        if not tids:
            raise RuntimeError("no runnable threads (deadlock)")
        entry = self._replay_pending
        if entry is not None:
            # Remainder of a slice that was interrupted early (an epoch
            # boundary or snapshot point clamped the quantum): finish it
            # before drawing the next decision, so a stepped or
            # suspended/resumed run sees the same interleaving as an
            # uninterrupted one.  If the thread blocked or exited at the
            # interruption point, the trim semantics drop the rest.
            self._replay_pending = None
            self._pending_resumable = False
            if entry.tid not in tids:
                entry = None
        log = self._replay_log
        if entry is None and log is not None and self._replay_pos < len(log):
            # (An exhausted log falls through to free-run, used by
            # injection-less replay past the recorded region.)
            entry = log[self._replay_pos]
            self._replay_pos += 1
            if entry.tid not in tids:
                raise RuntimeError(
                    "replay schedule names thread %d which is not runnable"
                    % entry.tid
                )
        if entry is None:
            entry = self.choose(tids)
        if self.record:
            self._picked = len(self.trace)
            self.trace.append(entry)
        else:
            self._picked = -1
        return entry

    def extend(self, tids: Sequence[int], need: int, room: int
               ) -> Tuple[ScheduleSlice, int, int, int]:
        """Pick the next slices among the sorted runnable *tids* until
        they allot at least *need* instructions, each allotment clamped
        to what is left of *room*.

        Returns ``(last slice, allotted, last allotment, picks)``.  The
        picks, their RNG draws and their trace entries are those of as
        many :meth:`pick` calls over *tids*: the round-robin rotation
        and the jittered quanta are drawn back to back, unless a parked
        remainder, a replay log, an overridden :meth:`choose` or an
        unjittered quantum needs :meth:`pick`.
        """
        spread = int(self.base_quantum * self.jitter)
        randbelow = self._randbelow
        batch = (self._replay_pending is None and self._replay_log is None
                 and type(self).choose is Scheduler.choose
                 and spread and randbelow is not None)
        low = self.base_quantum - spread
        width = 2 * spread + 1
        record = self.record
        trace = self.trace
        tid = self._next_index - 1
        allotted = picks = 0
        while allotted < need:
            if batch:
                # choose()'s rotation: the first tid past the last pick,
                # else wrap.
                for candidate in tids:
                    if candidate > tid:
                        tid = candidate
                        break
                else:
                    tid = tids[0]
                quantum = low + randbelow(width)
                if record:
                    trace.append(intern_slice(tid, quantum))
            else:
                entry = self.pick(tids)
                tid, quantum = entry.tid, entry.quantum
            last = room - allotted
            if quantum < last:
                last = quantum
            allotted += last
            picks += 1
        if batch:
            self._next_index = tid + 1
            self._picked = len(trace) - 1 if record else -1
        return intern_slice(tid, quantum), allotted, last, picks

    def choose(self, tids: List[int]) -> ScheduleSlice:
        """The free-run pick among the sorted *tids*: round-robin, with
        a jittered quantum.  Subclasses override this, not :meth:`pick`,
        which must first finish a parked slice remainder."""
        tid = tids[0]
        if len(tids) > 1 and tid < self._next_index:
            # The first tid at or past the rotation point, else wrap.
            tid = next((t for t in tids if t >= self._next_index), tid)
        self._next_index = tid + 1
        if self.jitter:
            spread = int(self.base_quantum * self.jitter)
            if spread and self._randbelow is not None:
                quantum = (self.base_quantum - spread
                           + self._randbelow(2 * spread + 1))
            else:
                quantum = self.base_quantum + self._rng.randint(
                    -spread, spread)
        else:
            quantum = self.base_quantum
        return intern_slice(tid, max(1, quantum))

    def note_partial(self, slice_: ScheduleSlice, executed: int,
                     resumable: bool = False) -> None:
        """Adjust the recorded trace when a slice ended early.

        A thread can exit, block, or hit a region boundary before its
        quantum expires; the recorded schedule must reflect the executed
        length so replay stays aligned.

        With *resumable* (the thread is still runnable — the cut came
        from an instruction budget or a stop request, not from the
        thread itself), the unexecuted remainder is parked so the next
        ``pick()`` finishes the slice first.  This makes budgeted
        stepping — epoch sweeps, BBV slices, snapshot suspend points —
        schedule-transparent: the interleaving matches an uninterrupted
        run, in free-run and replay mode alike.
        """
        if self.record and self._picked >= 0:
            self.trace[self._picked] = intern_slice(slice_.tid, executed)
        if executed < slice_.quantum and (resumable
                                          or self._replay_log is not None):
            self._replay_pending = intern_slice(
                slice_.tid, slice_.quantum - executed)
            self._pending_resumable = resumable
