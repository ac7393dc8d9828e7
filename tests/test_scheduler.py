"""Tests for the seeded scheduler and its record/replay modes."""

import pickle
import random

import pytest

from repro.farm import codec
from repro.isa.registers import RegisterFile
from repro.machine.cpu import NO_TRAP
from repro.machine.memory import PAGE_SIZE
from repro.machine.scheduler import ScheduleSlice, Scheduler, intern_slice
from repro.pinplay.pinball import Pinball, ThreadRecord
from repro.pinplay.regions import RegionSpec


def test_round_robin_rotation():
    scheduler = Scheduler(seed=0, jitter=0.0)
    picks = [scheduler.pick([0, 1, 2]).tid for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_quantum_jitter_is_seeded():
    first = Scheduler(seed=5)
    second = Scheduler(seed=5)
    other = Scheduler(seed=6)
    quanta_a = [first.pick([0]).quantum for _ in range(20)]
    quanta_b = [second.pick([0]).quantum for _ in range(20)]
    quanta_c = [other.pick([0]).quantum for _ in range(20)]
    assert quanta_a == quanta_b
    assert quanta_a != quanta_c


def test_jitter_within_bounds():
    scheduler = Scheduler(seed=1, base_quantum=100, jitter=0.5)
    for _ in range(100):
        quantum = scheduler.pick([0]).quantum
        assert 50 <= quantum <= 150


def test_no_runnable_threads_raises():
    scheduler = Scheduler()
    with pytest.raises(RuntimeError):
        scheduler.pick([])


def test_record_and_replay_round_trip():
    recorder = Scheduler(seed=3)
    recorder.record = True
    trace = [recorder.pick([0, 1]) for _ in range(10)]
    assert recorder.trace == trace

    player = Scheduler(seed=99)   # different seed must not matter
    player.replay(trace)
    replayed = [player.pick([0, 1]) for _ in range(10)]
    assert replayed == trace
    assert player.replay_exhausted


def test_replay_rejects_nonrunnable_thread():
    player = Scheduler()
    player.replay([ScheduleSlice(tid=7, quantum=10)])
    with pytest.raises(RuntimeError):
        player.pick([0, 1])


def test_replay_falls_back_to_free_run_when_exhausted():
    player = Scheduler(seed=0)
    player.replay([ScheduleSlice(tid=1, quantum=5)])
    assert player.pick([1]).tid == 1
    # log exhausted: free-run continues (injection-less replay past the
    # recorded region)
    slice_ = player.pick([0, 1])
    assert slice_.tid in (0, 1)


def test_note_partial_trims_recorded_slice():
    scheduler = Scheduler(seed=0, jitter=0.0, base_quantum=64)
    scheduler.record = True
    slice_ = scheduler.pick([0])
    scheduler.note_partial(slice_, 10)
    assert scheduler.trace[-1].quantum == 10


def test_validation_of_parameters():
    with pytest.raises(ValueError):
        Scheduler(base_quantum=0)
    with pytest.raises(ValueError):
        Scheduler(jitter=1.5)


# -- interned slices ---------------------------------------------------------


def _reference_choose(scheduler, tids):
    """The free-run pick before slices were interned, kept as the
    oracle: a candidate scan and a fresh slice on every pick."""
    candidates = [tid for tid in tids if tid >= scheduler._next_index]
    tid = candidates[0] if candidates else tids[0]
    scheduler._next_index = tid + 1
    if scheduler.jitter:
        spread = int(scheduler.base_quantum * scheduler.jitter)
        if spread and scheduler._randbelow is not None:
            quantum = (scheduler.base_quantum - spread
                       + scheduler._randbelow(2 * spread + 1))
        else:
            quantum = scheduler.base_quantum + scheduler._rng.randint(
                -spread, spread)
    else:
        quantum = scheduler.base_quantum
    return ScheduleSlice(tid=tid, quantum=max(1, quantum))


@pytest.mark.parametrize("base_quantum", [1, 2, 64])
@pytest.mark.parametrize("jitter", [0.0, 0.5])
def test_interned_choose_matches_reference(base_quantum, jitter):
    for seed in range(4):
        tid_sets = random.Random(seed + 1000)
        got = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        want = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        for _ in range(300):
            tids = sorted(tid_sets.sample(range(5), tid_sets.randint(1, 4)))
            picked = got.choose(tids)
            expected = _reference_choose(want, tids)
            assert (picked.tid, picked.quantum) == (
                expected.tid, expected.quantum)
            assert got._next_index == want._next_index
        assert got._rng.getstate() == want._rng.getstate()


# -- batched slice-end picks --------------------------------------------------


def _sequential_extend(scheduler, tids, need, room):
    """The oracle for :meth:`Scheduler.extend`: one :meth:`pick` over
    *tids* per slice end, each allotment clamped to what is left of
    *room*."""
    allotted = picks = 0
    while allotted < need:
        entry = scheduler.pick(list(tids))
        last = min(entry.quantum, room - allotted)
        allotted += last
        picks += 1
    return entry, allotted, last, picks


def _draw_state(scheduler):
    return (list(scheduler.trace), scheduler._rng.getstate(),
            scheduler._next_index, scheduler._picked)


def _assert_extend_matches_picks(got, want, draws, rounds,
                                 universe=(0, 1, 2, 3)):
    """Batches over a runnable set that changes between them: before
    each, one thread of *universe* blocks (if another stays runnable)
    or wakes, as a futex wait, a wake or a clone would."""
    runnable = set(universe)
    for _ in range(rounds):
        tid = draws.choice(universe)
        if tid in runnable and len(runnable) > 1:
            runnable.discard(tid)
        else:
            runnable.add(tid)
        tids = tuple(sorted(runnable))
        need = draws.randint(1, 6 * got.base_quantum)
        # Room from exactly *need* (the last allotment clamps) to none.
        room = draws.choice((need, need + draws.randrange(64), NO_TRAP))
        assert got.extend(tids, need, room) \
            == _sequential_extend(want, tids, need, room)
        assert _draw_state(got) == _draw_state(want)


@pytest.mark.parametrize("base_quantum", [1, 2, 64])
@pytest.mark.parametrize("jitter", [0.0, 0.5])
@pytest.mark.parametrize("record", [False, True])
def test_batched_extend_matches_sequential_picks(base_quantum, jitter,
                                                 record):
    """Batches for one runnable tid at a time, drawn from three, match
    one pick per slice end."""
    for seed in range(4):
        got = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        want = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        got.record = want.record = record
        draws = random.Random(seed)
        for _ in range(200):
            _assert_extend_matches_picks(got, want, draws, 1,
                                         (draws.choice((0, 1, 2)),))


@pytest.mark.parametrize("base_quantum", [1, 2, 64])
@pytest.mark.parametrize("jitter", [0.0, 0.5])
@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("universe", [(0,), (0, 1), (0, 1, 2), (0, 2, 3, 5)])
def test_batched_extend_over_changing_runnable_sets(base_quantum, jitter,
                                                    record, universe):
    """Batched picks rotate over one to four runnable tids exactly as
    one pick per slice end does, across blocks and wakes."""
    for seed in range(4):
        got = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        want = Scheduler(seed=seed, base_quantum=base_quantum, jitter=jitter)
        got.record = want.record = record
        _assert_extend_matches_picks(got, want, random.Random(seed), 200,
                                     universe)
        if len(universe) > 1:
            assert len({entry.tid for entry in want.trace}) > 1 or not record


class _FixedQuantum(Scheduler):
    """A subclass whose free-run pick the batch loop cannot draw."""

    def choose(self, tids):
        self._rng.random()
        return intern_slice(tids[0], 5 + len(self.trace) % 3)


def test_batched_extend_falls_back_to_pick():
    """A parked remainder, a replay log and an overridden ``choose``
    each need :meth:`Scheduler.pick`; the batch matches it."""
    def pair(cls=Scheduler):
        got, want = cls(seed=7), cls(seed=7)
        got.record = want.record = True
        return got, want

    got, want = pair()
    for scheduler in (got, want):
        scheduler.note_partial(scheduler.pick([0]), 10, resumable=True)
        assert scheduler.mid_slice
    _assert_extend_matches_picks(got, want, random.Random(1), 1, (0,))
    assert not got.mid_slice

    log = [intern_slice(1, 20 + index % 7) for index in range(400)]
    got, want = pair()
    got.replay(log)
    want.replay(log)
    _assert_extend_matches_picks(got, want, random.Random(3), 20, (1,))
    assert 0 < got._replay_pos == want._replay_pos < len(log)

    got, want = pair(_FixedQuantum)
    _assert_extend_matches_picks(got, want, random.Random(2), 50)
    assert {entry.quantum for entry in got.trace} == {5, 6, 7}


def test_unit_quantum_with_jitter_still_draws_through_randint():
    scheduler = Scheduler(seed=3, base_quantum=1, jitter=0.5)
    draws = []
    randint = scheduler._rng.randint
    scheduler._rng.randint = lambda a, b: draws.append((a, b)) or randint(a, b)
    before = scheduler._rng.getstate()
    assert [scheduler.pick([0]).quantum for _ in range(5)] == [1] * 5
    assert draws == [(0, 0)] * 5
    assert scheduler._rng.getstate() != before


def test_equal_picks_share_one_slice():
    first = Scheduler(seed=2)
    second = Scheduler(seed=2)
    picks = [first.pick([0, 1]) for _ in range(200)]
    for a, b in zip(picks, (second.pick([0, 1]) for _ in range(200))):
        assert a is b
    assert len({id(s) for s in picks}) == len(set(picks))
    assert intern_slice(1, 7) is intern_slice(1, 7)
    assert intern_slice(1, 7) == ScheduleSlice(tid=1, quantum=7)


def _st_trace(picks=1559):
    scheduler = Scheduler(seed=1)
    scheduler.record = True
    for _ in range(picks):
        scheduler.pick([0])
    return scheduler.trace


def _pickled_bytes_per_entry(schedule):
    blob = pickle.dumps(schedule)
    assert pickle.loads(blob) == schedule
    return len(blob) / len(schedule)


def test_st_schedule_pickles_compactly():
    trace = _st_trace()
    assert len(trace) == 1559
    assert _pickled_bytes_per_entry(trace) <= 3.0


def test_decoded_schedule_is_interned_and_pickles_compactly(tmp_path):
    trace = _st_trace()
    length = sum(entry.quantum for entry in trace)
    pinball = Pinball(
        name="st",
        region=RegionSpec(start=0, length=length, name="st"),
        pages={0x1000: (5, b"\xab" * PAGE_SIZE)},
        threads=[ThreadRecord(tid=0, regs=RegisterFile(),
                              region_icount=length)],
        syscalls=[],
        schedule=trace,
        brk_start=0x600000,
        brk_end=0x640000,
        program_icount=length,
        next_tid=1,
    )
    meta, blocks = codec.encode_pinball(pinball)
    decoded = codec.decode_pinball(meta, blocks.__getitem__)
    assert decoded.schedule == pinball.schedule
    assert all(entry is intern_slice(entry.tid, entry.quantum)
               for entry in decoded.schedule)
    assert _pickled_bytes_per_entry(decoded.schedule) <= 3.0
    pinball.save(str(tmp_path))
    loaded = Pinball.load(str(tmp_path), "st")
    assert all(a is b for a, b in zip(loaded.schedule, decoded.schedule))


def test_note_partial_rewrites_only_the_current_pick():
    scheduler = Scheduler(seed=0, jitter=0.0, base_quantum=64)
    scheduler.record = True
    first = scheduler.pick([0])
    current = scheduler.pick([0])
    assert first is current  # the earlier entry is the same object
    scheduler.note_partial(current, 10)
    assert [s.quantum for s in scheduler.trace] == [64, 10]
    # An unrecorded pick rewrites nothing, even if the last entry is
    # the same interned slice.
    scheduler.record = False
    unrecorded = scheduler.pick([0])
    scheduler.record = True
    scheduler.note_partial(unrecorded, 5)
    assert [s.quantum for s in scheduler.trace] == [64, 10]
