"""Property-based tests on pinball serialization and core invariants."""


import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.registers import Flags, RegisterFile
from repro.machine.memory import PAGE_SIZE
from repro.machine.scheduler import ScheduleSlice
from repro.pinplay.pinball import Pinball, SyscallRecord, ThreadRecord
from repro.pinplay.regions import RegionSpec


@st.composite
def register_files(draw):
    regs = RegisterFile(
        gpr=[draw(st.integers(min_value=0, max_value=2**64 - 1))
             for _ in range(16)],
        rip=draw(st.integers(min_value=0, max_value=2**48)),
        flags=Flags(zf=draw(st.booleans()), sf=draw(st.booleans()),
                    cf=draw(st.booleans()), of=draw(st.booleans())),
        fs_base=draw(st.integers(min_value=0, max_value=2**48)),
        gs_base=draw(st.integers(min_value=0, max_value=2**48)),
        xmm=[draw(st.floats(allow_nan=False, allow_infinity=False))
             for _ in range(16)],
    )
    return regs


@st.composite
def syscall_records(draw):
    return SyscallRecord(
        tid=draw(st.integers(min_value=0, max_value=7)),
        number=draw(st.integers(min_value=0, max_value=334)),
        args=tuple(draw(st.integers(min_value=0, max_value=2**64 - 1))
                   for _ in range(6)),
        result=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        writes=[(draw(st.integers(min_value=0, max_value=2**40)),
                 draw(st.binary(min_size=1, max_size=32)))
                for _ in range(draw(st.integers(min_value=0, max_value=3)))],
        path=draw(st.one_of(st.none(), st.text(
            alphabet=st.characters(codec="ascii",
                                   categories=("L", "N")), max_size=16))),
    )


@settings(max_examples=25, deadline=None)
@given(register_files())
def test_thread_record_json_round_trip(regs):
    record = ThreadRecord(tid=3, regs=regs, region_icount=123,
                          blocked=True, futex_addr=0x7000)
    assert ThreadRecord.from_json(record.to_json()) == record


@settings(max_examples=25, deadline=None)
@given(syscall_records())
def test_syscall_record_json_round_trip(record):
    restored = SyscallRecord.from_json(record.to_json())
    assert restored.to_json() == record.to_json()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2**20).map(lambda p: p * PAGE_SIZE),
        st.tuples(
            st.sampled_from([1, 3, 5, 7]),
            # derive full pages from a short seed pattern: generating
            # 4 KiB of raw entropy per page trips health checks
            st.binary(min_size=4, max_size=32).map(
                lambda pat: (pat * (PAGE_SIZE // len(pat) + 1))[:PAGE_SIZE]),
        ),
        min_size=1, max_size=4,
    ),
    register_files(),
    st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                       st.integers(min_value=1, max_value=200)),
             max_size=8),
)
def test_pinball_save_load_round_trip(tmp_path_factory, pages, regs, schedule):
    tmp_path = tmp_path_factory.mktemp("pbprop")
    pinball = Pinball(
        name="prop",
        region=RegionSpec(start=100, length=500, warmup=50, name="p",
                          weight=0.5),
        pages=pages,
        threads=[ThreadRecord(tid=0, regs=regs, region_icount=500)],
        syscalls=[],
        schedule=[ScheduleSlice(tid=t, quantum=q) for t, q in schedule],
        brk_start=0x600000,
        brk_end=0x640000,
        program_icount=99_999,
        next_tid=4,
    )
    pinball.save(str(tmp_path))
    loaded = Pinball.load(str(tmp_path), "prop")
    assert loaded.pages == pinball.pages
    assert loaded.threads[0].regs == regs
    assert loaded.schedule == pinball.schedule
    assert loaded.region == pinball.region
    assert loaded.program_icount == 99_999
    assert loaded.next_tid == 4


def test_pinball_rejects_partial_pages(tmp_path):
    pinball = Pinball(
        name="bad",
        region=RegionSpec(start=0, length=1),
        pages={0x1000: (3, b"\x00" * 100)},   # not a full page
        threads=[ThreadRecord(tid=0, regs=RegisterFile())],
        syscalls=[],
        schedule=[],
    )
    with pytest.raises(ValueError):
        pinball.save(str(tmp_path))


def test_region_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec(start=-1, length=10)
    with pytest.raises(ValueError):
        RegionSpec(start=0, length=0)
    with pytest.raises(ValueError):
        RegionSpec(start=0, length=1, warmup=-1)
    with pytest.raises(ValueError):
        RegionSpec(start=0, length=1, weight=1.5)
    region = RegionSpec(start=100, length=50, warmup=200)
    assert region.end == 150
    assert region.warmup_start == 0
