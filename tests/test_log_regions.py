"""Single-pass multi-region capture must match per-region captures."""

import pytest

from repro.looppoint import run_looppoint
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.pinplay import LogOptions, RegionSpec, log_region, log_regions, replay
from repro.simpoint import run_pinpoints
from repro.simpoint.pinpoints import _capturable
from repro.workloads import MT_APPS, SPEC2017_INT_RATE, PhaseSpec, ProgramBuilder


@pytest.fixture(scope="module")
def image():
    return ProgramBuilder(
        name="mr",
        phases=[PhaseSpec("compute", 6000, buffer_kb=16),
                PhaseSpec("stream", 6000, buffer_kb=16)],
    ).build()


REGIONS = [
    RegionSpec(start=10_000, length=8_000, name="a"),
    RegionSpec(start=40_000, length=8_000, name="b"),
    RegionSpec(start=80_000, length=8_000, name="c"),
]


def assert_matches_individual_captures(image, regions, seed=0):
    """Every pinball of one ``log_regions`` pass is byte-identical to a
    standalone ``log_region`` capture of the same region."""
    batch = log_regions(image, regions, seed=seed)
    assert list(batch) == [region.name for region in regions]
    for region in regions:
        single = log_region(image, region, LogOptions(name=region.name),
                            seed=seed)
        assert batch[region.name].save_bytes() == single.save_bytes(), \
            region.name
    return batch


def test_single_pass_matches_individual_captures(image):
    assert_matches_individual_captures(image, REGIONS, seed=7)


def test_single_pass_pinballs_replay_correctly(image):
    batch = log_regions(image, REGIONS, seed=7)
    for pinball in batch.values():
        result = replay(pinball)
        assert result.matches_recording, pinball.name


def test_overlapping_windows_captured(image):
    assert_matches_individual_captures(image, [
        RegionSpec(start=10_000, length=8_000, name="x"),
        RegionSpec(start=12_000, length=8_000, name="y"),
    ])


def test_warmup_overlapping_windows_captured(image):
    # windows = [start - warmup, end): these overlap through warmup
    assert_matches_individual_captures(image, [
        RegionSpec(start=10_000, length=5_000, name="x"),
        RegionSpec(start=20_000, length=5_000, warmup=8_000, name="y"),
    ])


def test_nested_window(image):
    assert_matches_individual_captures(image, [
        RegionSpec(start=10_000, length=20_000, name="outer"),
        RegionSpec(start=15_000, length=2_000, warmup=1_000, name="inner"),
    ], seed=3)


def test_window_ending_where_another_starts(image):
    assert_matches_individual_captures(image, [
        RegionSpec(start=30_000, length=6_000, name="later"),
        RegionSpec(start=20_000, length=10_000, name="earlier"),
    ], seed=5)


def test_one_window_under_two_names(image):
    assert_matches_individual_captures(image, [
        RegionSpec(start=10_000, length=8_000, name="first", weight=0.25),
        RegionSpec(start=10_000, length=8_000, name="second", weight=0.5),
    ])


def test_stop_on_a_slice_end_merges_nothing(image):
    outer = RegionSpec(start=10_000, length=20_000, name="outer")
    single = log_region(image, outer, LogOptions(name="outer"), seed=7)
    # a slice boundary of the outer window's own schedule: stopping
    # there cuts no slice, so no entries may be joined across it
    boundary = outer.warmup_start + sum(
        s.quantum for s in single.schedule[:len(single.schedule) // 2])
    machine = Machine(seed=7)
    load_elf(machine, image)
    machine.run(max_instructions=boundary)
    assert not machine.scheduler.mid_slice
    assert_matches_individual_captures(image, [
        outer,
        RegionSpec(start=boundary, length=3_000, name="inner"),
    ], seed=7)


def test_window_open_at_program_exit(image):
    program = Machine(seed=2)
    load_elf(program, image)
    assert program.run().kind == "exit"
    total = program.executed_total
    batch = assert_matches_individual_captures(image, [
        RegionSpec(start=total - 5_000, length=50_000, name="tail"),
        RegionSpec(start=total - 9_000, length=6_000, name="inside"),
    ], seed=2)
    assert batch["tail"].region_icount == 5_000


def test_regions_past_program_end_skipped(image):
    regions = [
        RegionSpec(start=10_000, length=5_000, name="ok"),
        RegionSpec(start=10_000_000, length=5_000, name="beyond"),
    ]
    batch = log_regions(image, regions)
    assert "ok" in batch
    assert "beyond" not in batch


def test_lazy_mode_rejected(image):
    with pytest.raises(ValueError):
        log_regions(image, REGIONS, fat=False)


@pytest.mark.parametrize("app", ["525.x264_r", "531.deepsjeng_r"])
def test_pinpoints_regions_match_individual_captures(app):
    image = SPEC2017_INT_RATE[app].build("test")
    result = run_pinpoints(image, app, slice_size=20_000, warmup=80_000,
                           max_k=8, max_alternates=1, seed=1, capture=False)
    regions = _capturable(result.regions, result.profile.total_icount)
    assert_matches_individual_captures(image, regions, seed=1)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("app", ["mt.prodcons", "mt.steal"])
def test_looppoint_regions_match_individual_captures(app, seed):
    # multi-threaded; the mt.steal windows also record futex calls
    image = MT_APPS[app].build("train")
    result = run_looppoint(image, app, max_k=8, max_alternates=1,
                           seed=seed, capture=False)
    regions = _capturable(result.regions, result.profile.total_icount)
    assert_matches_individual_captures(image, regions, seed=seed)
