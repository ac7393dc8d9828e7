"""Tests for BBV profiling, k-means, SimPoint selection, validation."""

from typing import Optional

import pytest

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions
from repro.core.elfie import prepare_elfie_machine
from repro.core.pinball2elf import ElfieArtifact
from repro.elf.structs import ET_EXEC
from repro.isa.instructions import Op
from repro.machine.tool import Tool
from repro.pinplay import RegionSpec, log_region
from repro.simpoint import (
    collect_bbv,
    cluster_vectors,
    prediction_error,
    run_pinpoints,
    select_simpoints,
    validate_with_elfies,
)
from repro.simpoint.kmeans import project_vectors
from repro.simpoint.validation import RegionMeasurement, measure_elfie_region
from repro.workloads import PhaseSpec, ProgramBuilder, build_executable, get_app

TWO_PHASE = ProgramBuilder(
    name="twophase",
    phases=[
        PhaseSpec("compute", 6000, buffer_kb=16),
        PhaseSpec("pointer_chase", 6000, buffer_kb=64),
        PhaseSpec("compute", 6000, buffer_kb=16),
        PhaseSpec("pointer_chase", 6000, buffer_kb=64),
    ],
)


@pytest.fixture(scope="module")
def two_phase_profile():
    return collect_bbv(TWO_PHASE.build(), slice_size=10_000, seed=1)


def test_bbv_slices_cover_whole_program(two_phase_profile):
    profile = two_phase_profile
    assert profile.num_slices >= 10
    assert sum(profile.slice_icounts) == profile.total_icount
    # all but the last slice are full-size
    assert all(n == profile.slice_size
               for n in profile.slice_icounts[:-1])


def test_bbv_vectors_nonempty_and_plausible(two_phase_profile):
    for vector in two_phase_profile.vectors:
        assert vector
        assert all(count > 0 for count in vector.values())
        # weighted counts sum approximately to the slice size
        assert sum(vector.values()) <= two_phase_profile.slice_size + 1


def test_bbv_slice_cpi_varies_between_phases(two_phase_profile):
    cpis = [two_phase_profile.slice_cpi(i)
            for i in range(two_phase_profile.num_slices - 1)]
    assert max(cpis) > 1.3 * min(cpis)


def test_bbv_whole_program_cpi(two_phase_profile):
    profile = two_phase_profile
    assert profile.whole_program_cpi == pytest.approx(
        profile.total_cycles / profile.total_icount)


def test_bbv_deterministic_across_runs():
    image = TWO_PHASE.build()
    first = collect_bbv(image, slice_size=10_000, seed=5)
    second = collect_bbv(image, slice_size=10_000, seed=5)
    assert first.vectors == second.vectors
    assert first.total_cycles == second.total_cycles


def test_projection_shape():
    vectors = [{1: 5, 2: 5}, {2: 10}, {3: 1}]
    points = project_vectors(vectors, dim=4, seed=0)
    assert points.shape == (3, 4)


def test_kmeans_separates_distinct_phases():
    # two obviously distinct groups of vectors
    group_a = [{100: 90 + i, 200: 10} for i in range(10)]
    group_b = [{300: 80 + i, 400: 20} for i in range(10)]
    result = cluster_vectors(group_a + group_b, max_k=8, seed=3)
    labels = result.labels
    # no cluster mixes members of the two groups (BIC may further split
    # a group, which is fine)
    labels_a = set(labels[:10])
    labels_b = set(labels[10:])
    assert not labels_a & labels_b
    assert 2 <= result.k <= 6


def test_kmeans_single_cluster_for_uniform_input():
    vectors = [{7: 100} for _ in range(12)]
    result = cluster_vectors(vectors, max_k=6, seed=1)
    assert result.k == 1


def test_kmeans_rejects_empty_input():
    with pytest.raises(ValueError):
        cluster_vectors([])


def test_simpoint_weights_sum_to_one(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    assert sum(c.weight for c in result.clusters) == pytest.approx(1.0)


def test_simpoint_representative_is_cluster_member(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    for cluster in result.clusters:
        members = set(result.kmeans.members(cluster.cluster_id))
        assert cluster.representative in members
        for rank in range(1, 3):
            alt = cluster.alternate(rank)
            if alt is not None:
                assert alt in members
                assert alt != cluster.representative


def test_simpoint_regions_align_with_slices(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    for region in result.regions(warmup=5000):
        assert region.start % two_phase_profile.slice_size == 0
        assert region.length == two_phase_profile.slice_size
        assert region.warmup == 5000


def test_alternate_regions_have_alt_names(two_phase_profile):
    result = select_simpoints(two_phase_profile, max_k=8)
    regions = result.regions(max_alternates=2)
    assert any(".alt1" in r.name for r in regions)


def test_prediction_error_definition():
    assert prediction_error(2.0, 2.0) == 0.0
    assert prediction_error(2.0, 1.0) == pytest.approx(0.5)
    assert prediction_error(2.0, 3.0) == pytest.approx(-0.5)
    assert prediction_error(0.0, 1.0) == 0.0


@pytest.fixture(scope="module")
def pinpoints_result():
    image = TWO_PHASE.build()
    return run_pinpoints(image, "twophase", slice_size=10_000,
                         warmup=20_000, max_k=8, max_alternates=1)


def test_pinpoints_captures_fat_pinballs(pinpoints_result):
    assert pinpoints_result.pinballs
    for pinball in pinpoints_result.pinballs.values():
        assert pinball.fat
        assert pinball.program_icount == pinpoints_result.profile.total_icount


def test_pinpoints_generates_elfies(pinpoints_result):
    assert set(pinpoints_result.elfies) == set(pinpoints_result.pinballs)


def test_pinpoints_alternates_listed(pinpoints_result):
    primaries = pinpoints_result.primary_regions
    assert primaries
    for region in primaries:
        for alt in pinpoints_result.alternates_for(region):
            assert alt.name.startswith(region.name + ".alt")


def test_simulator_validation_measures_each_primary(pinpoints_result):
    """Fig. 9's traditional path: whole program and region ELFies
    through the detailed CoreSim model."""
    from repro.simpoint.validation import validate_with_simulator
    from repro.simulators import CoreSim, CoreSimConfig

    selection = pinpoints_result.selection
    assert selection.k == len(selection.clusters)
    simulator = CoreSim(CoreSimConfig(frontend="sde"))

    def region_cpi(artifact, region):
        result = simulator.simulate_elfie(
            artifact.image, roi_budget=region.length,
            warmup_budget=region.start - region.warmup_start)
        assert result.measured_instructions >= region.length
        return result.measured_cpi

    validation = validate_with_simulator(
        pinpoints_result,
        lambda: simulator.simulate_program(TWO_PHASE.build()).user_cpi,
        region_cpi)
    assert validation.whole_program_cpi > 0
    assert len(validation.measurements) == len(
        pinpoints_result.primary_regions)
    assert all(m.ok and m.cpi > 0 for m in validation.measurements)


def test_elfie_validation_produces_plausible_error(pinpoints_result):
    validation = validate_with_elfies(pinpoints_result, trials=2)
    assert validation.covered_weight > 0.6
    assert validation.predicted_cpi > 0
    # the pointer-chase cluster has a long cache-warmth transient with
    # identical BBVs, so some error is physical; it must stay bounded
    assert validation.abs_error_percent < 60.0


def test_validation_measurements_reference_primary_weights(pinpoints_result):
    validation = validate_with_elfies(pinpoints_result, trials=1)
    total_weight = sum(m.region.weight for m in validation.measurements)
    assert total_weight == pytest.approx(1.0)


# -- region meter vs the per-instruction reference ---------------------------


class _ReferenceRegionMeter(Tool):
    """The per-instruction region meter, kept as the oracle.

    Arms on the first MARKER (any thread), then, before every
    instruction, compares machine-wide progress past the marker with
    the warmup and window end, reading the cycle counter when each is
    reached.
    """

    wants_instructions = True

    def __init__(self, warmup: int, length: int) -> None:
        self.warmup = warmup
        self.length = length
        self.armed = False
        self.start_cycles: Optional[int] = None
        self.end_cycles: Optional[int] = None
        self._base = 0

    def on_instruction(self, machine, thread, pc, insn) -> None:
        if not self.armed:
            if insn.op is Op.MARKER:
                self.armed = True
                self._base = machine.total_icount()
            return
        progress = machine.total_icount() - self._base
        if self.start_cycles is None:
            if progress >= self.warmup:
                self.start_cycles = machine.total_cycles()
            return
        if self.end_cycles is None and progress >= self.warmup + self.length:
            self.end_cycles = machine.total_cycles()
            machine.request_stop("region measured")


def _reference_measure(artifact, region, seed=0, budget_factor=6):
    machine, _ = prepare_elfie_machine(artifact.image, seed=seed)
    meter = _ReferenceRegionMeter(region.start - region.warmup_start,
                                  region.length)
    machine.attach(meter)
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    status = machine.run(max_instructions=budget)
    if meter.end_cycles is None:
        detail = ("died: %s" % status.detail if status.kind == "signal"
                  else "incomplete: %s" % status.detail)
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=detail)
    return RegionMeasurement(
        region=region, ok=True,
        cpi=(meter.end_cycles - meter.start_cycles) / region.length)


def _as_artifact(image):
    return ElfieArtifact(image=image, e_type=ET_EXEC, entry=0,
                         startup_base=0, plan=None)


@pytest.fixture(scope="module")
def int_rate_results():
    return [run_pinpoints(get_app(app).build("test"), app,
                          slice_size=20_000, warmup=80_000, max_k=4,
                          max_alternates=1)
            for app in ("505.mcf_r", "531.deepsjeng_r")]


def test_region_meter_matches_per_instruction_reference(int_rate_results):
    checked = 0
    for result in int_rate_results:
        for region in result.regions:
            artifact = result.elfies[region.name]
            for seed in (0, 101):
                got = measure_elfie_region(artifact, region, seed=seed)
                assert got == _reference_measure(artifact, region, seed),\
                    region.name
                assert got.ok, got.detail
                checked += 1
            # an early-program region: no captured warmup at all
            early = RegionSpec(start=0, length=region.length, warmup=0,
                               name=region.name)
            assert measure_elfie_region(artifact, early) \
                == _reference_measure(artifact, early)
    assert checked >= 8


#: Marker, 1200 loop instructions, one more instruction, then a tail:
#: post-marker instruction 1203 (marker included) is the tail's first.
_DYING_ELFIE = """
_start:
    mov rcx, 300
    marker 0x42
spin:
    add rbx, 1
    sub rcx, 1
    cmp rcx, 0
    jnz spin
    mov rax, 0
%s
"""

_TAILS = {
    # faults while executing: it has begun, so the count before it reads
    "load-fault": "    ld rbx, [rax]",
    # retires, then the next fetch faults: nothing begins after it
    "fetch-fault": "    call rax",
    "exit": "    mov rax, 231\n    mov rdi, 0\n    syscall",
}


@pytest.mark.parametrize("tail", sorted(_TAILS))
def test_region_meter_matches_reference_when_elfie_ends(tail):
    """Windows that close just before, at, and past the point where the
    ELFie dies or exits: same CPIs, same died:/incomplete: details."""
    artifact = _as_artifact(build_executable(_DYING_ELFIE % _TAILS[tail]))
    for warmup in (0, 1, 5):
        for end in range(1198, 1208):
            region = RegionSpec(start=warmup, length=end - warmup,
                                warmup=warmup, name="dying")
            assert measure_elfie_region(artifact, region) \
                == _reference_measure(artifact, region), (warmup, end)


def test_region_meter_matches_reference_on_two_thread_elfie():
    image = ProgramBuilder(
        name="mt2", threads=2,
        phases=[PhaseSpec("compute", 3000, buffer_kb=16),
                PhaseSpec("pointer_chase", 3000, buffer_kb=16)],
    ).build()
    region = RegionSpec(start=30_000, length=20_000, warmup=10_000,
                        name="mt2.r0")
    pinball = log_region(image, region, seed=3)
    assert pinball.num_threads == 2
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 9))).convert()
    for spec in (region, RegionSpec(start=0, length=15_000, name="mt2.w0")):
        for seed in (0, 5):
            got = measure_elfie_region(artifact, spec, seed=seed)
            assert got == _reference_measure(artifact, spec, seed)
            assert got.ok, got.detail
