"""Tests for the LoopPoint subsystem (repro.looppoint).

Covers the full stack: static marker harvesting (module+offset-relative
maps, spin/futex classification), the marker-slice profiler and its
spin-exclusion invariance, deterministic selection, marker-denominated
region windows, the direct and farm-backed pipelines, marker-metered
ELFie validation, replay fidelity of marker-delimited regions, and the
CLI front-end.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.cli import main
from repro.core.elfie import prepare_elfie_machine
from repro.farm import ArtifactStore, executed_jobs, read_manifest
from repro.isa.instructions import Op
from repro.looppoint.profile import LoopPointProfiler
from repro.machine.cpu import set_default_dispatch
from repro.looppoint import (
    MARKER_MAP_VERSION,
    MarkerMap,
    MarkerPoint,
    REGION_SELECTOR,
    collect_looppoint,
    harvest_markers,
    looppoint_validation,
    measure_elfie_region_markers,
    pca_project,
    run_looppoint,
    run_looppoint_campaign,
    select_loop_regions,
    validate_looppoint,
)
from repro.looppoint.validate import _MarkerMeter
from repro.machine import Machine, load_elf
from repro.machine.tool import Tool
from repro.simpoint.validation import RegionMeasurement
from repro.verify import verify_pinball
from repro.workloads import MT_APPS, build_executable

#: A program with one work loop, one pause-spin loop, and one futex
#: wait loop: one marker of each classification.
MARKER_ZOO = """
_start:
    mov rcx, 40
work:
    add rbx, 3
    sub rcx, 1
    cmp rcx, 0
    jnz work
    mov rcx, 6
spin:
    pause
    sub rcx, 1
    cmp rcx, 0
    jnz spin
fwait:
    ld4 rcx, [flag]
    cmp rcx, 0
    jnz done
    mov rax, 202
    mov rdi, flag
    mov rsi, 1
    mov rdx, 0
    syscall
    jmp fwait
done:
    mov rax, 231
    mov rdi, 0
    syscall
"""

MARKER_ZOO_DATA = "flag:\n    .quad 1\n"


@pytest.fixture(scope="module")
def zoo_image():
    return build_executable(MARKER_ZOO, data_source=MARKER_ZOO_DATA)


@pytest.fixture(scope="module")
def mt_image():
    return MT_APPS["mt.prodcons"].build("test")


@pytest.fixture(scope="module")
def mt_profile(mt_image):
    return collect_looppoint(mt_image, slice_markers=64, seed=0)


# -- harvesting -----------------------------------------------------------


def test_harvest_classifies_work_spin_futex(zoo_image):
    marker_map = harvest_markers(zoo_image)
    kinds = sorted(m.kind for m in marker_map.markers)
    assert kinds == ["futex", "loop", "spin"]
    work = marker_map.work_markers
    assert len(work) == 1
    assert work[0].symbol == "work"
    assert {m.symbol for m in marker_map.sync_markers} == {"spin", "fwait"}


def test_marker_map_json_round_trip(zoo_image):
    marker_map = harvest_markers(zoo_image)
    restored = MarkerMap.from_json(
        json.loads(json.dumps(marker_map.to_json())))
    assert restored.module == marker_map.module
    assert restored.text_base == marker_map.text_base
    assert restored.version == marker_map.version
    assert restored.markers == marker_map.markers


def test_marker_map_of_another_version_is_rejected(zoo_image):
    data = harvest_markers(zoo_image).to_json()
    data["version"] = MARKER_MAP_VERSION + 1
    with pytest.raises(ValueError, match="not supported"):
        MarkerMap.from_json(data)


def test_marker_point_json_round_trip():
    point = MarkerPoint(module="ab12", offset=0x40, count=1234)
    assert MarkerPoint.from_json(point.to_json()) == point


def test_marker_offsets_survive_rebase(zoo_image):
    # the ASLR prerequisite: offsets are module-relative, so resolving
    # the same map at a shifted load base shifts every address by
    # exactly the slide and nothing else
    marker_map = harvest_markers(zoo_image)
    base = marker_map.text_base
    slide = 0x555000
    normal = marker_map.resolve()
    slid = marker_map.resolve(base + slide)
    assert set(slid) == {addr + slide for addr in normal}
    for addr, marker in normal.items():
        assert slid[addr + slide] == marker
    assert (marker_map.work_addresses(base + slide)
            == {a + slide for a in marker_map.work_addresses()})


def test_harvest_is_content_addressed(zoo_image):
    a = harvest_markers(zoo_image)
    b = harvest_markers(zoo_image)
    assert a.module == b.module
    assert a.markers == b.markers


# -- profiling and spin exclusion -----------------------------------------


def test_profile_cuts_slices_on_crossing_multiples(mt_profile):
    assert mt_profile.slices, "MT app must cross work markers"
    # every non-trailing slice holds exactly slice_markers crossings
    for chunk in mt_profile.slices[:-1]:
        assert sum(chunk.vector.values()) == mt_profile.slice_markers
    # slices partition the run: contiguous, monotonically increasing
    for before, after in zip(mt_profile.slices, mt_profile.slices[1:]):
        assert before.end_icount == after.start_icount
        assert before.icount > 0
    assert mt_profile.num_slices == len(mt_profile.slices)
    first = mt_profile.slices[0]
    assert mt_profile.slice_cpi(0) == first.cycles / first.icount


def test_sync_crossings_excluded_from_vectors(mt_profile):
    marker_map = mt_profile.marker_map
    assert marker_map.sync_markers, "MT apps spin: sync markers expected"
    assert mt_profile.sync_crossings > 0
    sync_offsets = {m.offset for m in marker_map.sync_markers}
    for chunk in mt_profile.slices:
        assert not sync_offsets & set(chunk.vector)


@pytest.mark.parametrize("seed", [0, 3])
def test_profile_spins_sync_loops_and_matches_per_instruction_tier(
        mt_image, seed, monkeypatch):
    """Work-marker crossings are watched, so each reaches the profiler
    one by one with exact counters; compiled loops through sync markers
    keep spinning and report their crossings in bulk.  The profile
    equals the per-instruction tier's, field for field."""
    spins = []
    report = LoopPointProfiler.on_loop_exit

    def counted(self, *args):
        spins.append(args[-2:])
        report(self, *args)

    monkeypatch.setattr(LoopPointProfiler, "on_loop_exit", counted)

    def profile(tier):
        previous = set_default_dispatch(tier)
        try:
            return collect_looppoint(mt_image, seed=seed)
        finally:
            set_default_dispatch(previous)

    reference = profile("slow")
    assert not spins
    got = profile("compiled")
    assert spins, "no loop spun under the profiler"
    assert got.slices == reference.slices
    for field in ("total_icount", "total_cycles", "work_crossings",
                  "sync_crossings", "exit_kind"):
        assert getattr(got, field) == getattr(reference, field), field


def test_spin_delay_does_not_change_marker_vectors(mt_profile):
    # the satellite invariant: a workload whose ONLY variation is how
    # long its spin loops wind produces byte-identical work vectors —
    # spin time is excluded from the features by construction
    app = MT_APPS["mt.prodcons"]
    slow = collect_looppoint(app.with_spin_delay(app.spin_delay * 5)
                             .build("test"),
                             slice_markers=64, seed=0)
    assert slow.total_icount > mt_profile.total_icount  # spinning costs
    assert slow.work_crossings == mt_profile.work_crossings
    assert len(slow.slices) == len(mt_profile.slices)

    def totals(profile):
        out = {}
        for chunk in profile.slices:
            for offset, count in chunk.vector.items():
                out[offset] = out.get(offset, 0) + count
        return out

    # whole-run per-marker work totals are byte-identical: the delay
    # only winds sync loops, which the vectors exclude
    assert totals(slow) == totals(mt_profile)
    # per-slice vectors are near-identical — crossings near a slice
    # edge may migrate across it as the interleaving stretches, but
    # never more than a small fraction of the slice
    for fast_chunk, slow_chunk in zip(mt_profile.slices, slow.slices):
        drift = sum(abs(fast_chunk.vector.get(k, 0)
                        - slow_chunk.vector.get(k, 0))
                    for k in set(fast_chunk.vector) | set(slow_chunk.vector))
        assert drift <= mt_profile.slice_markers // 4


# -- selection -------------------------------------------------------------


def test_pca_projection_is_deterministic(mt_profile):
    a = pca_project(mt_profile.vectors, dim=4)
    b = pca_project(mt_profile.vectors, dim=4)
    assert a.tobytes() == b.tobytes()


def test_selection_is_byte_reproducible(mt_profile):
    a = select_loop_regions(mt_profile, max_k=6, seed=42)
    b = select_loop_regions(mt_profile, max_k=6, seed=42)
    assert a.kmeans.labels.tobytes() == b.kmeans.labels.tobytes()
    assert np.array_equal(a.kmeans.centroids, b.kmeans.centroids)
    assert [(c.cluster_id, c.weight, c.candidates) for c in a.clusters] \
        == [(c.cluster_id, c.weight, c.candidates) for c in b.clusters]
    assert a.regions(warmup_slices=1) == b.regions(warmup_slices=1)


def test_cluster_weights_are_crossing_shares(mt_profile):
    selection = select_loop_regions(mt_profile, max_k=6, seed=42)
    total = sum(sum(s.vector.values()) for s in mt_profile.slices)
    weights = [c.weight for c in selection.clusters]
    assert abs(sum(weights) - 1.0) < 1e-9
    # one cluster's weight recomputed by hand
    cluster = selection.clusters[0]
    members = selection.kmeans.members(cluster.cluster_id)
    share = sum(sum(mt_profile.slices[int(m)].vector.values())
                for m in members) / total
    assert cluster.weight == pytest.approx(share)


def test_regions_are_marker_denominated(mt_profile):
    selection = select_loop_regions(mt_profile, max_k=6, seed=42)
    regions = selection.regions(warmup_slices=2)
    assert regions
    for region in regions:
        index = selection.slice_of[region.name]
        chunk = mt_profile.slices[index]
        # boundaries land exactly on slice (= crossing-count) edges
        assert region.start == chunk.start_icount
        assert region.length == chunk.icount
        depth = selection.warmup_slices_of[region.name]
        assert depth == min(2, index)
        assert region.warmup == (chunk.start_icount
                                 - mt_profile.slices[index - depth]
                                 .start_icount)
        skip, measure = selection.measure_crossings(region.name)
        assert skip == depth * mt_profile.slice_markers
        assert measure == sum(chunk.vector.values())


# -- pipeline + marker-metered validation ---------------------------------


@pytest.fixture(scope="module")
def mt_result(mt_image):
    return run_looppoint(mt_image, "mt.prodcons", slice_markers=64,
                         max_k=4, seed=0, max_alternates=1)


def test_run_looppoint_produces_marker_bounded_elfies(mt_result):
    assert mt_result.primary_regions
    assert 1 <= mt_result.selection.k <= 4
    assert set(mt_result.elfies) == {r.name for r in mt_result.regions}
    for region in mt_result.regions:
        window = mt_result.marker_windows[region.name]
        assert window["measure"] > 0
        assert window["skip"] >= 0
        start, end = mt_result.marker_window(region.name)
        # interior boundaries are (module+offset, count) marker points
        if window["start"] is not None:
            assert start.module == mt_result.profile.marker_map.module
            assert start.count > 0


def test_validate_looppoint_marker_metered(mt_result):
    validation = validate_looppoint(mt_result, seed=7, trials=1)
    assert validation.covered_weight == pytest.approx(1.0)
    for measurement in validation.measurements:
        assert measurement.ok, measurement.detail
        assert measurement.cycles_per_work is not None
        assert measurement.icount_per_work is not None
    # the ratio prediction lands near the truth even under a replay
    # schedule the profiler never saw
    assert validation.abs_error_percent < 30.0


class _ReferenceMarkerMeter(Tool):
    """The per-instruction marker meter, kept as the oracle: watches
    every instruction from ELFie entry, arming at the first MARKER, and
    counts block entries at work loop heads (the profiler's crossings)."""

    wants_instructions = True

    def __init__(self, work_addrs, skip, measure):
        self.work_addrs = frozenset(work_addrs)
        self.skip = skip
        self.measure = measure
        self.crossings = 0
        self.armed = False
        self.start = None
        self.end = None

    def _totals(self, machine):
        return machine.total_cycles(), machine.total_icount()

    def on_instruction(self, machine, thread, pc, insn):
        if not self.armed:
            if insn.op is Op.MARKER:
                self.armed = True
                if self.skip == 0:
                    self.start = self._totals(machine)
            return
        if not thread.new_block or pc not in self.work_addrs:
            return
        self.crossings += 1
        if self.start is None:
            if self.crossings >= self.skip:
                self.start = self._totals(machine)
            return
        if self.end is None and self.crossings >= self.skip + self.measure:
            self.end = self._totals(machine)
            machine.request_stop("region measured")


def _reference_markers(artifact, region, work_addrs, skip, measure, seed,
                       budget_factor=8):
    machine, _ = prepare_elfie_machine(artifact.image, seed=seed)
    meter = _ReferenceMarkerMeter(work_addrs, skip, measure)
    machine.attach(meter)
    budget = budget_factor * (region.warmup + region.length) + 2_000_000
    status = machine.run(max_instructions=budget)
    retired = meter.end[1] - meter.start[1] if meter.end else 0
    if meter.start is None or meter.end is None or retired == 0:
        detail = ("died: %s" % status.detail if status.kind == "signal"
                  else "incomplete: %s (crossings %d of %d)"
                  % (status.detail, meter.crossings, skip + measure))
        return RegionMeasurement(region=region, cpi=None, ok=False,
                                 detail=detail)
    cycles = meter.end[0] - meter.start[0]
    return RegionMeasurement(
        region=region, cpi=cycles / retired, ok=True,
        cycles_per_work=cycles / measure if measure else None,
        icount_per_work=retired / measure if measure else None)


def test_marker_meter_matches_per_instruction_reference(mt_result):
    work_addrs = mt_result.profile.marker_map.work_addresses()
    for region in mt_result.primary_regions:
        artifact = mt_result.elfies[region.name]
        window = mt_result.marker_windows[region.name]
        for skip, measure in ((window["skip"], window["measure"]),
                              (0, window["measure"]), (0, 0), (3, 0)):
            got = measure_elfie_region_markers(
                artifact, region, work_addrs, skip=skip, measure=measure,
                seed=7)
            assert got == _reference_markers(
                artifact, region, work_addrs, skip, measure, seed=7), \
                (region.name, skip, measure)
            assert got.ok, got.detail


def test_marker_meter_counts_the_profilers_crossings(mt_image, mt_profile):
    """Over a whole run under the profiling seed, the meter counts
    exactly the profiler's work crossings: block entries at work loop
    heads, not fall-through executions of them."""
    machine = Machine(seed=0)
    load_elf(machine, mt_image)
    meter = _MarkerMeter(mt_profile.marker_map.work_addresses(),
                         skip=1 << 62, measure=0)
    machine.attach(meter)
    machine.run(max_instructions=50_000_000)
    assert meter.crossings == mt_profile.work_crossings > 0


def test_validate_looppoint_skips_zero_measure_window(mt_result):
    """A window with no work crossings (seen on SPEC OMP apps) measures
    a CPI but no per-work rate; validation propagates None and the
    prediction skips the region instead of raising TypeError."""
    windows = {name: dict(window)
               for name, window in mt_result.marker_windows.items()}
    zeroed = mt_result.primary_regions[0].name
    windows[zeroed]["measure"] = 0
    result = dataclasses.replace(mt_result, marker_windows=windows)
    validation = validate_looppoint(result, seed=7, trials=2)
    by_name = {m.region.name: m for m in validation.measurements}
    assert by_name[zeroed].ok
    assert by_name[zeroed].cycles_per_work is None
    assert by_name[zeroed].icount_per_work is None
    others = [m for name, m in by_name.items() if name != zeroed]
    cycles = sum(m.region.weight * m.cycles_per_work for m in others)
    icount = sum(m.region.weight * m.icount_per_work for m in others)
    assert validation.predicted_cpi == (cycles / icount if others else 0.0)


def test_marker_delimited_region_replays_bit_identical(mt_result, mt_image):
    # satellite: a marker-delimited region through the differential
    # verifier — captured pinball replay must be lockstep-identical
    region = mt_result.primary_regions[0]
    pinball = mt_result.pinballs[region.name]
    report = verify_pinball(mt_image, pinball, seed=0)
    assert report.ok, report.divergence


# -- farm campaign ---------------------------------------------------------


def test_campaign_stamps_selector_and_memoizes(mt_image, tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    images = {"mt.prodcons": mt_image}
    kwargs = dict(slice_markers=64, max_k=4, seed=0, max_alternates=0)
    cold_manifest = str(tmp_path / "cold.jsonl")
    cold = run_looppoint_campaign(images, store, jobs=1,
                                  manifest_path=cold_manifest, **kwargs)
    assert "mt.prodcons" in cold
    records = read_manifest(cold_manifest)
    assert records
    assert all(r["selector"] == REGION_SELECTOR for r in records)
    assert executed_jobs(records, "convert")
    # warm rerun: everything memoized, nothing re-executed
    warm_manifest = str(tmp_path / "warm.jsonl")
    warm = run_looppoint_campaign(images, store, jobs=1,
                                  manifest_path=warm_manifest, **kwargs)
    warm_records = read_manifest(warm_manifest)
    assert not executed_jobs(warm_records, "profile")
    assert not executed_jobs(warm_records, "log")
    assert not executed_jobs(warm_records, "convert")
    cold_regions = [r.name for r in cold["mt.prodcons"].result.regions]
    warm_regions = [r.name for r in warm["mt.prodcons"].result.regions]
    assert cold_regions == warm_regions


# -- CLI -------------------------------------------------------------------


def test_cli_looppoint_profile(tmp_path, capsys):
    markers_out = str(tmp_path / "markers.json")
    code = main(["looppoint", "profile", "--app", "mt.prodcons",
                 "--input", "test", "--markers-out", markers_out])
    assert code == 0
    out = capsys.readouterr().out
    assert "work markers" in out
    assert "sync markers (excluded)" in out
    with open(markers_out) as handle:
        restored = MarkerMap.from_json(json.load(handle))
    assert restored.work_markers


def test_cli_looppoint_select_emits_marker_windows(tmp_path, capsys):
    json_out = str(tmp_path / "regions.json")
    code = main(["looppoint", "select", "--app", "mt.prodcons",
                 "--input", "test", "--max-k", "4",
                 "--warmup-slices", "2", "--json", json_out])
    assert code == 0
    with open(json_out) as handle:
        payload = json.load(handle)
    assert payload["selector"] == REGION_SELECTOR
    assert payload["regions"]
    for region in payload["regions"]:
        assert region["measure"] > 0
        assert region["skip"] >= 0
        assert "markers" in region


def test_cli_looppoint_validate(capsys):
    code = main(["looppoint", "validate", "--app", "mt.prodcons",
                 "--input", "test", "--max-k", "4", "--alternates", "0",
                 "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted" in out
    assert "coverage 100%" in out


def test_cli_farm_run_looppoint_matches_library(tmp_path, capsys):
    """``farm run --selector looppoint`` builds the very campaign
    ``run_looppoint_campaign`` builds: same jobs, same memo keys, same
    stored ELFies."""
    cli_root, cli_manifest = str(tmp_path / "cli"), str(tmp_path / "cli.jsonl")
    code = main(["farm", "run", "--store", cli_root,
                 "--selector", "looppoint", "--app", "mt.prodcons",
                 "--input", "test", "--jobs", "1", "--max-k", "4",
                 "--alternates", "1", "--trials", "1",
                 "--manifest", cli_manifest])
    assert code == 0
    assert "mt.prodcons:" in capsys.readouterr().out

    lib_root, lib_manifest = str(tmp_path / "lib"), str(tmp_path / "lib.jsonl")
    run_looppoint_campaign(
        {"mt.prodcons": MT_APPS["mt.prodcons"].build("test")},
        ArtifactStore(lib_root), jobs=1, manifest_path=lib_manifest,
        max_k=4, max_alternates=1,
        validations=[looppoint_validation("elfie", seed=0, trials=1)])

    def campaign(root, manifest):
        pairs = sorted((r["job"], r["key"]) for r in read_manifest(manifest))
        store = ArtifactStore(root)
        elfies = {job: hashlib.sha256(store.get(key).image).hexdigest()
                  for job, key in pairs if "/convert/" in job}
        return pairs, elfies

    cli_pairs, cli_elfies = campaign(cli_root, cli_manifest)
    lib_pairs, lib_elfies = campaign(lib_root, lib_manifest)
    assert cli_elfies
    assert cli_pairs == lib_pairs
    assert cli_elfies == lib_elfies
