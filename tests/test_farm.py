"""Tests for the checkpoint farm: store, job graph, runner, campaigns."""

import itertools
import json
import os
import shutil
import time
import zlib

import pytest

from repro.core.cli import main
from repro.core.pinball2elf import ElfieArtifact
from repro.core.startup import StartupPlan
from repro.farm import (
    ArtifactStore,
    CampaignError,
    FarmRunner,
    Job,
    JobGraph,
    Ref,
    StoreCorruption,
    executed_jobs,
    read_manifest,
    stable_digest,
    summarize_manifest,
)
from repro.isa.registers import RegisterFile
from repro.machine.memory import PAGE_SIZE
from repro.machine.scheduler import ScheduleSlice
from repro.pipeline import run_campaign
from repro.pinplay.pinball import Pinball, ThreadRecord
from repro.pinplay.regions import RegionSpec
from repro.service import ShardedStore
from repro.simpoint import (
    BBV_SIMPOINT,
    elfie_validation,
    run_pinpoints,
    run_pinpoints_farm,
    validate_with_elfies,
)
from repro.workloads import get_app


def make_pinball(name="pb", pages=None, icount=500):
    if pages is None:
        pages = {0x1000: (5, b"\xab" * PAGE_SIZE),
                 0x3000: (3, b"\xcd" * PAGE_SIZE)}
    return Pinball(
        name=name,
        region=RegionSpec(start=100, length=icount, warmup=50, name=name,
                          weight=0.25),
        pages=pages,
        threads=[ThreadRecord(tid=0, regs=RegisterFile(),
                              region_icount=icount)],
        syscalls=[],
        schedule=[ScheduleSlice(tid=0, quantum=100)],
        brk_start=0x600000,
        brk_end=0x640000,
        program_icount=10_000,
        next_tid=1,
    )


# -- artifact store ---------------------------------------------------------


@pytest.fixture
def stores(tmp_path):
    """An empty store of each layout: the store operations are written
    once over the layouts' primitives, so each store test runs on both."""
    return {"plain": ArtifactStore(str(tmp_path / "plain")),
            "sharded": ShardedStore(str(tmp_path / "sharded"), shards=3)}


def on_each_layout(stores, check):
    """Run *check(store)* on every layout, then fail naming each layout
    that failed.  One test per operation, not per layout, keeps each
    test's id that of the single-layout test it extends."""
    failures = {}
    for layout, store in stores.items():
        try:
            check(store)
        except Exception as exc:
            failures[layout] = exc
    if failures:
        raise AssertionError("failed on %s" % "; ".join(
            "%s layout: %r" % item for item in failures.items())
        ) from next(iter(failures.values()))


def test_store_round_trips_pinball(stores):
    def check(store):
        pinball = make_pinball()
        store.put("k1", pinball)
        assert store.contains("k1")
        assert store.kind_of("k1") == "pinball"
        loaded = store.get("k1")
        assert loaded.pages == pinball.pages
        assert loaded.region == pinball.region
        assert loaded.threads == pinball.threads
        assert loaded.schedule == pinball.schedule
        assert loaded.program_icount == pinball.program_icount
        assert loaded.next_tid == pinball.next_tid

    on_each_layout(stores, check)


def test_store_round_trips_pinball_group(stores):
    def check(store):
        group = {"a": make_pinball("a"), "b": make_pinball("b", icount=700)}
        store.put("g", group)
        assert store.kind_of("g") == "pinballs"
        loaded = store.get("g")
        assert sorted(loaded) == ["a", "b"]
        assert loaded["a"].pages == group["a"].pages
        assert loaded["b"].region_icount == 700

    on_each_layout(stores, check)


def test_store_round_trips_elfie(stores):
    def check(store):
        artifact = ElfieArtifact(
            image=bytes(range(256)) * 40,
            e_type=2,
            entry=0x40_0000,
            startup_base=0x30_0000,
            plan=StartupPlan(tail_instructions={0: 7, 1: 9},
                             symbol_labels=["elfie_entry"],
                             context_symbols=[("t0.rip", "ctx0", 16)]),
            linker_script="SECTIONS {}",
            symbols=[("elfie_entry", 0x40_0000)],
        )
        store.put("e", artifact, kind="elfie")
        loaded = store.get("e")
        assert loaded.image == artifact.image
        assert loaded.entry == artifact.entry
        assert loaded.plan.tail_instructions == {0: 7, 1: 9}
        assert loaded.plan.context_symbols == [("t0.rip", "ctx0", 16)]
        assert loaded.linker_script == "SECTIONS {}"
        assert loaded.symbols == [("elfie_entry", 0x40_0000)]

    on_each_layout(stores, check)


def test_store_deduplicates_shared_pages(stores):
    def check(store):
        pages = {0x1000: (5, b"\x11" * PAGE_SIZE),
                 0x2000: (5, b"\x22" * PAGE_SIZE)}
        store.put("first", make_pinball("first", pages=dict(pages)))
        blocks_after_first = store.stats().blocks
        store.put("second", make_pinball("second", pages=dict(pages)))
        stats = store.stats()
        # the two artifacts share every page block; only the "rest" blob
        # (metadata differs by name) adds a block
        assert stats.blocks == blocks_after_first + 1
        assert stats.objects == 2
        assert stats.logical_bytes > stats.unique_bytes
        assert stats.dedup_ratio > 1.0
        assert stats.compression_ratio > 1.0

    on_each_layout(stores, check)


def test_store_gc_sweeps_unreferenced_blocks(stores):
    def check(store):
        shared = b"\x33" * PAGE_SIZE
        store.put("keep", make_pinball("keep", pages={0x1000: (5, shared)}))
        store.put("drop", make_pinball(
            "drop", pages={0x1000: (5, shared),
                           0x2000: (5, b"\x44" * PAGE_SIZE)}))
        assert store.delete("drop")
        assert not store.delete("drop")
        result = store.gc()
        assert result.removed_blocks > 0
        assert result.live_blocks > 0
        # the survivor must be fully readable after the sweep
        assert store.get("keep").pages[0x1000] == (5, shared)
        assert store.verify() == []

    on_each_layout(stores, check)


def test_store_recreates_fan_out_dirs_removed_behind_its_back(tmp_path):
    # plain layout only: it removes the plain store's block and record
    # directories
    store = ArtifactStore(str(tmp_path))
    page = b"\x55" * PAGE_SIZE
    store.put("first", make_pinball("first", pages={0x1000: (5, page)}))
    digest = codec_digest_of_first_page(store, "first")
    record_dir = os.path.dirname(store._meta_path("first"))
    # The whole directory of the page block and of the record vanish
    # (by hand), and the store must re-create both.
    shutil.rmtree(os.path.dirname(store._block_path(digest)))
    shutil.rmtree(record_dir)
    store.put("fifth", make_pinball("fifth", pages={0x1000: (5, page)}))
    assert os.path.isdir(record_dir)
    assert store.get("fifth").pages[0x1000] == (5, page)
    assert store.verify() == []
    assert not store.contains("first")


def test_store_detects_corruption(stores):
    def check(store):
        pinball = make_pinball()
        store.put("k", pinball)
        # tamper with one page block: valid zlib, wrong content
        digest = codec_digest_of_first_page(store, "k")
        with open(block_file(store, digest), "wb") as handle:
            handle.write(zlib.compress(b"\x00" * PAGE_SIZE))
        with pytest.raises(StoreCorruption):
            store.get("k")
        assert store.verify() == ["k"]

    on_each_layout(stores, check)


def _repeating_group():
    """A pinball group whose pages repeat inside and across members."""
    same = b"\x5a" * PAGE_SIZE
    pages = {0x1000: (5, same), 0x2000: (5, same),
             0x3000: (3, b"\x6b" * PAGE_SIZE)}
    return {"a": make_pinball("a", pages=dict(pages)),
            "b": make_pinball("b", pages=dict(pages), icount=700)}


def test_store_get_reads_each_distinct_block_once(stores):
    def check(store):
        store.put("g", _repeating_group())
        meta = store.get_record("g")["meta"]
        references = [digest for member in meta["members"].values()
                      for digest in [page[2] for page in member["pages"]]
                      + [member["rest"]]]
        reads = []
        read_block = store.read_block

        def counted(digest):
            reads.append(digest)
            return read_block(digest)

        store.read_block = counted
        loaded = store.get("g")
        assert sorted(reads) == sorted(set(references))
        assert len(reads) < len(references)
        # every reference to one block shares its one verified copy
        assert loaded["a"].pages[0x1000][1] is loaded["b"].pages[0x2000][1]
        # nothing outlives the call: a second get verifies afresh
        store.get("g")
        assert len(reads) == 2 * len(set(references))

    on_each_layout(stores, check)


def _counted_group(counter_path):
    with open(counter_path, "a") as handle:
        handle.write("%d\n" % os.getpid())
    return _repeating_group()


def test_tampered_repeated_block_is_detected_and_recomputed(stores,
                                                             tmp_path):
    def check(store):
        counter = str(tmp_path / ("calls-%s" % type(store).__name__))
        key = stable_digest(["group", counter])

        def build():
            graph = JobGraph()
            graph.add(Job(name="capture", fn=_counted_group,
                          args=(counter,), key=key))
            return graph

        FarmRunner(store, jobs=1).run(build())
        repeated = store.get_record(key)["meta"]["members"]["a"]["pages"]
        assert repeated[0][2] == repeated[1][2]
        with open(block_file(store, repeated[0][2]), "wb") as handle:
            handle.write(zlib.compress(b"\x00" * PAGE_SIZE))
        with pytest.raises(StoreCorruption):
            store.get(key)
        runner = FarmRunner(store, jobs=1)
        results = runner.run(build())
        assert runner.report.cache["capture"] == "miss"
        with open(counter) as handle:
            assert len(handle.read().splitlines()) == 2
        assert results["capture"]["b"].pages == _repeating_group()["b"].pages
        assert store.get(key)["a"].pages == results["capture"]["a"].pages
        assert store.verify() == []

    on_each_layout(stores, check)


def record_file(store, key):
    """The file holding *key*'s home record, on either layout."""
    if isinstance(store, ShardedStore):
        store = store.shard_store(store.home_of_key(key))
    return store._meta_path(key)


@pytest.mark.parametrize("garbage", [
    b"not zlib at all",
    zlib.compress(b"{not json"),
    b"",
])
def test_store_garbled_record_raises_corruption(stores, garbage):
    def check(store):
        store.put("k", make_pinball())
        with open(record_file(store, "k"), "wb") as handle:
            handle.write(garbage)
        with pytest.raises(StoreCorruption):
            store.get_record("k")
        with pytest.raises(StoreCorruption):
            store.get("k")

    on_each_layout(stores, check)


def test_store_records_are_compressed(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("snap/one", make_pinball())
    with open(store._meta_path("snap/one"), "rb") as handle:
        record = json.loads(zlib.decompress(handle.read()))
    assert record == store.get_record("snap/one")
    assert list(store.keys()) == ["snap/one"]
    # flat pool: one file per block directly under blocks/
    assert sorted(os.listdir(os.path.join(str(tmp_path), "blocks"))) == \
        sorted(store.block_digests())


@pytest.mark.parametrize("key", ["", "/abs", ".hidden", "a/../b", "a//b",
                                 "snap/.tmp-1-2", "trailing/"])
def test_store_rejects_keys_that_are_not_plain_paths(tmp_path, key):
    store = ArtifactStore(str(tmp_path))
    with pytest.raises(ValueError, match="invalid store key"):
        store.put(key, 1)


def test_store_key_nested_under_another_key_is_an_error(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.put("run", 1)
    with pytest.raises(ValueError, match="collides"):
        store.put("run/1", 2)
    store.put("snap/x", 3)
    with pytest.raises(ValueError, match="collides"):
        store.put("snap", 4)
    assert not store.contains("snap") and not store.contains("run/1")
    with pytest.raises(KeyError):
        store.get("run/1")
    assert sorted(store.keys()) == ["run", "snap/x"]


def test_store_write_skips_a_stale_temp_of_its_own_name(tmp_path,
                                                        monkeypatch):
    """A killed writer's temp file can carry the very name this process
    would stage its next write in (pids are reused): the write takes
    the next name and leaves the stale file to gc."""
    from repro.farm import store as store_module

    store = ArtifactStore(str(tmp_path))
    monkeypatch.setattr(store_module, "_TMP_SEQ", itertools.count())
    stale = os.path.join(str(tmp_path), "blocks", ".tmp-%d-0" % os.getpid())
    with open(stale, "wb") as handle:
        handle.write(b"half a block")
    store.put("k", 1)
    assert store.get("k") == 1
    with open(stale, "rb") as handle:
        assert handle.read() == b"half a block"
    assert list(store.block_digests()) == [store.get_record("k")["meta"]
                                           ["blob"]]
    store.gc(tmp_ttl_s=0)
    assert not os.path.exists(stale)


def test_store_stats_report_record_bytes(stores, capsys):
    def check(store):
        store.put("k1", make_pinball())
        store.put("k2", {"a": make_pinball("a")})
        stats = store.stats()
        on_disk = sum(os.path.getsize(record_file(store, key))
                      for key in ("k1", "k2"))
        assert stats.record_bytes == on_disk > 0
        assert stats.to_json()["record_bytes"] == on_disk
        assert main(["farm", "stats", "--store", store.root]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["record_bytes"] == on_disk
        assert "records: 2 objects, %d bytes" % on_disk in err
        if isinstance(store, ShardedStore):
            shards = stats.to_json()["shards"]
            assert sum(entry["record_bytes"]
                       for entry in shards.values()) == on_disk
            for name, entry in shards.items():
                assert "%s: %d objects, %d record bytes" % (
                    name, entry["objects"], entry["record_bytes"]) in err

    on_each_layout(stores, check)


def test_store_of_layout_version_1_is_refused(tmp_path, capsys):
    """A root written in the fanned-out, uncompressed version-1 layout
    is refused as a whole, not read as the current layout."""
    root = tmp_path / "v1"
    (root / "blocks" / "ab").mkdir(parents=True)
    (root / "objects" / "k1").mkdir(parents=True)
    (root / "blocks" / "ab" / ("ab" + "0" * 62)).write_bytes(
        zlib.compress(b"x"))
    (root / "objects" / "k1" / "k1.json").write_text(json.dumps(
        {"key": "k1", "kind": "object", "meta": {"blob": "ab" + "0" * 62},
         "block_sizes": {"ab" + "0" * 62: 1}, "logical_bytes": 1}))
    (root / "store.json").write_text(json.dumps(
        {"format": "repro-farm-store", "version": 1}))
    before = sorted(str(path) for path in root.rglob("*"))
    with pytest.raises(ValueError, match="v1; this store reads "
                                         "repro-farm-store v2"):
        ArtifactStore(str(root))
    for verb in ("stats", "scrub", "gc"):
        with pytest.raises(SystemExit, match="v1; this store reads"):
            main(["farm", verb, "--store", str(root)])
    assert sorted(str(path) for path in root.rglob("*")) == before


def codec_digest_of_first_page(store, key):
    record = store.get_record(key)
    return record["meta"]["pages"][0][2]


def block_file(store, digest):
    """The file holding *digest*'s home copy, on either layout."""
    if isinstance(store, ShardedStore):
        store = store.shard_store(store.home_of_block(digest))
    return store._block_path(digest)


def test_store_missing_key_raises_keyerror(stores):
    def check(store):
        with pytest.raises(KeyError):
            store.get("nope")
        assert not store.contains("nope")

    on_each_layout(stores, check)


# -- stable digests ---------------------------------------------------------


def test_stable_digest_is_order_independent():
    a = stable_digest({"x": 1, "y": [1, 2], "z": {"n": None}})
    b = stable_digest({"z": {"n": None}, "y": [1, 2], "x": 1})
    assert a == b
    assert stable_digest({"x": 1}) != stable_digest({"x": 2})


def test_stable_digest_handles_bytes_and_dataclasses():
    region = RegionSpec(start=10, length=20, warmup=5, name="r")
    assert stable_digest(region) == stable_digest(region)
    assert stable_digest([b"abc"]) == stable_digest([b"abc"])
    assert stable_digest([b"abc"]) != stable_digest([b"abd"])
    assert stable_digest((1, 2)) == stable_digest([1, 2])


def test_stable_digest_rejects_unknown_types():
    with pytest.raises(TypeError):
        stable_digest(object())


# -- job graph --------------------------------------------------------------


def _identity(x):
    return x


def test_job_graph_rejects_duplicates_and_unknown_deps():
    graph = JobGraph()
    graph.add(Job(name="a", fn=_identity, args=(1,)))
    with pytest.raises(ValueError):
        graph.add(Job(name="a", fn=_identity, args=(2,)))
    with pytest.raises(ValueError):
        graph.add(Job(name="b", fn=_identity, args=(1,), deps=("missing",)))


def test_job_refs_imply_dependencies():
    graph = JobGraph()
    graph.add(Job(name="a", fn=_identity, args=(1,)))
    job = graph.add(Job(name="b", fn=_identity, args=(Ref("a"),)))
    assert job.deps == ("a",)
    assert graph.order() == ["a", "b"]


# -- runner (module-level fns so the worker pool can pickle them) -----------


def _counted_double(counter_path, x):
    with open(counter_path, "a") as handle:
        handle.write("%d\n" % os.getpid())
    return 2 * x


def _add(a, b):
    return a + b


def _flaky(counter_path, fail_times, value):
    with open(counter_path, "a") as handle:
        handle.write("x")
    with open(counter_path) as handle:
        calls = len(handle.read())
    if calls <= fail_times:
        raise RuntimeError("injected failure #%d" % calls)
    return value


def _always_fail():
    raise RuntimeError("boom")


def _sleepy_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _expand_with_square(result, graph, results):
    graph.add(Job(name="square", fn=_identity, args=(result * result,)))


def test_runner_memoizes_results(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    counter = str(tmp_path / "calls")

    def build():
        graph = JobGraph()
        graph.add(Job(name="double", fn=_counted_double, args=(counter, 21),
                      key=stable_digest(["double", 21]), stage="work"))
        graph.add(Job(name="sum", fn=_add, args=(Ref("double"), 8)))
        return graph

    manifest = str(tmp_path / "cold.jsonl")
    runner = FarmRunner(store, jobs=1, manifest_path=manifest)
    results = runner.run(build())
    assert results == {"double": 42, "sum": 50}
    assert runner.report.cache_hits == 0

    warm_manifest = str(tmp_path / "warm.jsonl")
    runner = FarmRunner(store, jobs=1, manifest_path=warm_manifest)
    results = runner.run(build())
    assert results == {"double": 42, "sum": 50}
    assert runner.report.cache["double"] == "hit"
    with open(counter) as handle:
        assert len(handle.read().splitlines()) == 1  # executed exactly once
    records = read_manifest(warm_manifest)
    by_job = {record["job"]: record for record in records}
    assert by_job["double"]["cache"] == "hit"
    assert by_job["sum"]["cache"] == "none"  # keyless jobs always run
    assert not executed_jobs(records, "work")


def test_runner_parallel_matches_serial(tmp_path):
    def build():
        graph = JobGraph()
        graph.add(Job(name="a", fn=_identity, args=(3,)))
        graph.add(Job(name="b", fn=_identity, args=(4,)))
        graph.add(Job(name="sum", fn=_add, args=(Ref("a"), Ref("b"))))
        return graph

    serial = FarmRunner(ArtifactStore(str(tmp_path / "s1")), jobs=1).run(build())
    fanned = FarmRunner(ArtifactStore(str(tmp_path / "s2")), jobs=2).run(build())
    assert serial == fanned == {"a": 3, "b": 4, "sum": 7}


def test_runner_fans_out_across_workers(tmp_path):
    graph = JobGraph()
    graph.add(Job(name="w0", fn=_sleepy_pid, args=(0.3,)))
    graph.add(Job(name="w1", fn=_sleepy_pid, args=(0.3,)))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=2, manifest_path=manifest)
    results = runner.run(graph)
    # two independent jobs land on two distinct pool workers, and none
    # of them on the parent
    assert len(set(results.values())) == 2
    assert os.getpid() not in results.values()
    summary = summarize_manifest(read_manifest(manifest))
    assert summary["jobs"] == 2 and summary["ok"] == 2
    assert len(summary["workers"]) == 2


def test_runner_local_jobs_stay_in_parent(tmp_path):
    graph = JobGraph()
    graph.add(Job(name="here", fn=_sleepy_pid, args=(0.0,), local=True))
    results = FarmRunner(None, jobs=2).run(graph)
    assert results["here"] == os.getpid()


def test_runner_retries_then_succeeds_inline(tmp_path, monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    counter = str(tmp_path / "calls")
    graph = JobGraph()
    graph.add(Job(name="flaky", fn=_flaky, args=(counter, 2, "ok"),
                  retries=3))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=1, manifest_path=manifest)
    results = runner.run(graph)
    assert results["flaky"] == "ok"
    record = read_manifest(manifest)[0]
    assert record["state"] == "ok"
    assert record["attempts"] == 3


def test_runner_retries_then_succeeds_in_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    counter = str(tmp_path / "calls")
    graph = JobGraph()
    graph.add(Job(name="flaky", fn=_flaky, args=(counter, 1, "ok")))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=2, manifest_path=manifest)
    results = runner.run(graph)
    assert results["flaky"] == "ok"
    record = read_manifest(manifest)[0]
    assert record["attempts"] == 2
    assert summarize_manifest([record])["retries"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_runner_surfaces_permanent_failure(tmp_path, jobs, monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    graph = JobGraph()
    graph.add(Job(name="doomed", fn=_always_fail, retries=1))
    graph.add(Job(name="downstream", fn=_identity, args=(Ref("doomed"),)))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=jobs, manifest_path=manifest)
    with pytest.raises(CampaignError) as excinfo:
        runner.run(graph)
    assert "doomed" in excinfo.value.failures
    by_job = {record["job"]: record for record in read_manifest(manifest)}
    assert by_job["doomed"]["state"] == "failed"
    assert by_job["doomed"]["attempts"] == 2
    assert "boom" in by_job["doomed"]["error"]
    assert by_job["downstream"]["state"] == "blocked"
    assert "doomed" in by_job["downstream"]["error"]


def test_runner_non_strict_returns_partial_results(tmp_path, monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    graph = JobGraph()
    graph.add(Job(name="fine", fn=_identity, args=(1,)))
    graph.add(Job(name="doomed", fn=_always_fail, retries=0))
    graph.add(Job(name="blocked", fn=_identity, args=(Ref("doomed"),)))
    runner = FarmRunner(None, jobs=1)
    results = runner.run(graph, strict=False)
    assert results == {"fine": 1}
    assert runner.report.states == {"fine": "ok", "doomed": "failed",
                                    "blocked": "blocked"}


def test_runner_expand_adds_downstream_jobs(tmp_path):
    graph = JobGraph()
    graph.add(Job(name="seed", fn=_identity, args=(6,),
                  expand=_expand_with_square))
    results = FarmRunner(None, jobs=1).run(graph)
    assert results == {"seed": 6, "square": 36}


def test_runner_recovers_from_corrupt_cache_entry(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    counter = str(tmp_path / "calls")
    key = stable_digest(["double", 5])

    def build():
        graph = JobGraph()
        graph.add(Job(name="double", fn=_counted_double,
                      args=(counter, 5), key=key))
        return graph

    FarmRunner(store, jobs=1).run(build())
    # smash the cached entry's blob on disk
    record = store.get_record(key)
    with open(store._block_path(record["meta"]["blob"]), "wb") as handle:
        handle.write(zlib.compress(b"garbage"))
    runner = FarmRunner(store, jobs=1)
    results = runner.run(build())
    assert results["double"] == 10
    assert runner.report.cache["double"] == "miss"  # recomputed, not served
    with open(counter) as handle:
        assert len(handle.read().splitlines()) == 2
    assert store.get(key) == 10  # the bad entry was replaced


# -- end-to-end: farm campaign == direct pipeline ---------------------------


PIPELINE = dict(slice_size=10_000, warmup=20_000, max_k=4, max_alternates=1)


@pytest.fixture(scope="module")
def mcf_image():
    return get_app("505.mcf_r").build("test")


def test_farm_campaign_matches_direct_path(tmp_path, mcf_image):
    store = ArtifactStore(str(tmp_path / "store"))
    cold_manifest = str(tmp_path / "cold.jsonl")
    outcome = run_pinpoints_farm(
        mcf_image, "505.mcf_r", store, jobs=1,
        manifest_path=cold_manifest,
        validations=[elfie_validation("v", trials=1)],
        **PIPELINE)
    direct = run_pinpoints(mcf_image, "505.mcf_r", **PIPELINE)
    reference = validate_with_elfies(direct, trials=1)

    assert [r.name for r in outcome.result.regions] == \
        [r.name for r in direct.regions]
    assert outcome.result.pinballs.keys() == direct.pinballs.keys()
    assert outcome.result.elfies.keys() == direct.elfies.keys()
    farm_validation = outcome.validations["v"]
    assert farm_validation.abs_error_percent == reference.abs_error_percent
    assert farm_validation.covered_weight == reference.covered_weight

    # warm re-run: everything cached, no capture or conversion executes
    warm_manifest = str(tmp_path / "warm.jsonl")
    warm = run_pinpoints_farm(
        mcf_image, "505.mcf_r", store, jobs=1,
        manifest_path=warm_manifest,
        validations=[elfie_validation("v", trials=1)],
        **PIPELINE)
    records = read_manifest(warm_manifest)
    assert not executed_jobs(records, "log")
    assert not executed_jobs(records, "convert")
    assert not executed_jobs(records, "validate")
    assert (warm.validations["v"].abs_error_percent
            == farm_validation.abs_error_percent)


@pytest.mark.parametrize("setting", ["jobs", "manifest_path", "store"])
def test_run_campaign_rejects_settings_its_runner_would_ignore(tmp_path,
                                                               setting):
    """With a runner, jobs/manifest_path and a foreign store are errors,
    not silently dropped; the runner's own store is accepted."""
    store = ArtifactStore(str(tmp_path / "store"))
    runner = FarmRunner(store, jobs=1)
    given = {"jobs": 2, "manifest_path": str(tmp_path / "run.jsonl"),
             "store": ArtifactStore(str(tmp_path / "other"))}[setting]
    with pytest.raises(TypeError):
        run_campaign(BBV_SIMPOINT, {"505.mcf_r": b""}, runner=runner,
                     **{setting: given})
    assert run_campaign(BBV_SIMPOINT, {}, store, runner=runner,
                        preemptible=True) == {}


# -- CLI --------------------------------------------------------------------


def test_cli_farm_run_stats_gc(tmp_path, capsys):
    store_dir = str(tmp_path / "farm")
    manifest = str(tmp_path / "run.jsonl")
    argv = ["farm", "run", "--store", store_dir, "--app", "505.mcf_r",
            "--input", "test", "--jobs", "1", "--slice-size", "10000",
            "--warmup", "20000", "--max-k", "4", "--alternates", "1",
            "--trials", "1", "--manifest", manifest]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "505.mcf_r:" in cold and "coverage" in cold
    assert "cache hits: 0" in cold
    # interpreting stages (profile/log/validate) report aggregate MIPS
    assert "interpreter MIPS:" in cold

    assert main(argv) == 0  # warm: same campaign, all hits
    warm = capsys.readouterr().out
    assert "misses: 0" in warm
    assert "interpreter MIPS:" not in warm  # nothing executed

    assert main(["farm", "stats", "--store", store_dir]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["objects"] > 0
    assert stats["dedup_ratio"] >= 1.0

    assert main(["farm", "gc", "--store", store_dir]) == 0
    assert "live" in capsys.readouterr().out


@pytest.mark.parametrize("selector,flag,value", [
    ("looppoint", "--slice-size", "5"),
    ("looppoint", "--warmup", "7"),
    ("bbv-simpoint", "--slice-markers", "8"),
    ("bbv-simpoint", "--warmup-slices", "2"),
])
def test_cli_farm_run_rejects_other_selectors_flags(tmp_path, selector,
                                                    flag, value):
    """A flag the chosen selector does not own is an error, raised
    before the store is created, not silently ignored."""
    store_dir = str(tmp_path / "farm")
    with pytest.raises(SystemExit) as exited:
        main(["farm", "run", "--store", store_dir, "--selector", selector,
              "--app", "mt.prodcons", "--input", "test", "--jobs", "1",
              "--max-k", "2", "--alternates", "0", "--trials", "1",
              flag, value])
    assert exited.value.code == ("error: %s does not apply to --selector %s"
                                 % (flag, selector))
    assert not os.path.exists(store_dir)


def test_cli_farm_run_rejects_unknown_app(tmp_path):
    """An unknown --app is a one-line error, raised before the store is
    created."""
    store_dir = str(tmp_path / "farm")
    with pytest.raises(SystemExit) as exited:
        main(["farm", "run", "--store", store_dir, "--app", "nope",
              "--input", "test", "--jobs", "1"])
    assert exited.value.code == "error: unknown benchmark 'nope'"
    assert not os.path.exists(store_dir)


# -- interpreter MIPS accounting --------------------------------------------


def test_job_icount_recognizes_artifact_shapes():
    from repro.farm.runner import _job_icount

    class _Profile:
        total_icount = 120_000

    class _Region:
        end = 45_000

    class _Pinball:
        region = _Region()

    assert _job_icount(_Profile()) == 120_000
    assert _job_icount(_Pinball()) == 45_000
    # a single-pass log group ran the interpreter to the latest window end
    assert _job_icount({"r0": _Pinball(), "r1": _Profile()}) == 120_000
    assert _job_icount(None) is None
    assert _job_icount(object()) is None
    assert _job_icount({"k": object()}) is None


def test_summarize_manifest_pools_interpreter_mips():
    records = [
        # two interpreting jobs: 2 M instrs over 1 s -> 2.0 MIPS
        {"state": "ok", "cache": "miss", "stage": "profile",
         "wall_s": 0.75, "icount": 1_500_000, "worker": 1, "attempts": 1},
        {"state": "ok", "cache": "miss", "stage": "log",
         "wall_s": 0.25, "icount": 500_000, "worker": 1, "attempts": 1},
        # non-interpreting job: wall time must not dilute the MIPS pool
        {"state": "ok", "cache": "miss", "stage": "cluster",
         "wall_s": 5.0, "worker": 1, "attempts": 1},
        # cache hit: contributes nothing to either pool
        {"state": "ok", "cache": "hit", "stage": "profile",
         "wall_s": 0.0, "icount": None, "worker": None, "attempts": 0},
    ]
    summary = summarize_manifest(records)
    assert summary["executed_icount"] == 2_000_000
    assert summary["interp_wall_s"] == 1.0
    assert summary["mips"] == 2.0
    assert summary["executed_wall_s"] == 6.0
    assert summary["stages"]["profile"]["mips"] == 2.0
    assert summary["stages"]["log"]["mips"] == 2.0
    assert summary["stages"]["cluster"]["mips"] == 0.0
