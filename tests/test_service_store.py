"""Tests for the sharded store and the store's crash-safety discipline."""

import json
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.farm import ArtifactStore, open_store
from repro.farm.manifest import RunManifest, read_manifest
from repro.service import SHARDS_MARKER, ShardedStore
from repro.service.shards import shard_names


def fill(store, count=12, size=3000):
    keys = {}
    for index in range(count):
        key = "obj/%02d" % index
        keys[key] = {"index": index, "payload": b"x" * size + bytes([index])}
        store.put(key, keys[key], "object")
    return keys


# -- sharded basics ---------------------------------------------------------


def test_sharded_store_round_trips(tmp_path):
    store = ShardedStore(str(tmp_path), shards=3)
    keys = fill(store)
    for key, value in keys.items():
        assert store.contains(key)
        assert store.kind_of(key) == "object"
        assert store.get(key) == value
    assert sorted(store.keys()) == sorted(keys)


def test_sharded_store_spreads_blocks(tmp_path):
    store = ShardedStore(str(tmp_path), shards=3)
    fill(store, count=30)
    populated = [name for name in store.shards
                 if list(store.shard_store(name).block_digests())]
    assert len(populated) >= 2  # 30 distinct blocks cannot all land on one


def test_sharded_store_marker_pins_the_ring(tmp_path):
    ShardedStore(str(tmp_path), shards=3)
    # reopening without a count adopts the marker's ring
    again = ShardedStore(str(tmp_path))
    assert again.shards == shard_names(3)
    # a conflicting count is an error, not a silent re-ring
    with pytest.raises(ValueError, match="rebalance"):
        ShardedStore(str(tmp_path), shards=5)


def test_sharded_store_pickles_as_its_root(tmp_path):
    """A pooled runner ships its store with every task: the pickle holds
    the root and shard count (not the ring), and the copy reopens the
    same ring and reads what the original wrote."""
    store = ShardedStore(str(tmp_path), shards=3)
    keys = fill(store)
    blob = pickle.dumps(store)
    assert len(blob) < 512
    copy = pickle.loads(blob)
    assert copy.shards == store.shards
    assert all(copy.home_of_key(key) == store.home_of_key(key)
               for key in keys)
    assert {key: copy.get(key) for key in keys} == keys
    # a store re-ringed since it was pickled is refused, not misread
    store.rebalance(shards=4)
    with pytest.raises(ValueError, match="rebalance"):
        pickle.loads(blob)


def test_open_store_dispatches_on_marker(tmp_path):
    plain_root = str(tmp_path / "plain")
    sharded_root = str(tmp_path / "sharded")
    ArtifactStore(plain_root).put("k", 1)
    ShardedStore(sharded_root, shards=2).put("k", 2)
    assert isinstance(open_store(plain_root), ArtifactStore)
    opened = open_store(sharded_root)
    assert isinstance(opened, ShardedStore)
    assert opened.get("k") == 2


@pytest.mark.parametrize("layout", ["plain", "sharded"])
def test_store_marker_of_another_version_is_refused(tmp_path, layout):
    """The store markers are version-checked the way a snapshot's format
    version is: a root written in another layout fails to open instead
    of being read as this one."""
    root = str(tmp_path / layout)
    marker = os.path.join(root, SHARDS_MARKER if layout == "sharded"
                          else "store.json")
    open_store(root, shards=2 if layout == "sharded" else 0).put("k", 1)
    with open(marker) as handle:
        config = json.load(handle)
    config["version"] += 1
    with open(marker, "w") as handle:
        json.dump(config, handle)
    with pytest.raises(ValueError, match="v%d; this store reads"
                       % config["version"]):
        open_store(root)


def test_layout_conflicts_write_nothing(tmp_path, capsys):
    """A root keeps the layout it was created with; scrub reads either."""
    from repro.core.cli import main
    from repro.service import ServerThread

    plain = str(tmp_path / "plain")
    ArtifactStore(plain).put("k", 123)
    before = sorted(os.listdir(plain))
    assert main(["farm", "scrub", "--store", plain]) == 0
    assert "scrubbed 1 objects" in capsys.readouterr().out
    with pytest.raises(SystemExit) as rebalance:
        main(["farm", "rebalance", "--store", plain, "--dry-run"])
    assert rebalance.value.code != 0
    with pytest.raises(ValueError, match="plain store"):
        open_store(plain, shards=2)
    with pytest.raises(ValueError, match="plain store"):
        ServerThread(plain, shards=2)
    with pytest.raises(ValueError, match="plain store"):
        ShardedStore(plain)
    assert sorted(os.listdir(plain)) == before
    assert list(open_store(plain).keys()) == ["k"]
    sharded = str(tmp_path / "sharded")
    open_store(sharded, shards=2).put("k", 456)
    before = sorted(os.listdir(sharded))
    with pytest.raises(ValueError, match="rebalance"):
        open_store(sharded, shards=3)
    with pytest.raises(ValueError, match="sharded store"):
        ArtifactStore(sharded)
    assert sorted(os.listdir(sharded)) == before
    assert open_store(sharded).get("k") == 456


def test_maintenance_never_creates_a_store(tmp_path):
    """The farm maintenance and snapshot read commands, on a root that
    holds no store, exit non-zero and leave the path uncreated (a
    mistyped --store)."""
    from repro.core.cli import main

    missing = str(tmp_path / "typo")
    for argv in (["farm", "stats"], ["farm", "gc", "--dry-run"],
                 ["farm", "scrub"], ["farm", "rebalance", "--dry-run"],
                 ["snapshot", "info", "--key", "k"],
                 ["snapshot", "resume", "--key", "k"]):
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--store", missing])
        assert exited.value.code != 0
        assert not os.path.exists(missing)


# -- read repair / scrub ----------------------------------------------------


def _some_block(store):
    for name in store.shards:
        for digest in store.shard_store(name).block_digests():
            return name, digest
    raise AssertionError("empty store")


def test_read_repair_restores_home_copy(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    keys = fill(store, count=6)
    home, digest = _some_block(store)
    data = store.shard_store(home).read_block(digest)
    other = [name for name in store.shards if name != home][0]
    # strand the only copy on the wrong shard
    store.shard_store(other).write_block(digest, data)
    store.shard_store(home).remove_block(digest)
    assert store.read_block(digest) == data
    assert store.block_repairs[home] == 1
    # the repair left a fresh home copy behind
    assert store.shard_store(home).has_block(digest)
    for key, value in keys.items():
        assert store.get(key) == value


def test_record_read_repair(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    fill(store, count=4)
    key = "obj/00"
    home = store.home_of_key(key)
    other = [name for name in store.shards if name != home][0]
    record = store.shard_store(home).get_record(key)
    store.shard_store(other).put_record(key, record)
    store.shard_store(home).remove_record(key)
    assert store.get_record(key) == record
    assert store.record_repairs[home] == 1


def test_scrub_heals_and_reports_loss(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    fill(store, count=6)
    # strand obj/00's block away from home (healable) ...
    digest = store.get_record("obj/00")["meta"]["blob"]
    home = store.home_of_block(digest)
    data = store.shard_store(home).read_block(digest)
    other = [name for name in store.shards if name != home][0]
    store.shard_store(other).write_block(digest, data)
    store.shard_store(home).remove_block(digest)
    # ... and destroy every copy of another (real loss)
    lost_key = "obj/05"
    record = store.get_record(lost_key)
    lost_digest = record["meta"]["blob"]
    for name in store.shards:
        store.shard_store(name).remove_block(lost_digest)
    report = store.scrub()
    assert report.repaired_blocks == 1
    assert report.lost_keys == [lost_key]
    assert store.verify() == [lost_key]


# -- rebalance --------------------------------------------------------------


def test_rebalance_grows_the_ring(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    keys = fill(store, count=20)
    before_blocks = sum(
        len(list(store.shard_store(name).block_digests()))
        for name in store.shards)
    moved = store.rebalance(shards=3)
    assert moved.shards == 3
    assert store.shards == shard_names(3)
    # nothing lost, placement canonical: a second pass moves nothing
    again = store.rebalance()
    assert again.moved_blocks == 0 and again.moved_records == 0
    after_blocks = sum(
        len(list(store.shard_store(name).block_digests()))
        for name in store.shards)
    assert after_blocks == before_blocks
    for key, value in keys.items():
        assert store.get(key) == value
    # the marker was rewritten, so a fresh open sees the new ring
    assert ShardedStore(str(tmp_path)).shards == shard_names(3)


def test_rebalance_dry_run_moves_nothing(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    fill(store, count=10)
    planned = store.rebalance(shards=4, dry_run=True)
    assert planned.dry_run and planned.moved_blocks > 0
    assert store.shards == shard_names(2)
    assert ShardedStore(str(tmp_path)).shards == shard_names(2)


def test_crashed_rebalance_is_recoverable(tmp_path):
    """Moved-but-uncommitted objects are strays read repair finds."""
    store = ShardedStore(str(tmp_path), shards=2)
    keys = fill(store, count=10)
    # simulate the crash: blocks moved to shard-02's layout, but the
    # marker (committed last) still names the old two-shard ring
    from repro.service.ring import HashRing
    new_ring = HashRing(shard_names(3), vnodes=store.ring.vnodes)
    extra = ArtifactStore(os.path.join(str(tmp_path), "shard-02"))
    for name in store.shards:
        shard = store.shard_store(name)
        for digest in list(shard.block_digests()):
            if new_ring.shard_for(digest) == "shard-02":
                extra.write_block(digest, shard.read_block(digest))
                shard.remove_block(digest)
    reopened = ShardedStore(str(tmp_path))
    assert reopened.shards == shard_names(2)  # old ring still rules
    # ... and every artifact still reads (repair pulls the strays back)
    # after rebalance adopts the strays into the new ring
    reopened.rebalance(shards=3)
    for key, value in keys.items():
        assert reopened.get(key) == value
    assert reopened.verify() == []


# -- gc across shards -------------------------------------------------------


def test_sharded_gc_keeps_live_blocks_anywhere(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    fill(store, count=8)
    home, digest = _some_block(store)
    data = store.shard_store(home).read_block(digest)
    other = [name for name in store.shards if name != home][0]
    store.shard_store(other).write_block(digest, data)  # live stray
    for key in ["obj/%02d" % index for index in range(4)]:
        store.delete(key)
    result = store.gc()
    assert result.removed_blocks > 0
    assert store.verify() == []
    # the stray replica of a live block survived the sweep
    assert store.shard_store(other).has_block(digest)


def test_sharded_stats_per_shard_breakdown(tmp_path):
    store = ShardedStore(str(tmp_path), shards=2)
    fill(store, count=10)
    store.get("obj/00")
    stats = store.stats()
    assert set(stats.shards) == set(shard_names(2))
    assert sum(entry["objects"] for entry in stats.shards.values()) == 10
    assert stats.objects == 10
    report = stats.to_json()
    assert "shards" in report
    for entry in report["shards"].values():
        for field in ("objects", "blocks", "stored_bytes", "hit_rate",
                      "repairs", "dedup_ratio"):
            assert field in entry


# -- crash safety: killed writer, torn manifest -----------------------------


def _writer_loop(root, barrier):
    store = ShardedStore(root)
    barrier.wait()
    index = 0
    while True:
        payload = {"index": index, "blob": os.urandom(40_000)}
        store.put("victim/%04d" % index, payload, "object")
        index += 1


@pytest.mark.parametrize("kill_after_s", [0.05, 0.15])
def test_killed_writer_corrupts_nothing(tmp_path, kill_after_s):
    """SIGKILL mid-put must never leave a corrupt or partial artifact."""
    root = str(tmp_path)
    store = ShardedStore(root, shards=2)
    survivors = fill(store, count=4)
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2)
    writer = context.Process(target=_writer_loop, args=(root, barrier))
    writer.start()
    barrier.wait()
    time.sleep(kill_after_s)
    os.kill(writer.pid, signal.SIGKILL)
    writer.join(10.0)
    fresh = ShardedStore(root)
    # pre-existing artifacts are untouched
    for key, value in survivors.items():
        assert fresh.get(key) == value
    # whatever the victim managed to commit is fully readable: the
    # record write is the commit point, and it lands after the blocks
    for key in fresh.keys():
        fresh.get(key)
    assert fresh.verify() == []
    # interrupted temp files are swept by gc, not served to readers
    fresh.gc(tmp_ttl_s=0.0)
    for name in fresh.shards:
        shard_root = os.path.join(root, name)
        for dirpath, _dirnames, filenames in os.walk(shard_root):
            for filename in filenames:
                assert not filename.startswith(".tmp-")


def test_manifest_append_is_atomic_per_line(tmp_path):
    path = str(tmp_path / "run.jsonl")
    manifest = RunManifest(path)
    for index in range(5):
        manifest.append({"job": "j%d" % index, "state": "ok"})
    # a torn trailing line (killed writer) must not poison the reader
    with open(path, "ab") as handle:
        handle.write(b'{"job": "torn", "sta')
    records = read_manifest(path)
    assert [record["job"] for record in records] == \
        ["j%d" % index for index in range(5)]
    # appends after the tear start on a fresh line and are readable
    manifest.append({"job": "after", "state": "ok"})
    assert read_manifest(path)[-1]["job"] == "after"


def _manifest_writer(path, worker_id, count):
    manifest = RunManifest(path, resume=True)
    for index in range(count):
        manifest.append({"job": "w%d-%d" % (worker_id, index),
                         "state": "ok"})


def test_manifest_concurrent_appends_interleave_whole_lines(tmp_path):
    path = str(tmp_path / "run.jsonl")
    context = multiprocessing.get_context("fork")
    writers = [context.Process(target=_manifest_writer,
                               args=(path, worker_id, 50))
               for worker_id in range(4)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(30.0)
        assert writer.exitcode == 0
    records = read_manifest(path)
    assert len(records) == 200  # no torn or interleaved lines
    seen = {record["job"] for record in records}
    assert len(seen) == 200


def test_sharded_store_marker_is_json(tmp_path):
    ShardedStore(str(tmp_path), shards=2)
    with open(os.path.join(str(tmp_path), SHARDS_MARKER)) as handle:
        marker = json.load(handle)
    assert marker["format"] == "repro-farm-shards"
    assert marker["shards"] == shard_names(2)


def test_cli_rebalance_and_scrub(tmp_path, capsys):
    from repro.core.cli import main

    root = str(tmp_path / "store")
    store = ShardedStore(root, shards=2)
    fill(store, 6)
    assert main(["farm", "rebalance", "--store", root, "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "across 3 shards" in out
    reopened = ShardedStore(root)
    assert len(reopened.shards) == 3
    assert reopened.verify() == []
    assert main(["farm", "scrub", "--store", root]) == 0
    assert "0 lost" in capsys.readouterr().out
