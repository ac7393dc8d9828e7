"""The farm's commit path: pool workers write the store themselves.

A pooled campaign's parent schedules, settles and writes the manifest;
each worker encodes and commits the keyed results it computes.  These
tests pin that split exactly (no store write in the parent pid, and the
same store tree as an in-process run, on both layouts), the store's
safety under concurrent and killed writers, and the pool's recovery
from a worker that dies mid-job.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.farm import (
    ArtifactStore,
    FarmRunner,
    Job,
    JobGraph,
    read_manifest,
    stable_digest,
)
from repro.machine.memory import PAGE_SIZE
from repro.service import ShardedStore
from repro.simpoint import elfie_validation, run_pinpoints_campaign
from repro.workloads import get_app

from tests.test_farm import make_pinball

#: A tiny PinPoints campaign: one cheap app, few regions.
PIPELINE = dict(slice_size=4_000, warmup=8_000, max_k=4, max_alternates=1)
APP = "505.mcf_r"

#: Bounds the tests that exercise a pool: a lost task used to hang
#: ``FarmRunner.run`` forever, and a hang must fail, not stall the suite.
DEADLINE_S = 120


@pytest.fixture
def deadline():
    def expire(signum, frame):
        raise TimeoutError("no result within %d s" % DEADLINE_S)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- a store that logs which process writes ---------------------------------


class _LogWrites:
    """Appends ``<pid> <primitive>`` to ``self.log`` on every block or
    record write, from whichever process makes it (workers included:
    the log is a file, and the store pickles with its ``log`` path)."""

    log = ""

    def _note(self, primitive):
        with open(self.log, "a") as handle:
            handle.write("%d %s\n" % (os.getpid(), primitive))

    def write_block(self, digest, data):
        self._note("write_block")
        super().write_block(digest, data)

    def put_record(self, key, record):
        self._note("put_record")
        super().put_record(key, record)


class _LoggedPlainStore(_LogWrites, ArtifactStore):
    pass


class _LoggedShardedStore(_LogWrites, ShardedStore):
    pass


def _open_logged(layout, root, log):
    store = (_LoggedShardedStore(root, shards=2) if layout == "sharded"
             else _LoggedPlainStore(root))
    store.log = log
    return store


def _writers(log):
    """{pid: number of writes} from a write log."""
    counts = {}
    with open(log) as handle:
        for line in handle:
            pid = int(line.split()[0])
            counts[pid] = counts.get(pid, 0) + 1
    return counts


def _tree(root):
    """{relative path: bytes} of every file under *root*, temp files of
    in-flight writes excluded."""
    tree = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.startswith(".tmp-"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                tree[os.path.relpath(path, root)] = handle.read()
    return tree


@pytest.fixture(scope="module")
def mcf_image():
    return get_app(APP).build("test")


def _campaign(image, store, jobs):
    return run_pinpoints_campaign(
        {APP: image}, store, runner=FarmRunner(store, jobs=jobs), seed=1,
        validations=[elfie_validation("elfie", seed=101, trials=1)],
        **PIPELINE)


@pytest.mark.parametrize("layout", ["plain", "sharded"])
def test_pooled_campaign_commits_in_workers_only(tmp_path, mcf_image,
                                                 layout, deadline):
    """The parent of a pooled campaign writes no block and no record,
    and the workers leave the very store an in-process run leaves."""
    pooled_log = str(tmp_path / "pooled.log")
    pooled = _open_logged(layout, str(tmp_path / "pooled"), pooled_log)
    pooled_outcome = _campaign(mcf_image, pooled, jobs=2)
    writers = _writers(pooled_log)
    assert os.getpid() not in writers
    assert writers  # the workers did commit

    inline_log = str(tmp_path / "inline.log")
    inline = _open_logged(layout, str(tmp_path / "inline"), inline_log)
    inline_outcome = _campaign(mcf_image, inline, jobs=1)
    assert set(_writers(inline_log)) == {os.getpid()}

    assert _tree(pooled.root) == _tree(inline.root)
    assert (pooled_outcome[APP].validations["elfie"].abs_error_percent
            == inline_outcome[APP].validations["elfie"].abs_error_percent)
    assert pooled.scrub().lost_keys == []


# -- a worker that dies mid-job ---------------------------------------------


def _die_on_first_attempt(marker, value):
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _double(value):
    return 2 * value


def test_worker_death_fails_the_job_under_the_retry_rule(tmp_path,
                                                         deadline,
                                                         monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    marker = str(tmp_path / "died")
    manifest = str(tmp_path / "run.jsonl")
    graph = JobGraph()
    graph.add(Job(name="victim", fn=_die_on_first_attempt,
                  args=(marker, "survived")))
    graph.add(Job(name="bystander", fn=_double, args=(21,)))
    runner = FarmRunner(None, jobs=2, manifest_path=manifest)
    results = runner.run(graph)
    assert results == {"victim": "survived", "bystander": 42}
    assert os.path.exists(marker)
    records = {record["job"]: record for record in read_manifest(manifest)}
    assert records["victim"]["state"] == "ok"
    assert records["victim"]["attempts"] == 2


def test_worker_death_exhausting_retries_fails_the_job(tmp_path, deadline,
                                                       monkeypatch):
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    graph = JobGraph()
    graph.add(Job(name="victim", fn=_die_on_first_attempt,
                  args=(str(tmp_path / "died"), "survived"), retries=0))
    runner = FarmRunner(None, jobs=2)
    runner.run(graph, strict=False)
    assert runner.report.states == {"victim": "failed"}
    assert "BrokenProcessPool" in runner.report.failures["victim"]


def _sleep_then_double(value):
    time.sleep(0.5)
    return 2 * value


def test_worker_death_ends_a_pool_whose_survivors_ignore_sigterm(
        tmp_path, deadline):
    """A broken pool SIGTERMs its surviving workers and waits for them
    to exit; workers that inherited a SIGTERM handler (a preemptible
    ``farm run``) finish their job first, and the campaign still ends."""
    graph = JobGraph()
    graph.add(Job(name="victim", fn=_die_on_first_attempt,
                  args=(str(tmp_path / "died"), "survived"), retries=0))
    graph.add(Job(name="bystander", fn=_sleep_then_double, args=(21,),
                  retries=0))
    runner = FarmRunner(None, jobs=2)
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        runner.run(graph, strict=False)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert runner.report.states["victim"] == "failed"


# -- concurrent and killed writers ------------------------------------------


def _page(fill):
    return bytes([fill]) * PAGE_SIZE


def _group(tag):
    """A pinball group: pages shared with every other group, plus one
    page of its own per pinball."""
    return {name: make_pinball(name, pages={
        0x1000: (5, _page(0x11)),
        0x2000: (5, _page(0x22)),
        0x3000: (3, _page((tag * 7 + index) % 251 + 1)),
    }) for index, name in enumerate(("a", "b"))}


class _DyingStore(ArtifactStore):
    """SIGKILLs its own process as it is about to write its third block."""

    written = 0

    def write_block(self, digest, data):
        if self.written == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        self.written += 1
        super().write_block(digest, data)


def _commit_group(root, key, tag):
    _DyingStore(root).put(key, _group(tag), "pinballs")


def test_writer_killed_mid_commit_leaves_no_record(tmp_path, deadline):
    root = str(tmp_path / "store")
    ArtifactStore(root)
    key = stable_digest(["killed", "commit"])
    writer = multiprocessing.get_context("fork").Process(
        target=_commit_group, args=(root, key, 1))
    writer.start()
    writer.join(60)
    assert writer.exitcode == -signal.SIGKILL

    store = ArtifactStore(root)
    assert not store.contains(key)
    assert list(store.block_digests())  # it died after writing blocks
    report = store.scrub()
    assert report.objects == 0 and report.lost_keys == []

    # the next campaign finds no entry and recomputes the job
    graph = JobGraph()
    graph.add(Job(name="log", fn=_group, args=(1,), key=key,
                  kind="pinballs"))
    runner = FarmRunner(store, jobs=2)
    runner.run(graph)
    assert runner.report.cache == {"log": "miss"}
    loaded = store.get(key)
    assert sorted(loaded) == ["a", "b"]
    assert loaded["b"].pages == _group(1)["b"].pages
    assert store.scrub().lost_keys == []


def _commit_groups(root, barrier, writer):
    store = ArtifactStore(root)
    barrier.wait()
    for tag in range(8):
        store.put("w%d/%d" % (writer, tag), _group(writer * 100 + tag),
                  "pinballs")


#: More writers than a two-core host has cores, so commits interleave.
WRITERS = 4


def test_concurrent_commits_of_shared_blocks_read_back_intact(tmp_path,
                                                              deadline):
    root = str(tmp_path / "store")
    ArtifactStore(root)
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    writers = [context.Process(target=_commit_groups,
                               args=(root, barrier, writer))
               for writer in range(1, WRITERS + 1)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(60)
        assert process.exitcode == 0

    store = ArtifactStore(root)
    for writer in range(1, WRITERS + 1):
        for tag in range(8):
            loaded = store.get("w%d/%d" % (writer, tag))
            expected = _group(writer * 100 + tag)
            for name in ("a", "b"):
                assert loaded[name].pages == expected[name].pages
    assert store.verify() == []
