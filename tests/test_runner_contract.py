"""One contract for every campaign executor.

The same toy graph runs on the local farm (in-process and pooled) and
through the checkpoint service (a :class:`ServerThread` drained by a
:class:`ServiceWorker` on a thread).  It covers a keyed job with an
``expand`` callback, a keyless job, a ``local`` job, a failing job with
a blocked dependent, a warm rerun, and a corrupted cached entry that
must be recomputed.  Every executor must report the same results,
states, cache outcomes and manifest records (timestamps, wall time and
worker identity aside).
"""

import threading
import zlib

import pytest

from repro.farm import (
    ArtifactStore,
    FarmRunner,
    Job,
    JobGraph,
    Ref,
    read_manifest,
    stable_digest,
)
from repro.service import (
    ServerThread,
    ServiceCampaignRunner,
    ServiceWorker,
    connect,
)

KEY = stable_digest(["contract", "double", 21])


def _counted_double(counter_path, x):
    with open(counter_path, "a") as handle:
        handle.write("x\n")
    return 2 * x


def _add(a, b):
    return a + b


def _identity(value):
    return value


def _always_fail():
    raise RuntimeError("boom")


def _expand_with_square(result, graph, results):
    graph.add(Job(name="square", fn=_identity, args=(result * result,),
                  stage="work"))


def _graph(counter):
    graph = JobGraph()
    graph.add(Job(name="keyed", fn=_counted_double, args=(counter, 21),
                  key=KEY, stage="work", expand=_expand_with_square))
    graph.add(Job(name="keyless", fn=_add, args=(Ref("keyed"), 8),
                  stage="work"))
    graph.add(Job(name="local", fn=_add, args=(Ref("keyless"), 1),
                  local=True, stage="assemble"))
    graph.add(Job(name="doomed", fn=_always_fail, retries=1, stage="work"))
    graph.add(Job(name="blocked", fn=_identity, args=(Ref("doomed"),),
                  stage="work"))
    return graph


def _corrupt(store, key):
    """Smash the blob behind *key* in a plain or sharded store."""
    digest = store.get_record(key)["meta"]["blob"]
    home = getattr(store, "home_of_block", None)
    shard = store.shard_store(home(digest)) if home else store
    with open(shard._block_path(digest), "wb") as handle:
        handle.write(zlib.compress(b"garbage"))


@pytest.fixture(params=["farm-inline", "farm-pool", "service"])
def executor(request, tmp_path):
    """Yields ``(make_runner(manifest_path), store)``."""
    if request.param.startswith("farm"):
        store = ArtifactStore(str(tmp_path / "store"))
        jobs = 1 if request.param == "farm-inline" else 2
        yield (lambda manifest: FarmRunner(store, jobs=jobs,
                                           manifest_path=manifest)), store
        return
    with ServerThread(str(tmp_path / "svc"), shards=2,
                      lease_timeout=5.0) as server:
        host, port = server.server.host, server.server.port
        worker = ServiceWorker(host, port, name="w", poll_s=0.1)
        thread = threading.Thread(target=worker.run)
        thread.start()
        client = connect(host, port, client_id="contract")
        try:
            yield (lambda manifest: ServiceCampaignRunner(
                client, manifest_path=manifest)), server.store
        finally:
            client.close()
            worker.stop()
            thread.join(10.0)
    assert not thread.is_alive()


RESULTS = {"keyed": 42, "square": 1764, "keyless": 50, "local": 51}
STATES = {"keyed": "ok", "square": "ok", "keyless": "ok", "local": "ok",
          "doomed": "failed", "blocked": "blocked"}


def _expected_records(keyed_cache):
    def record(job, stage, key="", state="ok", cache="none", attempts=1,
               error=""):
        return job, {"job": job, "stage": stage, "selector": "", "key": key,
                     "state": state, "cache": cache, "attempts": attempts,
                     "error": error, "icount": None}
    return dict([
        record("keyed", "work", KEY, cache=keyed_cache,
               attempts=0 if keyed_cache == "hit" else 1),
        record("square", "work"),
        record("keyless", "work"),
        record("local", "assemble"),
        record("doomed", "work", state="failed", attempts=2,
               error="RuntimeError: boom"),
        record("blocked", "work", state="blocked", attempts=0,
               error="upstream failure: doomed"),
    ])


def test_every_executor_honours_the_runner_contract(executor, tmp_path):
    make_runner, store = executor
    counter = str(tmp_path / "calls")
    for phase, keyed_cache in (("cold", "miss"), ("warm", "hit"),
                               ("corrupt", "miss")):
        if phase == "corrupt":
            _corrupt(store, KEY)
        manifest = str(tmp_path / ("%s.jsonl" % phase))
        runner = make_runner(manifest)
        results = runner.run(_graph(counter), strict=False)
        assert results == RESULTS, phase
        assert runner.report.states == STATES, phase
        assert runner.report.cache == {
            name: keyed_cache if name == "keyed" else "none"
            for name in STATES}, phase
        records = {record["job"]: {
            field: value for field, value in record.items()
            if field not in ("ts", "wall_s", "worker")}
            for record in read_manifest(manifest)}
        assert records == _expected_records(keyed_cache), phase
    with open(counter) as handle:  # cold + recompute, never the warm run
        assert len(handle.read().splitlines()) == 2
    assert store.get(KEY) == 42  # the damaged entry was replaced
