"""The job lifecycle every campaign executor shares.

start -> attempt -> complete -> (retry | settle): a job body runs
through one body runner (timed alone, commit excluded) in every
process, one completion handler decides retry or failure, and the
campaign loop blocks in the executor's wait instead of polling.
"""

import os
import threading
import time

from repro.farm import FarmRunner, Job, JobGraph, read_manifest, stable_digest
from repro.service import (
    ServerThread,
    ServiceCampaignRunner,
    ServiceWorker,
    connect,
)


def _identity(value):
    return value


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _flaky_pid(counter_path, fail_times):
    with open(counter_path, "a") as handle:
        handle.write("x")
    with open(counter_path) as handle:
        calls = len(handle.read())
    if calls <= fail_times:
        raise RuntimeError("injected failure #%d" % calls)
    return os.getpid()


def test_service_manifest_wall_s_is_the_body_alone(tmp_path):
    """A service worker times the job body alone: a slow result upload
    (``put-artifact``) does not count in the manifest's ``wall_s``."""
    upload_s = 0.3
    key = stable_digest(["lifecycle", "instant"])
    with ServerThread(str(tmp_path / "svc"), shards=2,
                      lease_timeout=5.0) as server:
        host, port = server.server.host, server.server.port
        worker = ServiceWorker(host, port, name="slow-upload", poll_s=0.1)
        upload = worker.client.put_artifact

        def slow_upload(*args, **kwargs):
            time.sleep(upload_s)
            return upload(*args, **kwargs)

        worker.client.put_artifact = slow_upload
        thread = threading.Thread(target=worker.run)
        thread.start()
        client = connect(host, port, client_id="lifecycle")
        manifest = str(tmp_path / "run.jsonl")
        try:
            graph = JobGraph()
            graph.add(Job(name="instant", fn=_identity, args=(7,), key=key))
            runner = ServiceCampaignRunner(client, manifest_path=manifest)
            assert runner.run(graph) == {"instant": 7}
        finally:
            client.close()
            worker.stop()
            thread.join(10.0)
        assert not thread.is_alive()
        assert server.store.get(key) == 7  # the upload did happen
    (record,) = read_manifest(manifest)
    assert record["state"] == "ok" and record["worker"] == "slow-upload"
    assert record["wall_s"] < upload_s


def test_pooled_loop_blocks_instead_of_polling(tmp_path):
    """With every job in flight the loop sleeps in the executor's wait:
    it wakes once per completion, not once per polling tick."""
    graph = JobGraph()
    for name in ("a", "b"):
        graph.add(Job(name=name, fn=_sleep_then_pid, args=(0.5,)))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=2, manifest_path=manifest)
    passes = []
    ready = runner._ready

    def counted_ready():
        passes.append(time.monotonic())
        return ready()

    runner._ready = counted_ready
    results = runner.run(graph)
    assert os.getpid() not in results.values()
    retries = sum(record["attempts"] - 1
                  for record in read_manifest(manifest))
    assert len(passes) <= len(graph.jobs) + retries + 2, len(passes)


def test_local_job_retries_in_the_parent_of_a_pooled_run(tmp_path,
                                                         monkeypatch):
    """A ``local`` job's retry goes through the same retry rule as a
    pooled job's, and still runs in the parent process."""
    monkeypatch.setattr(FarmRunner, "backoff", 0.001)
    graph = JobGraph()
    graph.add(Job(name="here", fn=_flaky_pid,
                  args=(str(tmp_path / "calls"), 1), local=True))
    manifest = str(tmp_path / "run.jsonl")
    runner = FarmRunner(None, jobs=2, manifest_path=manifest)
    assert runner.run(graph) == {"here": os.getpid()}
    (record,) = read_manifest(manifest)
    assert record["state"] == "ok" and record["attempts"] == 2


def test_inline_retry_waits_without_holding_up_other_jobs(tmp_path,
                                                          monkeypatch):
    """At ``jobs=1`` a failed attempt waits out its backoff in the
    retry queue: the other ready jobs run meanwhile, then the retry."""
    monkeypatch.setattr(FarmRunner, "backoff", 0.2)
    order = []
    graph = JobGraph()
    graph.add(Job(name="flaky", fn=_flaky_pid,
                  args=(str(tmp_path / "calls"), 1)))
    graph.add(Job(name="steady", fn=_identity, args=(1,)))
    runner = FarmRunner(None, jobs=1)
    settle = runner._settle

    def recorded_settle(job, state, *args, **kwargs):
        order.append((job.name, state))
        settle(job, state, *args, **kwargs)

    runner._settle = recorded_settle
    start = time.monotonic()
    results = runner.run(graph)
    assert results == {"flaky": os.getpid(), "steady": 1}
    assert order == [("steady", "ok"), ("flaky", "ok")]
    assert time.monotonic() - start >= 0.2


def test_heartbeats_keep_a_long_job_on_its_first_lease(tmp_path):
    """A job that runs for several lease timeouts keeps its lease: the
    worker's heartbeats move the deadline forward, so the reaper never
    expires it and the job runs once although the server allows no
    retry."""
    key = stable_digest(["lifecycle", "long"])
    with ServerThread(str(tmp_path / "svc"), lease_timeout=0.9,
                      retries=0) as server:
        host, port = server.server.host, server.server.port
        worker = ServiceWorker(host, port, name="long", poll_s=0.1)
        deadlines = []
        heartbeat = worker.pulse.heartbeat

        def recorded_heartbeat(lease_id):
            deadlines.append(heartbeat(lease_id))
            return deadlines[-1]

        worker.pulse.heartbeat = recorded_heartbeat
        thread = threading.Thread(target=worker.run)
        thread.start()
        client = connect(host, port, client_id="lifecycle")
        try:
            graph = JobGraph()
            graph.add(Job(name="long", fn=_sleep_then_pid, args=(2.0,),
                          key=key))
            runner = ServiceCampaignRunner(client)
            assert runner.run(graph) == {"long": os.getpid()}
        finally:
            client.close()
            worker.stop()
            thread.join(10.0)
        assert not thread.is_alive()
        (job,) = server.server.scheduler.jobs.values()
    assert (job.state, job.attempts) == ("ok", 1)
    # heartbeats every lease_timeout / 3 over a 2 s job
    assert len(deadlines) >= 3
    assert deadlines == sorted(deadlines)
    assert deadlines[-1] - deadlines[0] >= 0.9
