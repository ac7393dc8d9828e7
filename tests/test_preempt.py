"""Preemptible jobs: checkpoint on SIGTERM, migrate, resume, collect.

Covers the cooperative-preemption path end to end: the scheduler's
preempted-completion semantics, the BBV profiler's checkpoint/resume
bit-identity, the farm runner's inline preempt/resume cycle, snapshot
garbage collection with live-job roots, fuzz-campaign progress
persistence, a real SIGTERM delivered to a worker *process* mid-job
(with the job migrating to a second worker), and the ``farm run
--preemptible`` CLI producing byte-identical ELFies after an
interrupted + resumed campaign.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.cli import main
from repro.farm import ArtifactStore, FarmRunner, Job, JobGraph
from repro.service.client import ServiceClient
from repro.service.scheduler import FairShareScheduler
from repro.service.server import ServerThread
from repro.service.worker import ServiceWorker, worker_main
from repro.simpoint.bbv import collect_bbv
from repro.simpoint.pinpoints import _job_profile
from repro.snapshot import preempt
from repro.snapshot.preempt import Preempted
from repro.workloads import get_app


@pytest.fixture(scope="module")
def mcf_image():
    return get_app("505.mcf_r").build("test")


@pytest.fixture(autouse=True)
def clean_preempt_context():
    preempt.reset()
    yield
    preempt.GLOBAL._event = threading.Event()
    preempt.reset()


class _Countdown:
    """Event stand-in whose flag raises itself after N polls — a
    deterministic SIGTERM landing mid-profile."""

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def is_set(self):
        self.calls += 1
        return self.calls > self.after

    def set(self):
        self.after = 0

    def clear(self):
        pass  # keep counting across preempt.reset()


def test_scheduler_preempted_completion_requeues_with_snapshot():
    scheduler = FairShareScheduler(lease_timeout=60.0)
    _, job = scheduler.submit("c", "profile", payload="p")
    leased = scheduler.lease("w1")
    assert leased.job_id == job.job_id and job.attempts == 1

    scheduler.complete(leased.lease_id, "r1", preempted=True,
                       snapshot_key="snap/abc")
    assert job.state == "queued"
    assert job.attempts == 0          # the lease's attempt is handed back
    assert job.preemptions == 1
    assert job.snapshot_key == "snap/abc"
    assert scheduler.snapshot_roots() == ["snap/abc"]
    assert scheduler.stats()["preemptions"] == 1

    # the next lease carries the snapshot key to the resuming worker
    released = scheduler.lease("w2")
    assert released.job_id == job.job_id
    assert released.describe()["snapshot_key"] == "snap/abc"
    scheduler.complete(released.lease_id, "r2", ok=True, worker="w2")
    assert job.state == "ok"
    assert scheduler.snapshot_roots() == []  # settled jobs pin nothing


def test_scheduler_preemption_preserves_retry_budget():
    scheduler = FairShareScheduler(lease_timeout=60.0, retries=1)
    _, job = scheduler.submit("c", "flaky", payload="p")
    for round_trip in range(3):  # drained more times than it has retries
        leased = scheduler.lease("w")
        scheduler.complete(leased.lease_id, "p%d" % round_trip,
                           preempted=True, snapshot_key="snap/k")
    assert job.state == "queued" and job.attempts == 0
    # real failures still consume the full budget afterwards
    leased = scheduler.lease("w")
    scheduler.complete(leased.lease_id, "f1", ok=False, error="boom")
    assert job.state == "queued"
    leased = scheduler.lease("w")
    scheduler.complete(leased.lease_id, "f2", ok=False, error="boom")
    assert job.state == "failed"


def test_bbv_preempt_resume_bit_identical(mcf_image):
    straight = collect_bbv(mcf_image, slice_size=5000, seed=3)

    preempt.GLOBAL._event = _Countdown(4)
    with pytest.raises(Preempted) as caught:
        collect_bbv(mcf_image, slice_size=5000, seed=3, preemptible=True)
    snapshot = caught.value.snapshot
    assert snapshot.extra["kind"] == "bbv"
    assert snapshot.extra["index"] >= 1

    preempt.GLOBAL._event = threading.Event()
    preempt.set_resume(snapshot)
    resumed = collect_bbv(mcf_image, slice_size=5000, seed=3,
                          preemptible=True)
    assert resumed.vectors == straight.vectors
    assert resumed.slice_icounts == straight.slice_icounts
    assert resumed.slice_cycles == straight.slice_cycles
    assert resumed.total_icount == straight.total_icount


def test_stale_resume_snapshot_is_ignored_by_kind(mcf_image):
    preempt.GLOBAL._event = _Countdown(2)
    with pytest.raises(Preempted) as caught:
        collect_bbv(mcf_image, slice_size=5000, seed=0, preemptible=True)
    snapshot = caught.value.snapshot
    snapshot.extra["kind"] = "unrelated"
    preempt.GLOBAL._event = threading.Event()
    preempt.set_resume(snapshot)
    # a mismatched kind must not derail the job body: it starts cold
    profile = collect_bbv(mcf_image, slice_size=5000, seed=0,
                          preemptible=True)
    assert profile.total_icount == 209_632
    assert preempt.GLOBAL.take_resume() is snapshot  # left parked


def test_farm_runner_inline_preempt_then_resume(tmp_path, mcf_image):
    store = ArtifactStore(str(tmp_path))
    straight = collect_bbv(mcf_image, slice_size=5000, seed=1)

    def graph():
        g = JobGraph()
        g.add(Job(name="profile", fn=_job_profile,
                  args=(mcf_image, 5000, 1), key="pk", kind="object"))
        return g

    preempt.GLOBAL._event = _Countdown(6)
    runner = FarmRunner(store, jobs=1, preemptible=True)
    runner.run(graph(), strict=False)
    assert runner.report.states["profile"] == "preempted"
    snap_key = FarmRunner.snapshot_key("pk")
    assert store.contains(snap_key)
    assert store.kind_of(snap_key) == "snapshot"
    assert not store.contains("pk")

    preempt.GLOBAL._event = threading.Event()
    preempt.reset()
    rerun = FarmRunner(store, jobs=1, preemptible=True)
    results = rerun.run(graph(), strict=True)
    assert rerun.report.states["profile"] == "ok"
    assert results["profile"].vectors == straight.vectors
    assert results["profile"].total_icount == straight.total_icount
    assert not store.contains(snap_key)  # settled: checkpoint released


def test_gc_prunes_unrooted_snapshots(tmp_path, mcf_image):
    from repro.machine.loader import load_elf
    from repro.machine.machine import Machine
    from repro.snapshot import capture

    machine = Machine(seed=0)
    load_elf(machine, mcf_image)
    machine.run(max_instructions=20_000)
    store = ArtifactStore(str(tmp_path))
    store.put("snap/live", capture(machine), kind="snapshot")
    store.put("snap/stale", capture(machine), kind="snapshot")
    store.put("other", {"plain": "artifact"}, kind="object")

    dry = store.gc(dry_run=True, prune_snapshots=True,
                   snapshot_roots=["snap/live"])
    assert dry.removed_snapshots == 1
    assert store.contains("snap/stale")

    swept = store.gc(prune_snapshots=True, snapshot_roots=["snap/live"])
    assert swept.removed_snapshots == 1
    assert not store.contains("snap/stale")
    assert store.contains("snap/live") and store.contains("other")
    # the kept snapshot still decodes after the sweep
    assert store.get("snap/live").pages

    # without the flag, snapshots are ordinary live artifacts
    untouched = store.gc()
    assert untouched.removed_snapshots == 0
    assert store.contains("snap/live")


def test_fuzz_checkpoint_persists_and_resumes(tmp_path):
    from repro.verify import fuzz

    path = str(tmp_path / "fuzz.json")
    first = fuzz(time_budget=600.0, max_cases=3, checkpoint_path=path)
    assert first.cases_run == 3
    assert os.path.exists(path)

    # max_cases is cumulative across restarts: the resumed campaign
    # picks up at seed 3 and runs exactly two more cases
    second = fuzz(time_budget=600.0, max_cases=5, checkpoint_path=path)
    assert second.cases_run == 5

    import json
    with open(path) as handle:
        state = json.load(handle)
    assert state["cases_run"] == second.cases_run
    assert state["next_seed"] >= 5

    # a drain request ends the campaign at a case boundary immediately
    preempt.request()
    drained = fuzz(time_budget=600.0, max_cases=50, checkpoint_path=path)
    assert drained.cases_run == second.cases_run


def test_service_worker_sigterm_drains_and_job_migrates(tmp_path, mcf_image):
    """Satellite e2e (in-process half): a worker's SIGTERM handler
    checkpoints the in-flight profile, the scheduler re-queues it with
    the snapshot attached, and a second worker resumes it to a result
    bit-identical to an uninterrupted run."""
    straight = collect_bbv(mcf_image, slice_size=5000, seed=3)
    with ServerThread(str(tmp_path), lease_timeout=30.0) as server:
        host, port = server.server.host, server.server.port
        client = ServiceClient(host, port, client_id="t")
        client.submit("profile", _job_profile, (mcf_image, 5000, 3),
                      key="profile-key", kind="object")

        first = ServiceWorker(host, port, name="w1", poll_s=0.05,
                              idle_exit_s=0.5, drain_timeout_s=30.0)
        thread = threading.Thread(target=first.run)
        thread.start()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if server.scheduler.stats()["leased"]:
                break
            time.sleep(0.005)
        first.handle_sigterm()  # what signal.SIGTERM invokes
        thread.join(60.0)
        assert first.jobs_preempted == 1

        job = next(iter(server.scheduler.jobs.values()))
        assert job.state == "queued"
        assert job.preemptions == 1 and job.attempts == 0
        assert job.snapshot_key.startswith("snap/")
        assert server.scheduler.snapshot_roots() == [job.snapshot_key]
        assert server.store.contains(job.snapshot_key)

        second = ServiceWorker(host, port, name="w2", poll_s=0.05,
                               idle_exit_s=0.5)
        thread = threading.Thread(target=second.run)
        thread.start()
        thread.join(120.0)
        assert job.state == "ok" and job.worker == "w2"
        assert server.scheduler.snapshot_roots() == []

        resumed = server.store.get("profile-key")
        assert resumed.vectors == straight.vectors
        assert resumed.slice_cycles == straight.slice_cycles
        assert resumed.total_icount == straight.total_icount
        client.close()


def test_real_sigterm_to_worker_process_migrates_job(tmp_path):
    """Satellite e2e (process half): deliver an actual SIGTERM to a
    worker subprocess mid-job and let a second process finish it."""
    image = get_app("505.mcf_r").build("train")  # long enough to land in
    straight = collect_bbv(image, slice_size=5000, seed=0)
    context = multiprocessing.get_context("fork")
    with ServerThread(str(tmp_path), lease_timeout=60.0) as server:
        host, port = server.server.host, server.server.port
        client = ServiceClient(host, port, client_id="t")
        client.submit("profile", _job_profile, (image, 5000, 0),
                      key="profile-key", kind="object")

        victim = context.Process(
            target=worker_main, args=(host, port),
            kwargs=dict(name="w1", poll_s=0.05, idle_exit_s=10.0,
                        drain_timeout_s=60.0))
        victim.start()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if server.scheduler.stats()["leased"]:
                break
            time.sleep(0.005)
        else:
            pytest.fail("job never leased")
        os.kill(victim.pid, signal.SIGTERM)
        victim.join(60.0)
        assert victim.exitcode == 0  # clean drain, not the watchdog

        job = next(iter(server.scheduler.jobs.values()))
        assert job.preemptions == 1 and job.state == "queued"
        assert job.snapshot_key and server.store.contains(job.snapshot_key)

        finisher = context.Process(
            target=worker_main, args=(host, port),
            kwargs=dict(name="w2", poll_s=0.05, idle_exit_s=1.0))
        finisher.start()
        finisher.join(120.0)
        assert finisher.exitcode == 0
        assert job.state == "ok" and job.worker == "w2"

        resumed = server.store.get("profile-key")
        assert resumed.vectors == straight.vectors
        assert resumed.total_icount == straight.total_icount
        client.close()


PIPELINE_ARGS = ["--input", "test", "--jobs", "1",
                 "--slice-size", "10000", "--warmup", "20000",
                 "--max-k", "4", "--alternates", "1", "--trials", "1"]


def test_farm_run_preemptible_resumes_to_identical_elfies(tmp_path, capsys):
    """Satellite e2e (CLI): an interrupted ``farm run --preemptible``
    exits 75 with the checkpoint stored; re-running the same command
    completes and every ELFie is byte-identical to an uninterrupted
    campaign's."""
    reference = str(tmp_path / "ref")
    assert main(["farm", "run", "--store", reference,
                 "--app", "505.mcf_r"] + PIPELINE_ARGS) == 0
    capsys.readouterr()

    interrupted = str(tmp_path / "pre")
    preempt.GLOBAL._event = _Countdown(6)  # "SIGTERM" mid-profile
    code = main(["farm", "run", "--store", interrupted,
                 "--app", "505.mcf_r", "--preemptible"] + PIPELINE_ARGS)
    err = capsys.readouterr().err
    assert code == 75  # EX_TEMPFAIL: partial, resumable
    assert "campaign preempted" in err
    pre_store = ArtifactStore(interrupted)
    snaps = [key for key in pre_store.keys()
             if pre_store.kind_of(key) == "snapshot"]
    assert snaps  # the in-flight profile parked its checkpoint

    preempt.GLOBAL._event = threading.Event()
    preempt.reset()
    assert main(["farm", "run", "--store", interrupted,
                 "--app", "505.mcf_r", "--preemptible"] + PIPELINE_ARGS) == 0
    capsys.readouterr()

    ref_store = ArtifactStore(reference)
    elfies = [key for key in ref_store.keys()
              if ref_store.kind_of(key) == "elfie"]
    assert elfies
    for key in elfies:
        assert pre_store.contains(key), key
        assert pre_store.get(key).image == ref_store.get(key).image
    # settled jobs release their checkpoints
    assert [key for key in pre_store.keys()
            if pre_store.kind_of(key) == "snapshot"] == []


def test_farm_run_preemptible_restores_sigterm_handler(tmp_path, capsys):
    """``farm run --preemptible`` installs its draining SIGTERM handler
    for the campaign only: pool workers forked later in the same
    process must not inherit it (their ``terminate()`` would hang)."""

    def before(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, before)
    try:
        preempt.GLOBAL._event = _Countdown(0)  # preempt at once
        code = main(["farm", "run", "--store", str(tmp_path / "farm"),
                     "--app", "505.mcf_r", "--preemptible"]
                    + PIPELINE_ARGS)
        capsys.readouterr()
        assert code == 75
        assert signal.getsignal(signal.SIGTERM) is before
    finally:
        signal.signal(signal.SIGTERM, previous)
