"""Unit tests for the fair-share scheduler (no sockets, injected clock)."""

import pytest

from repro.service import FairShareScheduler, LeaseLost, QueueFull


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(max_queued=1024, lease_timeout=10.0, retries=2):
    clock = Clock()
    scheduler = FairShareScheduler(max_queued=max_queued,
                                   lease_timeout=lease_timeout,
                                   retries=retries, clock=clock)
    return scheduler, clock


def submit(scheduler, client, name, priority=0, memo_key=""):
    status, job = scheduler.submit(client=client, name=name, payload="p",
                                   memo_key=memo_key, priority=priority)
    return status, job


# -- priority and fairness --------------------------------------------------


def test_priority_orders_within_a_client():
    scheduler, _clock = make()
    submit(scheduler, "a", "low", priority=0)
    submit(scheduler, "a", "high", priority=5)
    submit(scheduler, "a", "mid", priority=3)
    order = [scheduler.lease("w").name for _ in range(3)]
    assert order == ["high", "mid", "low"]


def test_fifo_within_equal_priority():
    scheduler, _clock = make()
    for index in range(4):
        submit(scheduler, "a", "job%d" % index)
    order = [scheduler.lease("w").name for _ in range(4)]
    assert order == ["job0", "job1", "job2", "job3"]


def test_fair_share_alternates_between_flooding_clients():
    """Two clients flooding the queue drain in strict alternation,
    regardless of who submitted first."""
    scheduler, _clock = make()
    for index in range(10):
        submit(scheduler, "alice", "alice%d" % index)
    for index in range(10):
        submit(scheduler, "bob", "bob%d" % index)
    owners = [scheduler.lease("w").client for _ in range(20)]
    # in any adjacent window of 2 there is at most one repeat
    for index in range(0, 20, 2):
        assert set(owners[index:index + 2]) == {"alice", "bob"}


def test_late_joining_client_is_not_starved_and_does_not_monopolize():
    scheduler, _clock = make()
    for index in range(6):
        submit(scheduler, "early", "early%d" % index)
    for _ in range(4):
        scheduler.lease("w")  # early accrues vtime
    for index in range(4):
        submit(scheduler, "late", "late%d" % index)
    nxt = [scheduler.lease("w").client for _ in range(4)]
    # the newcomer starts at the active floor: it interleaves instead of
    # either waiting for "early" to finish or monopolizing the queue
    assert set(nxt) == {"early", "late"}


# -- backpressure -----------------------------------------------------------


def test_queue_full_raises_and_recovers():
    scheduler, _clock = make(max_queued=3)
    for index in range(3):
        submit(scheduler, "a", "job%d" % index)
    with pytest.raises(QueueFull):
        submit(scheduler, "a", "overflow")
    job = scheduler.lease("w")
    scheduler.complete(job.lease_id, "r1")
    submit(scheduler, "a", "now-fits")  # capacity freed


def test_duplicate_submits_do_not_count_against_capacity():
    scheduler, _clock = make(max_queued=1)
    submit(scheduler, "a", "one", memo_key="same")
    status, job = submit(scheduler, "b", "one-too", memo_key="same")
    assert status == "duplicate"
    assert job.clients == {"a", "b"}


# -- memoized concurrent submissions ----------------------------------------


def test_concurrent_identical_submissions_share_one_job():
    scheduler, _clock = make()
    status1, job1 = submit(scheduler, "a", "calc", memo_key="K")
    status2, job2 = submit(scheduler, "b", "calc", memo_key="K")
    assert (status1, status2) == ("queued", "duplicate")
    assert job1.job_id == job2.job_id
    leased = scheduler.lease("w")
    assert leased.job_id == job1.job_id
    assert scheduler.lease("w2") is None  # only one execution
    scheduler.complete(leased.lease_id, "r1")
    # once settled, the memo mapping clears: a later submit re-runs
    status3, job3 = submit(scheduler, "c", "calc", memo_key="K")
    assert status3 == "queued" and job3.job_id != job1.job_id


# -- leases, heartbeats, expiry ---------------------------------------------


def test_expired_lease_requeues_the_job():
    scheduler, clock = make(lease_timeout=10.0)
    submit(scheduler, "a", "slow")
    job = scheduler.lease("w1")
    clock.advance(11.0)
    expired = scheduler.expire()
    assert [item.job_id for item in expired] == [job.job_id]
    assert job.state == "queued" and "lease expired" in job.error
    again = scheduler.lease("w2")
    assert again.job_id == job.job_id
    assert again.attempts == 2


def test_heartbeat_extends_the_lease():
    scheduler, clock = make(lease_timeout=10.0)
    submit(scheduler, "a", "slow")
    job = scheduler.lease("w1")
    clock.advance(8.0)
    scheduler.heartbeat(job.lease_id)
    clock.advance(8.0)
    assert scheduler.expire() == []  # 16s in, but heartbeat at 8s
    clock.advance(3.0)
    assert len(scheduler.expire()) == 1


def test_lease_expiry_exhausts_retries_into_failure():
    scheduler, clock = make(lease_timeout=5.0, retries=1)
    submit(scheduler, "a", "doomed")
    for _ in range(2):  # 1 + retries attempts
        job = scheduler.lease("w")
        clock.advance(6.0)
        scheduler.expire()
    assert job.state == "failed"
    assert "retries exhausted" in job.error


def test_heartbeat_after_expiry_is_lease_lost():
    scheduler, clock = make(lease_timeout=5.0)
    submit(scheduler, "a", "slow")
    job = scheduler.lease("w1")
    clock.advance(6.0)
    scheduler.expire()
    with pytest.raises(LeaseLost):
        scheduler.heartbeat(job.lease_id)


# -- completion and idempotency ---------------------------------------------


def test_complete_ok_settles_and_records_metrics():
    scheduler, _clock = make()
    submit(scheduler, "a", "job")
    job = scheduler.lease("w")
    scheduler.complete(job.lease_id, "req1", ok=True, wall_s=1.5,
                       icount=1000, worker="w")
    assert job.state == "ok"
    assert job.wall_s == 1.5 and job.icount == 1000


def test_complete_failure_retries_then_fails():
    scheduler, _clock = make(retries=1)
    submit(scheduler, "a", "flaky")
    job = scheduler.lease("w")
    scheduler.complete(job.lease_id, "req1", ok=False, error="boom")
    assert job.state == "queued"  # requeued for the retry
    job2 = scheduler.lease("w")
    assert job2.job_id == job.job_id
    scheduler.complete(job2.lease_id, "req2", ok=False, error="boom again")
    assert job.state == "failed" and job.error == "boom again"


def test_duplicate_complete_same_request_id_is_idempotent():
    scheduler, _clock = make()
    submit(scheduler, "a", "job")
    job = scheduler.lease("w")
    first = scheduler.complete(job.lease_id, "req1", ok=True, wall_s=2.0)
    replay = scheduler.complete(job.lease_id, "req1", ok=False,
                                error="should be ignored")
    assert replay is first
    assert job.state == "ok" and job.error == ""


def test_complete_with_reaped_lease_raises_lease_lost():
    scheduler, clock = make(lease_timeout=5.0)
    submit(scheduler, "a", "slow")
    job = scheduler.lease("w1")
    stale_lease = job.lease_id
    clock.advance(6.0)
    scheduler.expire()  # requeued
    job2 = scheduler.lease("w2")  # re-leased elsewhere
    with pytest.raises(LeaseLost):
        scheduler.complete(stale_lease, "req-late", ok=True)
    # the re-run completes normally
    scheduler.complete(job2.lease_id, "req-new", ok=True)
    assert job.state == "ok"


def test_stats_shape():
    scheduler, _clock = make()
    submit(scheduler, "a", "one")
    submit(scheduler, "b", "two", priority=2)
    scheduler.lease("w")
    stats = scheduler.stats()
    assert stats["queued"] == 1 and stats["leased"] == 1
    assert stats["jobs"] == 2
    assert set(stats["clients"]) == {"a", "b"}
    for entry in stats["clients"].values():
        assert set(entry) == {"queued", "vtime"}
