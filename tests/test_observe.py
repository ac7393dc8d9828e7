"""Tests for the repro.observe subsystem.

Covers the tracer (span nesting, threading, Chrome trace-event JSON
validity), the metrics registry (percentiles, snapshot round trip),
the null-object hook layer, the machine-level instrumentation, and the
end-to-end contract: spans in a ``farm run --trace`` export agree with
the JSONL run manifest's job records.
"""

import json
import threading

import pytest

from repro.core.cli import main
from repro.farm import read_manifest
from repro.observe import (
    MetricsRegistry,
    Tracer,
    hooks,
    load_snapshot,
    observed,
)
from repro.workloads import PhaseSpec, ProgramBuilder, run_program


# -- hooks (null-object layer) ------------------------------------------------


def test_hooks_default_to_disabled_noops():
    obs = hooks.OBS
    assert obs.enabled is False
    with obs.span("anything", "cat", detail=1) as span:
        span.set(more=2)
    obs.count("a")
    obs.gauge("b", 1.0)
    obs.observe("c", 0.5)
    obs.instant("d")
    obs.complete("e", 0.1)


def test_enable_disable_swaps_the_process_observer():
    assert hooks.OBS.enabled is False
    obs = hooks.enable()
    try:
        assert hooks.OBS is obs
        assert obs.enabled is True
        obs.count("x", 3)
        assert obs.metrics.snapshot()["counters"]["x"] == 3
    finally:
        hooks.disable()
    assert hooks.OBS.enabled is False


def test_observed_restores_previous_observer():
    with observed() as outer:
        assert hooks.OBS is outer
        with observed() as inner:
            assert hooks.OBS is inner
        assert hooks.OBS is outer
    assert hooks.OBS.enabled is False


# -- tracer -------------------------------------------------------------------


def _complete_events(tracer):
    return [e for e in tracer.events() if e["ph"] == "X"]


def test_span_nesting():
    tracer = Tracer()
    assert tracer.depth() == 0
    with tracer.span("parent", "t"):
        assert tracer.depth() == 1
        assert tracer.current().name == "parent"
        with tracer.span("child", "t"):
            assert tracer.depth() == 2
    assert tracer.depth() == 0

    spans = {e["name"]: e for e in _complete_events(tracer)}
    assert set(spans) == {"parent", "child"}
    parent, child = spans["parent"], spans["child"]
    # the child's window is contained in the parent's
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def test_span_records_error_on_exception():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("failing"):
            raise ValueError("boom")
    (event,) = _complete_events(tracer)
    assert "ValueError" in event["args"]["error"]
    assert tracer.depth() == 0


def test_spans_across_threads():
    tracer = Tracer()
    # all four threads live at once, so their idents (the trace tids)
    # are guaranteed distinct
    barrier = threading.Barrier(4)

    def work(index):
        barrier.wait(timeout=10)
        with tracer.span("thread-span", worker=index):
            with tracer.span("inner", worker=index):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    events = _complete_events(tracer)
    assert len(events) == 8
    tids = {e["tid"] for e in events if e["name"] == "thread-span"}
    assert len(tids) == 4  # per-thread stacks, per-thread tids


def test_chrome_trace_export_is_valid(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "cat", app="x"):
        tracer.instant("mark", "cat", detail="d")
    tracer.complete("external", 0.25, "farm", state="ok")
    path = str(tmp_path / "trace.json")
    tracer.export(path)

    with open(path) as handle:
        doc = json.load(handle)
    assert isinstance(doc["traceEvents"], list)
    phases = set()
    for event in doc["traceEvents"]:
        assert isinstance(event["name"], str)
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        phases.add(event["ph"])
        if event["ph"] != "M":
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
    assert phases == {"X", "i", "M"}
    external = next(e for e in doc["traceEvents"] if e["name"] == "external")
    assert external["dur"] == pytest.approx(0.25 * 1e6)


# -- metrics ------------------------------------------------------------------


def test_histogram_percentiles():
    registry = MetricsRegistry()
    histogram = registry.histogram("wall")
    for value in range(1, 101):
        histogram.observe(float(value))
    assert histogram.percentile(50) == 50.0
    assert histogram.percentile(95) == 95.0
    assert histogram.percentile(99) == 99.0
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["min"] == 1.0 and summary["max"] == 100.0
    assert summary["p50"] == 50.0
    assert summary["sum"] == pytest.approx(5050.0)


def test_metrics_snapshot_round_trip(tmp_path):
    registry = MetricsRegistry()
    registry.count("syscalls", 7)
    registry.count("syscalls", 3)
    registry.set_gauge("workers", 4)
    for value in (0.1, 0.2, 0.4):
        registry.observe("wall_s", value)

    path = str(tmp_path / "metrics.json")
    registry.export(path)
    loaded = load_snapshot(path)
    assert loaded == registry.snapshot()
    assert loaded["counters"]["syscalls"] == 10
    assert loaded["gauges"]["workers"] == 4
    assert loaded["histograms"]["wall_s"]["count"] == 3
    assert "p95" in loaded["histograms"]["wall_s"]


def test_metric_kind_collisions_are_rejected():
    registry = MetricsRegistry()
    registry.count("name")
    assert registry.counter("name").value == 1
    with pytest.raises(ValueError):
        registry.gauge("name")
    with pytest.raises(ValueError):
        registry.histogram("name")


# -- machine instrumentation --------------------------------------------------


def test_machine_run_emits_instruction_and_syscall_metrics():
    image = ProgramBuilder(
        name="obs", phases=[PhaseSpec("compute", 200, buffer_kb=4)],
    ).build()
    with observed() as obs:
        machine, status, _ = run_program(image, seed=1)
    assert status.kind == "exit"
    counters = obs.metrics.snapshot()["counters"]
    total = sum(t.icount for t in machine.threads.values())
    assert counters["cpu.instructions"] == total
    assert counters["kernel.syscalls"] >= 1
    assert counters["kernel.syscall.exit_group"] == 1


def test_disabled_hooks_leave_no_telemetry_behind():
    image = ProgramBuilder(
        name="obs2", phases=[PhaseSpec("compute", 100, buffer_kb=4)],
    ).build()
    run_program(image, seed=1)  # hooks disabled: must simply not crash
    assert hooks.OBS.enabled is False


# -- end to end: farm run --trace vs the JSONL manifest -----------------------


def test_farm_run_trace_spans_match_manifest(tmp_path, capsys):
    store_dir = str(tmp_path / "farm")
    manifest = str(tmp_path / "run.jsonl")
    trace_path = str(tmp_path / "trace.json")
    metrics_path = str(tmp_path / "metrics.json")
    argv = ["--trace", trace_path, "--metrics", metrics_path,
            "farm", "run", "--store", store_dir,
            "--app", "505.mcf_r", "--app", "541.leela_r",
            "--input", "test", "--jobs", "1", "--slice-size", "10000",
            "--warmup", "20000", "--max-k", "4", "--alternates", "1",
            "--trials", "1", "--manifest", manifest]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache-hit rate: 0.0%" in out
    assert "stage wall:" in out

    with open(trace_path) as handle:
        trace = json.load(handle)
    spans = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            spans.setdefault(event["name"], []).append(event)

    executed = [record for record in read_manifest(manifest)
                if record["cache"] != "hit" and record["wall_s"] > 0]
    assert executed, "campaign should have executed jobs"
    for record in executed:
        matching = spans.get(record["job"])
        assert matching, "no trace span for job %s" % record["job"]
        durations = [event["dur"] / 1e6 for event in matching]
        assert any(abs(dur - record["wall_s"]) < 1e-5 for dur in durations)
        (event,) = matching
        assert event["cat"] == "farm.%s" % record["stage"]
        assert event["args"]["cache"] == record["cache"]

    # the campaign phases traced too
    assert "campaign.build" in spans
    assert "campaign.run" in spans
    stage_cats = {event["cat"] for events in spans.values()
                  for event in events}
    assert "farm.profile" in stage_cats
    assert "farm.log" in stage_cats

    metrics = load_snapshot(metrics_path)
    assert metrics["counters"]["farm.jobs"] == len(read_manifest(manifest))
    assert metrics["counters"]["cpu.instructions"] > 0
    assert metrics["histograms"]["farm.job_wall_s"]["count"] == len(executed)


# -- end to end: an in-thread service campaign with observability on ---------


def _double(value):
    return value * 2


def test_service_campaign_records_per_layer_metrics(tmp_path):
    """The per-layer service metrics a traced ``service_pair`` reports:
    submits, completes, lease latency, the queue-depth gauge, an expired
    lease counted by the reaper, and a memoized resubmit."""
    from repro.farm import Job, JobGraph
    from repro.service import (
        ServerThread,
        ServiceCampaignRunner,
        ServiceClient,
        ServiceWorker,
    )

    with observed() as obs, ServerThread(str(tmp_path / "svc"),
                                         lease_timeout=0.4) as server:
        host, port = server.server.host, server.server.port
        client = ServiceClient(host, port, client_id="observed")
        orphan = client.submit("orphan", _double, (4,), key="svc/t/orphan",
                               kind="object")
        dead = ServiceClient(host, port, client_id="dead-worker")
        assert dead.lease("dead-worker", wait_s=2.0) is not None
        dead.close()  # no heartbeat: the reaper expires the lease
        worker = ServiceWorker(host, port, name="live", poll_s=0.05)
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            graph = JobGraph()
            for value in (1, 2):
                graph.add(Job(name="double%d" % value, fn=_double,
                              args=(value,)))
            runner = ServiceCampaignRunner(client)
            assert runner.run(graph) == {"double1": 2, "double2": 4}
            job_id = orphan["job"]["job_id"]
            assert client.wait([job_id], timeout_s=10.0)[job_id]["state"] \
                == "ok"
            again = client.submit("orphan", _double, (4,),
                                  key="svc/t/orphan", kind="object")
            assert again["status"] == "cached"
        finally:
            client.close()
            worker.stop()
            thread.join(10.0)
        snapshot = obs.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["service.submits"] == 3
    assert counters["service.completes"] == 3
    assert counters["service.leases_expired"] == 1
    assert counters["service.cache_hits"] == 1
    assert snapshot["histograms"]["service.lease_latency_s"]["count"] == 4
    assert snapshot["gauges"]["service.queue_depth"] == 0
