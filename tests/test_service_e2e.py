"""End-to-end service tests: sockets, real worker processes, campaigns.

The acceptance path of the service: a :class:`ServerThread` over a
two-shard store, two worker *processes* draining the queue over TCP,
and campaign results that are bit-identical to the local ``farm run``
path — cold, warm, and under two clients racing the same campaign.
"""

import multiprocessing
import threading

import pytest

from repro.core.cli import main
from repro.farm import ArtifactStore, executed_jobs, read_manifest
from repro.service import (
    ServerThread,
    connect,
    run_service_campaign,
    worker_main,
)
from repro.simpoint import elfie_validation, run_pinpoints_farm
from repro.workloads import get_app

PIPELINE = dict(slice_size=10_000, warmup=20_000, max_k=4, max_alternates=1)


@pytest.fixture(scope="module")
def mcf_image():
    return get_app("505.mcf_r").build("test")


def start_workers(host, port, count=2, idle_exit_s=8.0):
    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=worker_main, args=(host, port),
                        kwargs=dict(name="w%d" % index, poll_s=0.3,
                                    idle_exit_s=idle_exit_s))
        for index in range(count)
    ]
    for process in workers:
        process.start()
    return workers


def join_workers(workers):
    for process in workers:
        process.join(60.0)
        assert process.exitcode == 0


def test_service_campaign_bit_identical_to_farm_run(tmp_path, mcf_image):
    # reference: the local multiprocessing path
    local_store = ArtifactStore(str(tmp_path / "local"))
    local_manifest = str(tmp_path / "local.jsonl")
    local = run_pinpoints_farm(
        mcf_image, "505.mcf_r", local_store, jobs=1,
        manifest_path=local_manifest,
        validations=[elfie_validation("v", trials=1)], **PIPELINE)

    with ServerThread(str(tmp_path / "svc"), shards=2,
                      lease_timeout=5.0) as server:
        host, port = server.server.host, server.server.port
        workers = start_workers(host, port, count=2)
        cold_manifest = str(tmp_path / "cold.jsonl")
        with connect(host, port, client_id="cold") as client:
            outcomes = run_service_campaign(
                {"505.mcf_r": mcf_image}, client,
                manifest_path=cold_manifest,
                validations=[elfie_validation("v", trials=1)], **PIPELINE)
        outcome = outcomes["505.mcf_r"]

        # bit-identical to the local path: same regions, same captured
        # pinballs (pages included), same ELFie images, same validation
        assert [r.name for r in outcome.result.regions] == \
            [r.name for r in local.result.regions]
        assert outcome.result.pinballs.keys() == local.result.pinballs.keys()
        for name, pinball in outcome.result.pinballs.items():
            assert pinball.pages == local.result.pinballs[name].pages
            assert pinball.threads == local.result.pinballs[name].threads
        assert outcome.result.elfies.keys() == local.result.elfies.keys()
        for name, elfie in outcome.result.elfies.items():
            assert elfie.image == local.result.elfies[name].image
        assert outcome.validations["v"].abs_error_percent == \
            local.validations["v"].abs_error_percent
        assert outcome.validations["v"].covered_weight == \
            local.validations["v"].covered_weight

        # the cold run executed over sockets: both workers participated
        # or at least every executed job names a service worker
        cold_records = read_manifest(cold_manifest)
        cold_workers = {record["worker"]
                        for record in executed_jobs(cold_records)
                        if record["stage"] != "assemble"}
        assert cold_workers and cold_workers <= {"w0", "w1", None}

        # the service writes the very record shape `farm run` writes
        local_records = read_manifest(local_manifest)
        assert {frozenset(record) for record in cold_records} == \
            {frozenset(record) for record in local_records}
        assert {record["job"]: record["selector"]
                for record in cold_records} == \
            {record["job"]: record["selector"] for record in local_records}

        # warm re-submit: >= 90% of keyed jobs served from the store
        warm_manifest = str(tmp_path / "warm.jsonl")
        with connect(host, port, client_id="warm") as client:
            warm = run_service_campaign(
                {"505.mcf_r": mcf_image}, client,
                manifest_path=warm_manifest,
                validations=[elfie_validation("v", trials=1)], **PIPELINE)
        warm_records = read_manifest(warm_manifest)
        keyed = [record for record in warm_records if record["key"]]
        hits = [record for record in keyed if record["cache"] == "hit"]
        assert len(hits) >= 0.9 * len(keyed)
        assert not executed_jobs(warm_records, "log")
        assert not executed_jobs(warm_records, "convert")
        assert warm["505.mcf_r"].validations["v"].abs_error_percent == \
            local.validations["v"].abs_error_percent

        join_workers(workers)

        # the sharded store spread the campaign across both shards
        stats = server.store.stats()
        assert all(entry["blocks"] > 0 for entry in stats.shards.values())


def test_two_racing_clients_share_single_executions(tmp_path, mcf_image):
    """Two clients submitting the identical campaign concurrently get
    identical results from single executions (in-flight memo dedup)."""
    with ServerThread(str(tmp_path / "svc"), shards=2,
                      lease_timeout=5.0) as server:
        host, port = server.server.host, server.server.port
        workers = start_workers(host, port, count=2)
        outcomes = {}
        errors = []

        def campaign(label):
            try:
                with connect(host, port, client_id=label) as client:
                    outcomes[label] = run_service_campaign(
                        {"505.mcf_r": mcf_image}, client,
                        validations=[elfie_validation("v", trials=1)],
                        **PIPELINE)["505.mcf_r"]
            except Exception as exc:  # surfaced below
                errors.append((label, exc))

        threads = [threading.Thread(target=campaign, args=("c%d" % index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        join_workers(workers)
        assert not errors, errors

        first, second = outcomes["c0"], outcomes["c1"]
        assert first.result.pinballs.keys() == second.result.pinballs.keys()
        for name in first.result.elfies:
            assert first.result.elfies[name].image == \
                second.result.elfies[name].image
        assert first.validations["v"].abs_error_percent == \
            second.validations["v"].abs_error_percent

        # single execution per memo key: every keyed job ran at most once
        scheduler = server.scheduler
        by_memo = {}
        for job in scheduler.jobs.values():
            if job.memo_key:
                by_memo.setdefault(job.memo_key, []).append(job)
        assert by_memo  # the campaign did queue keyed work
        for memo_key, jobs in by_memo.items():
            executed = [job for job in jobs if job.state == "ok"]
            assert len(executed) <= 1, memo_key


def test_service_cli_start_worker_submit_status(tmp_path, capsys):
    """The CLI wiring: server thread + worker + submit + status."""
    store_dir = str(tmp_path / "svc")
    with ServerThread(store_dir, shards=2, lease_timeout=5.0) as server:
        host, port = server.server.host, server.server.port
        workers = start_workers(host, port, count=2)
        manifest = str(tmp_path / "run.jsonl")
        argv = ["service", "submit", "--host", host, "--port", str(port),
                "--app", "505.mcf_r", "--input", "test",
                "--slice-size", "10000", "--warmup", "20000",
                "--max-k", "4", "--alternates", "1", "--trials", "1",
                "--manifest", manifest]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r:" in out and "coverage" in out

        assert main(["service", "status", "--host", host,
                     "--port", str(port), "--store"]) == 0
        status = capsys.readouterr().out
        assert '"scheduler"' in status and '"shards"' in status
        join_workers(workers)

    # farm stats reads the sharded layout the service wrote
    assert main(["farm", "stats", "--store", store_dir, "--json"]) == 0
    import json as json_module
    stats = json_module.loads(capsys.readouterr().out)
    assert set(stats["shards"]) == {"shard-00", "shard-01"}
