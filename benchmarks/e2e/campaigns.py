"""The benchmark's workloads: seeded checkpoint campaigns.

Each workload builds its guest images in ``setup`` and runs one whole
campaign per ``rep``: images to validated prediction.  The seed is the
pipeline's scheduler seed; validation replays use ``seed + 100``.

``rep(ctx, inline=True)`` runs the same campaign in one process with
every job body spanned (:class:`layers.InlineRunner`) -- the traced
variant of the two workloads whose jobs otherwise run in pool workers
the tracer cannot see.  ``warm_rerun`` and ``service_pair`` trace their
unchanged code path instead.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.farm import ArtifactStore, CampaignError, FarmRunner, read_manifest
from repro.looppoint import looppoint_validation, run_looppoint_campaign
from repro.observe import hooks
from repro.service import (
    ServerThread,
    ServiceClient,
    run_service_campaign,
    worker_main,
)
from repro.simpoint import (
    FarmValidation,
    ValidationResult,
    elfie_validation,
    run_pinpoints_campaign,
)
from repro.simulators import SniperSim
from repro.simulators.sniper import find_end_condition
from repro.workloads import MT_APPS, SPEC2017_INT_RATE

from layers import InlineRunner, TimedClient, TimedStore, layer
from summary import ROOT_CAT, ROOT_SPAN, dir_bytes

#: PinPoints parameters shared by every SPEC-app workload.
PINPOINTS = dict(slice_size=20_000, warmup=80_000, max_k=8, max_alternates=1)
LOOPPOINT = dict(max_k=8, max_alternates=1)
#: SPEC apps run their ``test`` input: ``train`` makes one cold
#: ten-app campaign ~17 s on 2 cores, too long to repeat within a run.
SPEC_INPUT = "test"
MT_INPUT = "train"
WORKERS = 2
#: The four apps of the warm and service workloads (cheap, and with
#: prediction errors from 0.02% to 31%).
PAIR_APPS = ["505.mcf_r", "531.deepsjeng_r", "548.exchange2_r", "557.xz_r"]

#: Layer each pipeline stage's job body calls into.
STAGE_LAYERS = {
    "simpoint": {"profile": "simpoint.collect_bbv",
                 "cluster": "simpoint.select"},
    "looppoint": {"profile": "looppoint.collect",
                  "cluster": "looppoint.select"},
}
SHARED_LAYERS = {"log": "pinplay.log_regions", "convert": "core.convert",
                 "assemble": "farm.assemble"}
VALIDATION_LAYERS = {"elfie": "simpoint.measure_elfie",
                     "markers": "looppoint.validate",
                     "sniper": "sniper.pass"}


def job_layer(job) -> str:
    if job.stage == "validate":
        return VALIDATION_LAYERS[job.name.rsplit("/", 1)[1]]
    if job.stage in SHARED_LAYERS:
        return SHARED_LAYERS[job.stage]
    selector = "looppoint" if job.selector.startswith("looppoint") \
        else "simpoint"
    return STAGE_LAYERS[selector][job.stage]


def sniper_pass(result, image: bytes, seed: int) -> Dict[str, Any]:
    """Sniper on each primary region, the Fig. 11 flow.

    The pinball is simulated constrained; the ELFie unconstrained up to
    the ``(PC, count)`` end condition a profiling replay of the pinball
    picks.  Returns ``{region: {"pinball"|"elfie": [instructions,
    runtime cycles]}}``.
    """
    sim = SniperSim()
    out: Dict[str, Any] = {}
    for region in result.primary_regions:
        pinball = result.pinballs.get(region.name)
        elfie = result.elfies.get(region.name)
        if pinball is None or elfie is None:
            continue
        with layer("pinplay.replay"):
            end_pc, end_count = find_end_condition(pinball, seed=seed)
        with layer("sniper.simulate_pinball") as span:
            constrained = sim.simulate_pinball(pinball, seed=seed)
            span.set(sim_instructions=constrained.instructions)
        with layer("sniper.simulate_elfie") as span:
            free = sim.simulate_elfie(elfie.image, end_pc=end_pc,
                                      end_count=end_count, seed=seed)
            span.set(sim_instructions=free.instructions)
        out[region.name] = {
            "pinball": [constrained.instructions, constrained.runtime_cycles],
            "elfie": [free.instructions, free.runtime_cycles],
        }
    return out


def _validation_digest(value: Any) -> Any:
    if isinstance(value, ValidationResult):
        return {"whole_cpi": value.whole_program_cpi,
                "predicted_cpi": value.predicted_cpi,
                "regions": [[m.region.name, m.cpi, m.ok, m.used_alternate]
                            for m in value.measurements]}
    return value


def digest_outcomes(outcomes: Dict[str, Any]) -> Dict[str, Any]:
    """What repetitions must agree on: ELFie bytes and validation numbers."""
    return {
        app: {
            "elfies": {name: hashlib.sha256(artifact.image).hexdigest()
                       for name, artifact
                       in sorted(outcome.result.elfies.items())},
            "validations": {label: _validation_digest(value)
                            for label, value
                            in sorted(outcome.validations.items())},
        }
        for app, outcome in sorted(outcomes.items())
    }


def quality(outcomes: Dict[str, Any], label: str) -> Dict[str, float]:
    """Mean absolute CPI prediction error and mean validated weight."""
    validations = [outcome.validations[label]
                   for outcome in outcomes.values()]
    if not validations:
        return {"pred_error_pct": 0.0, "coverage_pct": 0.0}
    return {
        "pred_error_pct": sum(v.abs_error_percent for v in validations)
        / len(validations),
        "coverage_pct": 100.0 * sum(v.covered_weight for v in validations)
        / len(validations),
    }


@dataclass
class Rep:
    """One repetition's measurements and outputs."""

    wall_s: float
    records: List[Dict[str, Any]]
    workers: int
    outcomes: Optional[Dict[str, Any]]
    quality: Dict[str, float]
    store_bytes: int
    store_stats: Dict[str, float] = field(default_factory=dict)
    #: workload-specific correctness failures
    problems: List[str] = field(default_factory=list)
    rpc_latencies: Dict[str, List[float]] = field(default_factory=dict)
    lease_latencies: List[float] = field(default_factory=list)
    #: peak RSS of the repetition's processes (isolated repetitions)
    peak_rss_kb: int = 0


def _open_store(root: str) -> ArtifactStore:
    """A store whose calls are layer spans while tracing is on."""
    cls = TimedStore if hooks.OBS.enabled else ArtifactStore
    return cls(os.path.join(root, "store"))


def _elfie_validations(seed: int) -> List[FarmValidation]:
    return [elfie_validation("elfie", seed=seed + 100, trials=1)]


def _store_stats(store) -> Dict[str, float]:
    stats = store.stats()
    return {"dedup_ratio": stats.dedup_ratio,
            "compression_ratio": stats.compression_ratio}


class Workload:
    """Base: fresh directories under *work*, one campaign per rep."""

    name = ""
    #: a fresh set-up (and tear-down) around every repetition
    setup_per_rep = False
    #: trace with :class:`layers.InlineRunner` rather than the rep's
    #: own code path
    inline_trace = False

    def __init__(self, seed: int, work: str, trace: bool) -> None:
        self.seed = seed
        self.work = work
        self.trace = trace
        self._dirs = 0

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, "%s-%d-%d"
                            % (label, os.getpid(), self._dirs))
        os.makedirs(path)
        return path

    def setup(self) -> Any:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        pass

    def rep(self, ctx: Any, inline: bool = False) -> Rep:
        raise NotImplementedError


class _FarmWorkload(Workload):
    """A cold local-farm campaign over a fresh store per repetition."""

    inline_trace = True
    input_set = ""
    apps: List[str] = []
    quality_label = ""

    def build(self, name: str) -> bytes:
        raise NotImplementedError

    def setup(self) -> Dict[str, bytes]:
        return {name: self.build(name) for name in self.apps}

    def campaign(self, images, store, runner) -> Dict[str, Any]:
        raise NotImplementedError

    def rep(self, images: Dict[str, bytes], inline: bool = False) -> Rep:
        root = self.fresh_dir("rep")
        store = _open_store(root)
        manifest = os.path.join(root, "manifest.jsonl")
        runner = (InlineRunner(store, job_layer, manifest_path=manifest)
                  if inline else
                  FarmRunner(store, jobs=WORKERS, manifest_path=manifest))
        problems: List[str] = []
        outcomes = None
        start = time.perf_counter()
        with layer(ROOT_SPAN, cat=ROOT_CAT, workload=self.name):
            try:
                with layer("farm.campaign"):
                    outcomes = self.campaign(images, store, runner)
            except CampaignError as exc:
                problems.append(str(exc))
        wall = time.perf_counter() - start
        rep = Rep(wall_s=wall, records=read_manifest(manifest),
                  workers=runner.jobs,
                  outcomes=digest_outcomes(outcomes) if outcomes else None,
                  quality=quality(outcomes or {}, self.quality_label),
                  store_bytes=dir_bytes(store.root), problems=problems)
        if self.trace:
            rep.store_stats = _store_stats(store)
        shutil.rmtree(root)
        return rep


class PinPointsInt(_FarmWorkload):
    """Cold PinPoints campaign over the ten int-rate apps."""

    name = "pinpoints_int"
    input_set = SPEC_INPUT
    apps = list(SPEC2017_INT_RATE)
    quality_label = "elfie"

    def build(self, name: str) -> bytes:
        return SPEC2017_INT_RATE[name].build(self.input_set)

    def campaign(self, images, store, runner):
        return run_pinpoints_campaign(
            images, store, runner=runner, seed=self.seed,
            validations=_elfie_validations(self.seed), **PINPOINTS)


class LoopPointMT(_FarmWorkload):
    """Cold LoopPoint campaign plus a Sniper pass on the MT apps."""

    name = "looppoint_mt"
    input_set = MT_INPUT
    apps = ["mt.prodcons", "mt.barrier", "mt.steal"]
    quality_label = "markers"

    def build(self, name: str) -> bytes:
        return MT_APPS[name].build(self.input_set)

    def campaign(self, images, store, runner):
        seed = self.seed + 100
        return run_looppoint_campaign(
            images, store, runner=runner, seed=self.seed,
            validations=[
                looppoint_validation("markers", seed=seed, trials=1),
                FarmValidation("sniper", sniper_pass, {"seed": seed}),
            ],
            **LOOPPOINT)


@dataclass
class _WarmStore:
    images: Dict[str, bytes]
    root: str
    cold: Dict[str, Any]


class WarmRerun(Workload):
    """Rerun of an identical campaign over the store set-up populated."""

    name = "warm_rerun"

    def _campaign(self, images, store, manifest: str):
        return run_pinpoints_campaign(
            images, store, jobs=WORKERS, manifest_path=manifest,
            seed=self.seed, validations=_elfie_validations(self.seed),
            **PINPOINTS)

    def setup(self) -> _WarmStore:
        images = {name: SPEC2017_INT_RATE[name].build(SPEC_INPUT)
                  for name in PAIR_APPS}
        root = self.fresh_dir("warm")
        cold = self._campaign(images, _open_store(root),
                              os.path.join(root, "cold.jsonl"))
        return _WarmStore(images, root, digest_outcomes(cold))

    def teardown(self, ctx: _WarmStore) -> None:
        shutil.rmtree(ctx.root)

    def rep(self, ctx: _WarmStore, inline: bool = False) -> Rep:
        store = _open_store(ctx.root)
        manifest = os.path.join(ctx.root, "rerun.jsonl")
        problems: List[str] = []
        outcomes: Dict[str, Any] = {}
        start = time.perf_counter()
        with layer(ROOT_SPAN, cat=ROOT_CAT, workload=self.name):
            try:
                with layer("farm.campaign"):
                    outcomes = self._campaign(ctx.images, store, manifest)
            except CampaignError as exc:
                problems.append(str(exc))
        wall = time.perf_counter() - start
        records = read_manifest(manifest)
        digest = digest_outcomes(outcomes)
        problems += ["rerun job %s missed the cache" % record["job"]
                     for record in records if record.get("cache") == "miss"]
        if digest != ctx.cold:
            problems.append("rerun result differs from its cold result")
        rep = Rep(wall_s=wall, records=records, workers=WORKERS,
                  outcomes=digest, quality=quality(outcomes, "elfie"),
                  store_bytes=dir_bytes(store.root), problems=problems)
        if self.trace:
            rep.store_stats = _store_stats(store)
        return rep


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class _Service:
    images: Dict[str, bytes]
    root: str
    server: ServerThread
    workers: List[multiprocessing.Process]


class ServicePair(Workload):
    """Two client threads' campaigns through one sharded service."""

    name = "service_pair"
    setup_per_rep = True
    #: how long set-up waits for forked workers to reach the server
    CONNECT_S = 0.1

    def setup(self) -> _Service:
        images = {name: SPEC2017_INT_RATE[name].build(SPEC_INPUT)
                  for name in PAIR_APPS}
        root = self.fresh_dir("svc")
        host, port = "127.0.0.1", _free_port()
        # Fork while this process is still single-threaded: the server
        # thread starts after, and workers retry until it listens.
        context = multiprocessing.get_context("fork")
        workers = [context.Process(target=worker_main, args=(host, port),
                                   kwargs=dict(name="w%d" % index,
                                               poll_s=0.1,
                                               drain_timeout_s=5.0))
                   for index in range(WORKERS)]
        for process in workers:
            process.start()
        server = ServerThread(os.path.join(root, "svc"), shards=2,
                              port=port, lease_timeout=20.0)
        server.start()
        time.sleep(self.CONNECT_S)
        return _Service(images, root, server, workers)

    def teardown(self, ctx: _Service) -> None:
        for process in ctx.workers:
            process.terminate()  # SIGTERM: the worker drains and exits
        for process in ctx.workers:
            process.join(10.0)
            if process.is_alive():
                process.kill()
                process.join()
        ctx.server.stop()
        shutil.rmtree(ctx.root)

    def rep(self, ctx: _Service, inline: bool = False) -> Rep:
        host, port = ctx.server.server.host, ctx.server.server.port
        client_cls = TimedClient if self.trace else ServiceClient
        halves = {"c0": PAIR_APPS[:2], "c1": PAIR_APPS[2:]}
        outcomes: Dict[str, Any] = {}
        errors: List[str] = []
        clients: List[ServiceClient] = []

        def campaign(label: str) -> None:
            client = client_cls(host, port, client_id=label)
            clients.append(client)
            try:
                with layer("farm.campaign"):
                    outcomes.update(run_service_campaign(
                        {app: ctx.images[app] for app in halves[label]},
                        client,
                        manifest_path=os.path.join(ctx.root,
                                                   label + ".jsonl"),
                        run_id=label, seed=self.seed,
                        validations=_elfie_validations(self.seed),
                        **PINPOINTS))
            except Exception as exc:  # reported as a failed repetition
                errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            finally:
                client.close()

        threads = [threading.Thread(target=campaign, args=(label,))
                   for label in halves]
        start = time.perf_counter()
        with layer(ROOT_SPAN, cat=ROOT_CAT, workload=self.name):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - start
        records: List[Dict[str, Any]] = []
        for label in halves:
            path = os.path.join(ctx.root, label + ".jsonl")
            if os.path.exists(path):
                records += read_manifest(path)
        store = ctx.server.store
        rep = Rep(wall_s=wall, records=records, workers=WORKERS,
                  outcomes=None if errors else digest_outcomes(outcomes),
                  quality=quality(outcomes, "elfie"),
                  store_bytes=dir_bytes(store.root), problems=errors,
                  lease_latencies=[
                      job.first_leased_at - job.submitted_at
                      for job in ctx.server.scheduler.jobs.values()
                      if job.first_leased_at])
        if self.trace:
            rep.store_stats = _store_stats(store)
            rep.rpc_latencies = {
                verb: [s for client in clients
                       for s in client.latencies.get(verb, [])]
                for verb in ("submit", "get_artifact")}
        return rep


WORKLOADS = {cls.name: cls for cls in (PinPointsInt, LoopPointMT,
                                       WarmRerun, ServicePair)}
