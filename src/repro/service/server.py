"""The checkpoint-service server: asyncio sockets over store + scheduler.

One process owns the (sharded) artifact store and a
:class:`FairShareScheduler`; remote workers and campaign clients speak
the length-prefixed JSON protocol.  The server itself executes no jobs —
it admits, leases, and settles them, and brokers artifact bytes between
the store and the network.  Store I/O runs in a thread pool so a large
``put-artifact`` cannot stall lease/heartbeat traffic.

Crash/fault behaviour by construction:

- a connection dropped mid-frame affects only that connection — no
  partial request is ever dispatched;
- an uploaded block whose bytes do not hash to its claimed digest is
  rejected before the store sees it;
- a worker that dies mid-job stops heartbeating, its lease expires, and
  the reaper re-queues the job;
- duplicated mutating requests (client retries after a lost response)
  are replayed from the response cache keyed by request id.

``repro.observe`` instrumentation: ``service.queue_depth`` gauge,
``service.lease_latency_s`` histogram (submit -> first lease),
``service.submits/leases/completes`` counters, and the sharded store's
per-shard hit/repair counters via ``stats``.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.farm import codec
from repro.farm.store import open_store
from repro.observe import hooks
from repro.service import protocol
from repro.service.scheduler import (
    FairShareScheduler,
    LeaseLost,
    QueueFull,
    UnknownJob,
)

#: How many mutating-request responses are kept for idempotent replay.
REPLAY_CACHE = 4096

_MUTATING = ("submit", "lease", "complete", "put-artifact")


class CheckpointServer:
    """The service endpoint (run me inside an asyncio event loop)."""

    def __init__(self, store: Any, host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = 10.0, max_queued: int = 1024,
                 retries: int = 2) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.scheduler = FairShareScheduler(
            max_queued=max_queued, lease_timeout=lease_timeout,
            retries=retries)
        self._replay: "OrderedDict[str, dict]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._connections: set = set()
        self.submits = 0
        self.completes = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._reaper = asyncio.ensure_future(self._reap_leases())
        return self.host, self.port

    async def stop(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)

    async def _reap_leases(self) -> None:
        interval = max(0.02, self.lease_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            expired = self.scheduler.expire()
            obs = hooks.OBS
            if obs.enabled:
                if expired:
                    obs.count("service.leases_expired", len(expired))
                obs.gauge("service.queue_depth", self.scheduler.queued)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError:
                    break  # torn frame: nothing was dispatched; drop peer
                if message is None:
                    break
                response = await self._dispatch(message)
                response.setdefault("ok", True)
                response["id"] = message.get("id")
                try:
                    await protocol.write_message(writer, response)
                except (ConnectionError, OSError):
                    break
        except asyncio.CancelledError:
            pass  # server shutdown cancels open connections
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, message: Dict[str, Any]) -> dict:
        verb = str(message.get("verb", ""))
        request_id = message.get("id")
        if verb in _MUTATING and request_id is not None \
                and request_id in self._replay:
            return dict(self._replay[request_id])
        handler = getattr(self, "_verb_" + verb.replace("-", "_"), None)
        if handler is None:
            return protocol.error_response("unknown verb %r" % verb, 400)
        try:
            response = await handler(message)
        except QueueFull as exc:
            response = protocol.error_response(
                "queue-full", 429, retryable=True, detail=str(exc))
        except LeaseLost as exc:
            response = protocol.error_response(
                "lease-lost", 409, detail=str(exc))
        except (UnknownJob, KeyError) as exc:
            response = protocol.error_response(
                "not-found", 404, detail=str(exc))
        except protocol.ProtocolError as exc:
            response = protocol.error_response(str(exc), 400)
        except Exception as exc:  # the server must survive any request
            response = protocol.error_response(
                "%s: %s" % (type(exc).__name__, exc), 500)
        if verb in _MUTATING and request_id is not None:
            self._replay[request_id] = dict(response)
            while len(self._replay) > REPLAY_CACHE:
                self._replay.popitem(last=False)
        return response

    async def _store_call(self, fn, *args):
        return await asyncio.get_event_loop().run_in_executor(
            None, fn, *args)

    # -- job verbs ---------------------------------------------------------

    async def _verb_hello(self, message: dict) -> dict:
        return {"server": "repro.service", "version": 1}

    async def _verb_submit(self, message: dict) -> dict:
        memo_key = str(message.get("key", "") or "")
        if memo_key and not message.get("force") \
                and await self._store_call(self.store.contains, memo_key):
            obs = hooks.OBS
            if obs.enabled:
                obs.count("service.cache_hits")
            return {"status": "cached", "key": memo_key}
        status, job = self.scheduler.submit(
            client=str(message.get("client", "anonymous")),
            name=str(message.get("name", "")),
            payload=str(message.get("payload", "")),
            memo_key=memo_key,
            result_key=str(message.get("result_key", "") or memo_key),
            kind=str(message.get("kind", "")),
            stage=str(message.get("stage", "")),
            priority=int(message.get("priority", 0)),
            retries=message.get("retries"),
        )
        self.submits += 1
        obs = hooks.OBS
        if obs.enabled:
            obs.count("service.submits")
            obs.gauge("service.queue_depth", self.scheduler.queued)
        return {"status": status, "job": job.describe()}

    async def _verb_lease(self, message: dict) -> dict:
        worker = str(message.get("worker", "worker"))
        wait_s = float(message.get("wait_s", 0.0))
        deadline = asyncio.get_event_loop().time() + wait_s
        while True:
            job = self.scheduler.lease(worker)
            if job is not None:
                obs = hooks.OBS
                if obs.enabled:
                    obs.count("service.leases")
                    obs.observe("service.lease_latency_s",
                                max(0.0, job.first_leased_at
                                    - job.submitted_at))
                grant = job.describe()
                grant.update({
                    "payload": job.payload,
                    "lease_id": job.lease_id,
                    "lease_timeout_s": self.lease_timeout,
                    "heartbeat_s": max(0.05, self.lease_timeout / 3.0),
                })
                return {"job": grant}
            if asyncio.get_event_loop().time() >= deadline:
                return {"job": None}
            await asyncio.sleep(0.02)

    async def _verb_heartbeat(self, message: dict) -> dict:
        deadline = self.scheduler.heartbeat(str(message["lease_id"]))
        return {"deadline": deadline}

    async def _verb_complete(self, message: dict) -> dict:
        status = str(message.get("status", "ok"))
        job = self.scheduler.complete(
            lease_id=str(message.get("lease_id", "")),
            request_id=str(message.get("id", "")),
            ok=bool(status == "ok"),
            error=str(message.get("error", "")),
            wall_s=float(message.get("wall_s", 0.0)),
            icount=message.get("icount"),
            worker=str(message.get("worker", "")),
            preempted=bool(status == "preempted"),
            snapshot_key=str(message.get("snapshot_key", "") or ""),
        )
        self.completes += 1
        obs = hooks.OBS
        if obs.enabled:
            obs.count("service.completes")
            if status == "preempted":
                obs.count("service.preemptions")
            obs.gauge("service.queue_depth", self.scheduler.queued)
        return {"job": job.describe()}

    async def _verb_wait(self, message: dict) -> dict:
        """Block (bounded) until the named jobs settle; return states."""
        job_ids = [str(job_id) for job_id in message.get("jobs", [])]
        timeout_s = float(message.get("timeout_s", 0.0))
        jobs = [self.scheduler.get(job_id) for job_id in job_ids]
        pending = [job for job in jobs if not job.settled]
        if pending and timeout_s > 0:
            waiters = [asyncio.ensure_future(job.done.wait())
                       for job in pending]
            try:
                await asyncio.wait(waiters, timeout=timeout_s,
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                for waiter in waiters:
                    waiter.cancel()
        return {"jobs": {job.job_id: job.describe() for job in jobs}}

    # -- artifact verbs ----------------------------------------------------

    def _put_artifact(self, key: str, kind: str, meta: dict,
                      blocks: Dict[str, bytes]) -> None:
        for digest, data in blocks.items():
            if codec.sha256_hex(data) != digest:
                raise protocol.ProtocolError(
                    "uploaded block %s fails digest verification" % digest)
        try:
            self.store.commit(key, kind, meta, blocks)
        except ValueError as exc:  # unknown kind, block missing, bad key
            raise protocol.ProtocolError(str(exc)) from None

    async def _verb_put_artifact(self, message: dict) -> dict:
        key = str(message["key"])
        blocks = protocol.unpack_blocks(message.get("blocks", {}))
        await self._store_call(
            self._put_artifact, key, str(message.get("kind", "object")),
            message.get("meta", {}), blocks)
        obs = hooks.OBS
        if obs.enabled:
            obs.count("service.artifacts_put")
            obs.count("service.artifact_bytes_in",
                      sum(len(data) for data in blocks.values()))
        return {"key": key}

    async def _verb_get_artifact(self, message: dict) -> dict:
        key = str(message["key"])
        record, blocks = await self._store_call(self.store.fetch, key)
        obs = hooks.OBS
        if obs.enabled:
            obs.count("service.artifacts_got")
            obs.count("service.artifact_bytes_out",
                      sum(len(data) for data in blocks.values()))
        return {"key": key, "kind": record["kind"], "meta": record["meta"],
                "blocks": protocol.pack_blocks(blocks)}

    async def _verb_stats(self, message: dict) -> dict:
        response = {
            "scheduler": self.scheduler.stats(),
            "submits": self.submits,
            "completes": self.completes,
        }
        if message.get("store"):
            stats = await self._store_call(self.store.stats)
            response["store"] = stats.to_json()
        return response


class ServerThread:
    """Run a :class:`CheckpointServer` on a daemon thread.

    The in-process deployment the tests and benchmarks use, and what
    lets a single Python process host server + workers + client.  The
    CLI's ``service start`` uses :func:`serve_forever` instead.
    """

    def __init__(self, store_root: str, shards: int = 0,
                 host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = 10.0, max_queued: int = 1024,
                 retries: int = 2) -> None:
        self.server = CheckpointServer(
            open_store(store_root, shards=shards), host=host, port=port,
            lease_timeout=lease_timeout, max_queued=max_queued,
            retries=retries)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()
        # drain cancellations after run_forever stops
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def start(self) -> Tuple[str, int]:
        self._thread.start()
        self._started.wait(10.0)
        return self.server.host, self.server.port

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10.0)

    @property
    def store(self) -> Any:
        return self.server.store

    @property
    def scheduler(self) -> FairShareScheduler:
        return self.server.scheduler

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


async def serve(store_root: str, shards: int = 0, host: str = "127.0.0.1",
                port: int = 0, lease_timeout: float = 10.0,
                max_queued: int = 1024, retries: int = 2) -> None:
    """Foreground server (the ``service start`` CLI entry point)."""
    store = open_store(store_root, shards=shards)
    server = CheckpointServer(store, host=host, port=port,
                              lease_timeout=lease_timeout,
                              max_queued=max_queued, retries=retries)
    bound_host, bound_port = await server.start()
    shard_note = ""
    if hasattr(store, "shards"):
        shard_note = ", %d shards" % len(store.shards)
    print("repro.service listening on %s:%d (store %s%s)"
          % (bound_host, bound_port, store_root, shard_note), flush=True)
    try:
        await asyncio.Event().wait()  # until cancelled (SIGINT)
    finally:
        await server.stop()
