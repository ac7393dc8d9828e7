"""Blocking client for the checkpoint service.

One :class:`ServiceClient` owns one socket.  Calls are synchronous
request/response; on a connection failure the client reconnects with
capped exponential backoff and **resends the same envelope** (same
request id), which the server's replay cache turns into an idempotent
retry — a submit that died after the server enqueued but before the
response arrived does not double-enqueue.

Error mapping: a response with ``ok: false`` raises
:class:`ServiceBusy` for retryable 429s (after the client's own retries
are exhausted), :class:`ServiceError` otherwise; transport failure past
the retry budget raises :class:`ServiceUnavailable`.

The client is what campaign runners and workers embed; it is
intentionally thread-unfriendly (one socket, one outstanding call) —
use one client per thread, as :class:`repro.service.worker.ServiceWorker`
does for its heartbeat thread.
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.farm import codec
from repro.service import protocol


class ServiceError(Exception):
    """The server refused the request (non-retryable)."""

    def __init__(self, error: str, code: int = 500) -> None:
        super().__init__("%s (code %d)" % (error, code))
        self.error = error
        self.code = code


class ServiceBusy(ServiceError):
    """Backpressure: the queue is full and retries were exhausted."""


class ServiceUnavailable(Exception):
    """Could not reach the server within the retry budget."""


class ServiceClient:
    """Blocking, reconnecting, idempotent-retry protocol client."""

    #: The first retry's delay (s); each later one doubles, up to
    #: ``max_backoff``.
    backoff = 0.05
    max_backoff = 2.0
    #: Socket timeout (s) of a connect and of a read.
    timeout = 60.0

    def __init__(self, host: str, port: int, client_id: str = "",
                 retries: int = 5) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id or ("client-%d" % os.getpid())
        self.retries = retries
        self._sock: Optional[socket.socket] = None
        self._seq = itertools.count()

    # -- transport ---------------------------------------------------------

    def _next_id(self) -> str:
        return "%s:%d:%d" % (self.client_id, os.getpid(), next(self._seq))

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def call(self, verb: str, *, wait_budget: float = 0.0,
             **fields: Any) -> dict:
        """One request/response round trip with retry-on-disconnect.

        The envelope (including its ``id``) is built once and resent
        verbatim on every retry, so the server can deduplicate.  A 429
        queue-full response is retried with the same backoff schedule;
        ``wait_budget`` extends the read timeout for long-poll verbs.
        """
        message = dict(fields)
        message["verb"] = verb
        message.setdefault("id", self._next_id())
        delay = self.backoff
        last_error: Optional[Exception] = None
        for attempt in range(1 + self.retries):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, self.max_backoff)
            try:
                sock = self._connect()
                if wait_budget:
                    sock.settimeout(self.timeout + wait_budget)
                protocol.send_message(sock, message)
                response = protocol.recv_message(sock)
                if wait_budget:
                    sock.settimeout(self.timeout)
            except (OSError, protocol.ProtocolError) as exc:
                last_error = exc
                self._drop()
                continue
            if response is None:  # server closed between frames
                last_error = ConnectionError("server closed the connection")
                self._drop()
                continue
            if response.get("ok", False):
                return response
            code = int(response.get("code", 500))
            error = str(response.get("error", "unknown error"))
            if code == 429 and response.get("retryable"):
                last_error = ServiceBusy(error, code)
                continue  # backpressure: back off and retry
            raise ServiceError(error, code)
        if isinstance(last_error, ServiceBusy):
            raise last_error
        raise ServiceUnavailable(
            "no response from %s:%d after %d attempts: %s"
            % (self.host, self.port, 1 + self.retries, last_error))

    # -- job verbs ---------------------------------------------------------

    def hello(self) -> dict:
        return self.call("hello")

    def submit(self, name: str, fn: Any, args: tuple = (),
               kwargs: Optional[dict] = None, key: str = "",
               result_key: str = "", kind: str = "", stage: str = "",
               priority: int = 0, retries: Optional[int] = None,
               force: bool = False) -> dict:
        """Submit one job; returns the server's status + job view.

        ``status`` is ``"cached"`` (result already in the store),
        ``"queued"``, or ``"duplicate"`` (attached to an identical
        in-flight job).
        """
        payload = protocol.pack_bytes(
            pickle.dumps((fn, tuple(args), dict(kwargs or {})), protocol=4))
        fields: Dict[str, Any] = dict(
            client=self.client_id, name=name, payload=payload, key=key,
            result_key=result_key or key, kind=kind, stage=stage,
            priority=priority, force=force)
        if retries is not None:
            fields["retries"] = retries
        return self.call("submit", **fields)

    def lease(self, worker: str, wait_s: float = 0.0) -> Optional[dict]:
        """Lease the next job (long-polling up to *wait_s*), or None."""
        response = self.call("lease", worker=worker, wait_s=wait_s,
                             wait_budget=wait_s)
        return response.get("job")

    def heartbeat(self, lease_id: str) -> float:
        return float(self.call("heartbeat", lease_id=lease_id)["deadline"])

    def complete(self, lease_id: str, ok: bool = True, error: str = "",
                 wall_s: float = 0.0, icount: Optional[int] = None,
                 worker: str = "", preempted: bool = False,
                 snapshot_key: str = "") -> dict:
        if preempted:
            status = "preempted"
        else:
            status = "ok" if ok else "failed"
        return self.call("complete", lease_id=lease_id,
                         status=status, error=error,
                         wall_s=wall_s, icount=icount, worker=worker,
                         snapshot_key=snapshot_key)["job"]

    def wait(self, job_ids: List[str], timeout_s: float = 30.0) -> dict:
        """States of *job_ids*, blocking up to *timeout_s* for settles."""
        response = self.call("wait", jobs=list(job_ids),
                             timeout_s=timeout_s, wait_budget=timeout_s)
        return response["jobs"]

    # -- artifact verbs ----------------------------------------------------

    def put_artifact(self, key: str, obj: Any, kind: str = "") -> str:
        """Encode *obj* with the farm codec and upload it under *key*."""
        kind, meta, blocks = codec.encode(obj, kind)
        self.call("put-artifact", key=key, kind=kind, meta=meta,
                  blocks=protocol.pack_blocks(blocks))
        return kind

    def put(self, key: str, obj: Any, kind: str = "") -> str:
        """:meth:`put_artifact` under the store's name, so a job run
        through :func:`repro.farm.runner._call_job` commits over the
        wire."""
        return self.put_artifact(key, obj, kind)

    def get_artifact(self, key: str) -> Any:
        """Download and decode the artifact stored under *key*.

        A block that fails verification, or an entry in a layout no
        reader accepts, raises :class:`ServiceError`, the error the
        server raises for a damaged entry.
        """
        response = self.call("get-artifact", key=key)
        blocks = protocol.unpack_blocks(response.get("blocks", {}))

        def fetch(digest: str) -> bytes:
            data = blocks[digest]
            if codec.sha256_hex(data) != digest:
                raise protocol.ProtocolError(
                    "downloaded block %s fails digest verification" % digest)
            return data

        try:
            return codec.decode(response["kind"], response["meta"], fetch)
        except (ValueError, protocol.ProtocolError) as exc:
            raise ServiceError("artifact %s: %s" % (key, exc)) from exc

    def stats(self, store: bool = False) -> dict:
        return self.call("stats", store=store)


def connect(host: str, port: int, **kwargs: Any) -> ServiceClient:
    """Connect eagerly (raises now, not on first call, if unreachable)."""
    client = ServiceClient(host, port, **kwargs)
    client.hello()
    return client


def decode_payload(payload: str) -> Tuple[Any, tuple, dict]:
    """Unpack a job payload into ``(fn, args, kwargs)`` (worker side)."""
    fn, args, kwargs = pickle.loads(protocol.unpack_bytes(payload))
    return fn, args, kwargs
