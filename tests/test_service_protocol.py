"""Protocol framing tests and fault injection against a live server."""

import socket
import struct
import threading
import time

import pytest

from repro.service import (
    ProtocolError,
    ServerThread,
    ServiceClient,
    ServiceUnavailable,
    ServiceWorker,
)
from repro.service import protocol


def double(value):
    return value * 2


def explode():
    raise RuntimeError("kaboom")


# -- framing ----------------------------------------------------------------


def test_frame_round_trip():
    message = {"verb": "hello", "id": "x:1", "nested": {"a": [1, 2, 3]}}
    frame = protocol.encode_frame(message)
    length = struct.unpack(">I", frame[:4])[0]
    assert length == len(frame) - 4
    left, right = socket.socketpair()
    try:
        protocol.send_message(left, message)
        assert protocol.recv_message(right) == message
    finally:
        left.close()
        right.close()


def test_recv_none_on_clean_eof():
    left, right = socket.socketpair()
    left.close()
    try:
        assert protocol.recv_message(right) is None
    finally:
        right.close()


def test_recv_raises_on_mid_frame_eof():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 100) + b"only-partial")
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.recv_message(right)
    finally:
        right.close()


def test_oversized_header_is_rejected_not_allocated():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", protocol.MAX_FRAME + 1))
        with pytest.raises(ProtocolError, match="claims"):
            protocol.recv_message(right)
    finally:
        left.close()
        right.close()


def test_bad_base64_raises_protocol_error():
    with pytest.raises(ProtocolError):
        protocol.unpack_bytes("!!not base64!!")
    assert protocol.unpack_bytes(protocol.pack_bytes(b"\x00\xffdata")) == \
        b"\x00\xffdata"


# -- fault injection over a live server -------------------------------------


@pytest.fixture()
def service(tmp_path):
    with ServerThread(str(tmp_path / "store"), shards=2,
                      lease_timeout=0.6) as server_thread:
        yield server_thread


def test_dropped_connection_mid_put_artifact(service):
    """A peer dying mid-frame must not dispatch a partial request."""
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="good")
    client.put_artifact("keep/1", {"v": 1}, "object")
    # handcraft a put-artifact frame and cut the connection halfway
    frame = protocol.encode_frame({
        "verb": "put-artifact", "id": "evil:1", "key": "torn/1",
        "kind": "object", "meta": {"blob": "0" * 64},
        "blocks": {"0" * 64: protocol.pack_bytes(b"x" * 10_000)}})
    raw = socket.create_connection((host, port))
    raw.sendall(frame[:len(frame) // 2])
    raw.close()
    time.sleep(0.1)
    # the torn request never executed, and the server still serves
    assert not service.store.contains("torn/1")
    assert client.get_artifact("keep/1") == {"v": 1}
    client.close()


def test_corrupt_block_upload_is_rejected(service):
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="liar", retries=0)
    from repro.service.client import ServiceError
    with pytest.raises(ServiceError, match="digest"):
        client.call("put-artifact", key="bad/1", kind="object",
                    meta={"blob": "ab" * 32},
                    blocks={"ab" * 32: protocol.pack_bytes(b"wrong bytes")})
    assert not service.store.contains("bad/1")
    client.close()


def test_undecodable_artifact_upload_is_rejected(service):
    """put-artifact commits nothing a reader could not decode.

    An unknown kind, or a meta referencing a block that was neither
    uploaded nor is in the pool, is a 400 and leaves the key absent;
    referencing a block the pool already holds is fine.
    """
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="sloppy", retries=0)
    from repro.farm.codec import sha256_hex
    from repro.service.client import ServiceError
    blob = b"payload"
    with pytest.raises(ServiceError) as bogus_kind:
        client.call("put-artifact", key="victim/1", kind="bogus",
                    meta={"blob": sha256_hex(blob)},
                    blocks={sha256_hex(blob): protocol.pack_bytes(blob)})
    assert bogus_kind.value.code == 400
    with pytest.raises(ServiceError) as dangling:
        client.call("put-artifact", key="victim/2", kind="object",
                    meta={"blob": "cd" * 32}, blocks={})
    assert dangling.value.code == 400
    assert not service.store.contains("victim/1")
    assert not service.store.contains("victim/2")
    client.put_artifact("keep/2", {"v": 2}, "object")
    meta = service.store.get_record("keep/2")["meta"]
    client.call("put-artifact", key="alias/2", kind="object", meta=meta,
                blocks={})
    assert client.get_artifact("alias/2") == {"v": 2}
    client.close()


def test_artifact_digests_cannot_name_paths_outside_the_pool(tmp_path):
    """A referenced digest names a block file, so one that is not hex
    SHA-256 is a 400 before any file is opened: read verification would
    otherwise drop the file it named as a corrupt block."""
    root = tmp_path / "store"
    victim = tmp_path / "victim.txt"
    victim.write_text("keep me")
    with ServerThread(str(root)) as server_thread:  # the plain layout
        host, port = server_thread.server.host, server_thread.server.port
        client = ServiceClient(host, port, client_id="prowler", retries=0)
        from repro.service.client import ServiceError
        # blocks/<d> with d = "../store.json" is the store's own
        # marker (so was "../store/store.json" in the fanned-out
        # layout); an absolute d replaces the whole path
        for digest in ("../store.json", "../store/store.json", str(victim),
                       7):
            with pytest.raises(ServiceError) as rejected:
                client.call("put-artifact", key="escape/1", kind="object",
                            meta={"blob": digest}, blocks={})
            assert rejected.value.code == 400
        assert (root / "store.json").exists()
        assert victim.read_text() == "keep me"
        assert not server_thread.store.contains("escape/1")
        client.close()


def test_worker_death_mid_lease_requeues_and_reruns(service):
    """A silent worker's lease expires; the job re-runs, nothing is
    lost and nothing runs twice-effectively."""
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="campaign")
    submitted = client.submit("double", double, (21,), key="svc/t/double",
                              kind="object")
    assert submitted["status"] == "queued"
    # a "worker" leases the job and immediately dies (no heartbeat)
    dead = ServiceClient(host, port, client_id="dead-worker")
    grant = dead.lease("dead-worker", wait_s=2.0)
    assert grant is not None
    dead.close()  # gone: no heartbeat, no complete
    # a live worker picks the job up after the lease expires
    worker = ServiceWorker(host, port, name="live", poll_s=0.2,
                           idle_exit_s=3.0)
    thread = threading.Thread(target=worker.run)
    thread.start()
    states = client.wait([submitted["job"]["job_id"]], timeout_s=10.0)
    view = states[submitted["job"]["job_id"]]
    worker.stop()
    thread.join(10.0)
    assert view["state"] == "ok"
    assert view["attempts"] == 2          # dead lease + live run
    assert view["worker"] == "live"
    assert client.get_artifact("svc/t/double") == 42
    assert worker.jobs_done == 1
    client.close()


def test_duplicate_complete_same_request_id_is_idempotent(service):
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="campaign")
    submitted = client.submit("double", double, (5,), key="svc/t/dup",
                              kind="object")
    wclient = ServiceClient(host, port, client_id="w")
    grant = wclient.lease("w", wait_s=2.0)
    wclient.put_artifact("svc/t/dup", 10, "object")
    # complete twice with the SAME request id (a retry after a lost
    # response): the second is served from the replay cache
    fields = dict(lease_id=grant["lease_id"], status="ok", error="",
                  wall_s=0.5, icount=None, worker="w", id="w:0:fixed")
    first = wclient.call("complete", **fields)
    second = wclient.call("complete", **fields)
    assert first["job"]["state"] == second["job"]["state"] == "ok"
    assert service.scheduler.get(submitted["job"]["job_id"]).attempts == 1
    assert client.get_artifact("svc/t/dup") == 10
    client.close()
    wclient.close()


def test_failing_job_reports_the_exception(service):
    host, port = service.server.host, service.server.port
    client = ServiceClient(host, port, client_id="campaign")
    submitted = client.submit("explode", explode, (), key="",
                              result_key="svc/t/explode", retries=0)
    worker = ServiceWorker(host, port, name="w", poll_s=0.2,
                           idle_exit_s=2.0)
    thread = threading.Thread(target=worker.run)
    thread.start()
    states = client.wait([submitted["job"]["job_id"]], timeout_s=10.0)
    view = states[submitted["job"]["job_id"]]
    worker.stop()
    thread.join(10.0)
    assert view["state"] == "failed"
    assert "kaboom" in view["error"]
    assert worker.jobs_failed == 1
    client.close()


def test_unknown_verb_and_missing_artifact_error_codes(service):
    host, port = service.server.host, service.server.port
    from repro.service.client import ServiceError
    client = ServiceClient(host, port, retries=0)
    with pytest.raises(ServiceError) as excinfo:
        client.call("no-such-verb")
    assert excinfo.value.code == 400
    with pytest.raises(ServiceError) as excinfo:
        client.get_artifact("never/stored")
    assert excinfo.value.code == 404
    client.close()


# -- client retry behaviour -------------------------------------------------


class FlakyServer:
    """Accepts connections; drops the first N requests mid-response."""

    def __init__(self, inner_host, inner_port, drops):
        self.target = (inner_host, inner_port)
        self.drops = drops
        self.seen = []
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            try:
                message = protocol.recv_message(conn)
                if message is None:
                    continue
                self.seen.append(message["id"])
                if len(self.seen) <= self.drops:
                    conn.close()  # swallow the request, say nothing
                    continue
                upstream = socket.create_connection(self.target)
                protocol.send_message(upstream, message)
                reply = protocol.recv_message(upstream)
                upstream.close()
                protocol.send_message(conn, reply)
            except (OSError, ProtocolError):
                pass
            finally:
                conn.close()

    def close(self):
        self.sock.close()


def test_client_retries_with_same_request_id(service, monkeypatch):
    """A lost response is retried with the SAME envelope id, so the
    upstream replay cache can make the retry idempotent."""
    monkeypatch.setattr(ServiceClient, "backoff", 0.01)
    host, port = service.server.host, service.server.port
    flaky = FlakyServer(host, port, drops=2)
    client = ServiceClient("127.0.0.1", flaky.port, client_id="c",
                           retries=4)
    submitted = client.submit("double", double, (3,), key="svc/t/retry")
    assert submitted["status"] == "queued"
    assert len(flaky.seen) == 3          # two drops + one success
    assert len(set(flaky.seen)) == 1     # identical id every attempt
    flaky.close()
    client.close()


def test_client_gives_up_cleanly_when_unreachable(monkeypatch):
    monkeypatch.setattr(ServiceClient, "backoff", 0.01)
    client = ServiceClient("127.0.0.1", 1, retries=1)
    with pytest.raises(ServiceUnavailable):
        client.hello()
