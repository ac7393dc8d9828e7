"""The checkpoint service's wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON (one object per frame).  Requests carry a ``verb`` plus an
``id`` the client generates; responses echo the ``id`` and carry
``ok: true`` or ``ok: false`` with an ``error`` string and an HTTP-ish
``code`` (429 queue-full, 409 lease-lost, 404 not-found).

The ``id`` doubles as the **idempotency token**: a client that loses the
connection mid-call reconnects and resends the *same* envelope, and the
server replays the recorded response for mutating verbs instead of
re-executing them — so a retried ``submit`` cannot double-enqueue and a
retried ``complete`` cannot double-complete.

Binary payloads (pickled job callables, artifact blocks) travel as
base64 strings inside the JSON; blocks are keyed by their SHA-256, which
the server re-verifies before anything touches the store.

Verbs: ``hello``, ``submit``, ``lease``, ``heartbeat``, ``complete``,
``wait``, ``put-artifact``, ``get-artifact``, ``stats``.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import struct
from typing import Any, Dict, Optional

#: Hard ceiling on one frame; a header claiming more is a protocol
#: error, not an allocation (a garbage or hostile header must not OOM
#: the server).
MAX_FRAME = 256 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed framing or JSON on the wire."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    body = json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError("frame of %d bytes exceeds the %d limit"
                            % (len(body), MAX_FRAME))
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc)
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


# -- blocking sockets (client side) -----------------------------------------

def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """*count* bytes, or None on clean EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError("connection dropped mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One frame, or None when the peer closed between frames."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError("frame header claims %d bytes" % length)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection dropped mid-frame")
    return _decode_body(body)


# -- asyncio streams (server side) ------------------------------------------

async def read_message(
        reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise ProtocolError("connection dropped mid-header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError("frame header claims %d bytes" % length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection dropped mid-frame")
    return _decode_body(body)


async def write_message(writer: asyncio.StreamWriter,
                        message: Dict[str, Any]) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


# -- binary payload packing -------------------------------------------------

def pack_bytes(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def unpack_bytes(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError("bad base64 payload: %s" % exc)


def pack_blocks(blocks: Dict[str, bytes]) -> Dict[str, str]:
    return {digest: pack_bytes(data) for digest, data in blocks.items()}


def unpack_blocks(packed: Dict[str, str]) -> Dict[str, bytes]:
    return {digest: unpack_bytes(text) for digest, text in packed.items()}


def error_response(error: str, code: int = 500, **extra: Any) -> dict:
    response = {"ok": False, "error": error, "code": code}
    response.update(extra)
    return response
