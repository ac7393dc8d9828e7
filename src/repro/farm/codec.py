"""Content-addressed encoding of checkpoint artifacts.

The farm store keeps artifacts as a small JSON *meta* record plus a set
of *blocks* in a shared, deduplicated pool.  Blocks are addressed by the
SHA-256 of their raw contents, so identical pinball pages — the common
case across regions of one program, and across lazy/fat or train/ref
variants — are stored once no matter how many artifacts reference them.

Three artifact kinds have dedicated codecs:

``pinball``
    Page contents become one block each; everything else (registers,
    syscall log, schedule, metadata) travels through
    :meth:`Pinball.save_bytes` as a single "rest" block.
``elfie``
    The ELF image is chunked at page granularity for cross-artifact
    dedup; scalar fields and symbols live in the meta record.  The
    startup plan is preserved field-by-field.
``object``
    Any picklable Python value as a single blob (used for pipeline
    results: BBV profiles, SimPoint selections, validation outcomes).
``snapshot``
    A whole-machine :class:`~repro.snapshot.state.MachineSnapshot`:
    pages become one block each (same pool as pinball pages, so an
    incremental snapshot shares every unchanged page) and the canonical
    JSON state blob is the "rest" block.

A ``pinballs`` codec wraps a ``{name: Pinball}`` mapping (the unit the
multi-region logger produces) so a whole capture pass is one store
entry sharing one block pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pickle
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.core.pinball2elf import ElfieArtifact
from repro.core.startup import StartupPlan
from repro.machine.memory import PAGE_SIZE
from repro.pinplay.pinball import Pinball

#: fetch callback: block digest -> verified raw bytes.
Fetch = Callable[[str], bytes]
#: encoder result: (meta record, {digest: raw block bytes}).
Encoded = Tuple[dict, Dict[str, bytes]]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value: Any) -> Any:
    """Reduce *value* to canonical JSON-able form for key derivation."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes_sha256__": sha256_hex(bytes(value))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError("cannot canonicalize %r for a stable digest"
                    % type(value).__name__)


def stable_digest(value: Any) -> str:
    """Deterministic digest of a (nested) spec value.

    Dicts are key-sorted, dataclasses flattened, ``bytes`` replaced by
    their SHA-256, so equal specs digest equally across processes and
    sessions regardless of construction order.
    """
    blob = json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return sha256_hex(blob)


# -- pinball ---------------------------------------------------------------

def encode_pinball(pinball: Pinball) -> Encoded:
    blocks: Dict[str, bytes] = {}
    pages: List[List[Any]] = []
    for addr in sorted(pinball.pages):
        prot, data = pinball.pages[addr]
        digest = sha256_hex(data)
        blocks[digest] = data
        pages.append([addr, prot, digest])
    shell = dataclasses.replace(pinball, pages={})
    rest = shell.save_bytes()
    rest_digest = sha256_hex(rest)
    blocks[rest_digest] = rest
    return {"pages": pages, "rest": rest_digest}, blocks


def decode_pinball(meta: dict, fetch: Fetch) -> Pinball:
    pinball = Pinball.load_bytes(fetch(meta["rest"]))
    pinball.pages = {addr: (prot, fetch(digest))
                     for addr, prot, digest in meta["pages"]}
    return pinball


# -- pinball groups --------------------------------------------------------

def encode_pinballs(group: Dict[str, Pinball]) -> Encoded:
    members: Dict[str, dict] = {}
    blocks: Dict[str, bytes] = {}
    for name in sorted(group):
        meta, member_blocks = encode_pinball(group[name])
        members[name] = meta
        blocks.update(member_blocks)
    return {"members": members}, blocks


def decode_pinballs(meta: dict, fetch: Fetch) -> Dict[str, Pinball]:
    return {name: decode_pinball(member, fetch)
            for name, member in meta["members"].items()}


# -- ELFie artifacts -------------------------------------------------------

def encode_elfie(artifact: ElfieArtifact) -> Encoded:
    blocks: Dict[str, bytes] = {}
    chunks: List[str] = []
    image = artifact.image
    for offset in range(0, len(image), PAGE_SIZE):
        chunk = image[offset:offset + PAGE_SIZE]
        digest = sha256_hex(chunk)
        blocks[digest] = chunk
        chunks.append(digest)
    plan = None
    if artifact.plan is not None:
        plan = {
            "tail_instructions": [[tid, count] for tid, count in
                                  sorted(artifact.plan.tail_instructions.items())],
            "symbol_labels": list(artifact.plan.symbol_labels),
            "context_symbols": [list(item) for item in
                                artifact.plan.context_symbols],
        }
    meta = {
        "chunks": chunks,
        "image_len": len(image),
        "e_type": artifact.e_type,
        "entry": artifact.entry,
        "startup_base": artifact.startup_base,
        "plan": plan,
        "linker_script": artifact.linker_script,
        "context_listing": artifact.context_listing,
        "symbols": [[name, value] for name, value in artifact.symbols],
    }
    return meta, blocks


def decode_elfie(meta: dict, fetch: Fetch) -> ElfieArtifact:
    image = io.BytesIO()
    for digest in meta["chunks"]:
        image.write(fetch(digest))
    plan = None
    if meta["plan"] is not None:
        plan = StartupPlan(
            tail_instructions={tid: count for tid, count in
                               meta["plan"]["tail_instructions"]},
            symbol_labels=list(meta["plan"]["symbol_labels"]),
            context_symbols=[tuple(item) for item in
                             meta["plan"]["context_symbols"]],
        )
    return ElfieArtifact(
        image=image.getvalue()[:meta["image_len"]],
        e_type=meta["e_type"],
        entry=meta["entry"],
        startup_base=meta["startup_base"],
        plan=plan,
        linker_script=meta["linker_script"],
        context_listing=meta["context_listing"],
        symbols=[(name, value) for name, value in meta["symbols"]],
    )


# -- machine snapshots -------------------------------------------------------

def encode_snapshot(snapshot: Any) -> Encoded:
    """Encode a :class:`MachineSnapshot` (duck-typed to avoid a cycle:
    ``repro.snapshot`` depends on machine/pinplay which this module's
    clients already import)."""
    blocks: Dict[str, bytes] = {}
    pages: List[List[Any]] = []
    for addr in sorted(snapshot.pages):
        prot, data = snapshot.pages[addr]
        digest = sha256_hex(data)
        blocks[digest] = data
        pages.append([addr, prot, digest])
    rest = snapshot.state_bytes()
    rest_digest = sha256_hex(rest)
    blocks[rest_digest] = rest
    return {"pages": pages, "rest": rest_digest}, blocks


def decode_snapshot(meta: dict, fetch: Fetch) -> Any:
    from repro.snapshot.state import MachineSnapshot
    pages = {addr: (prot, fetch(digest))
             for addr, prot, digest in meta["pages"]}
    return MachineSnapshot.from_state_bytes(pages, fetch(meta["rest"]))


# -- arbitrary objects -----------------------------------------------------

def encode_object(obj: Any) -> Encoded:
    blob = pickle.dumps(obj, protocol=4)
    digest = sha256_hex(blob)
    return {"blob": digest}, {digest: blob}


def decode_object(meta: dict, fetch: Fetch) -> Any:
    return pickle.loads(fetch(meta["blob"]))


# -- dispatch --------------------------------------------------------------

_CODECS = {
    "pinball": (encode_pinball, decode_pinball),
    "pinballs": (encode_pinballs, decode_pinballs),
    "elfie": (encode_elfie, decode_elfie),
    "object": (encode_object, decode_object),
    "snapshot": (encode_snapshot, decode_snapshot),
}


def infer_kind(obj: Any) -> str:
    """Pick the richest codec that understands *obj*."""
    if isinstance(obj, Pinball):
        return "pinball"
    if isinstance(obj, ElfieArtifact):
        return "elfie"
    # Checked via sys.modules so this module never imports the snapshot
    # package (which would be a cycle); an object can only be a
    # MachineSnapshot if its defining module is already loaded.
    snapshot_module = sys.modules.get("repro.snapshot.state")
    if (snapshot_module is not None
            and isinstance(obj, snapshot_module.MachineSnapshot)):
        return "snapshot"
    if (isinstance(obj, dict) and obj
            and all(isinstance(v, Pinball) for v in obj.values())):
        return "pinballs"
    return "object"


def encode(obj: Any, kind: str = "") -> Tuple[str, dict, Dict[str, bytes]]:
    kind = kind or infer_kind(obj)
    check_kind(kind)
    meta, blocks = _CODECS[kind][0](obj)
    return kind, meta, blocks


def decode(kind: str, meta: dict, fetch: Fetch) -> Any:
    """The artifact *meta* describes; ValueError when it is not in the
    one layout its codec reads (memo keys carry no layout version, so a
    store can hold a stale one).  Errors of *fetch* pass through."""
    check_kind(kind)
    try:
        return _CODECS[kind][1](meta, fetch)
    except (KeyError, TypeError, IndexError, AttributeError, ImportError,
            pickle.UnpicklingError) as exc:
        raise ValueError("undecodable %s artifact: %s: %s"
                         % (kind, type(exc).__name__, exc)) from exc


def check_kind(kind: str) -> None:
    """Raise ValueError unless *kind* names a codec."""
    if kind not in _CODECS:
        raise ValueError("unknown artifact kind %r" % kind)
