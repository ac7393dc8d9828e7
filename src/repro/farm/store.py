"""The on-disk, content-addressed checkpoint-artifact store.

Layout under the store root::

    store.json             format marker
    blocks/<d2>/<digest>   zlib-compressed block contents
    objects/<k2>/<key>.json  artifact meta (kind + codec record + sizes)

Blocks are shared: two artifacts referencing the same page store it
once.  Every read decompresses the block and re-hashes it; a mismatch
against the addressed digest raises :class:`StoreCorruption`, so a
flipped bit on disk can never silently reach a simulation.

Writes are crash-safe in the usual content-addressed way: blocks are
written first (atomic rename, idempotent), the meta record last, so a
partially written artifact is simply absent.  ``gc`` mark-sweeps the
block pool against the live object set.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List

from repro.farm import codec
from repro.observe import hooks

_FORMAT = {"format": "repro-farm-store", "version": 1}

#: Temp files older than this are considered abandoned by a killed
#: writer and are reclaimed by ``gc`` (an active writer holds its temp
#: file for milliseconds, not minutes).
STALE_TMP_S = 300.0


class StoreCorruption(Exception):
    """An on-disk block or meta record failed integrity verification."""


@dataclass
class StoreStats:
    """Aggregate store statistics (the ``farm stats`` report)."""

    objects: int = 0
    objects_by_kind: Dict[str, int] = field(default_factory=dict)
    blocks: int = 0
    #: Bytes the artifacts describe (sum of referenced block sizes,
    #: counting shared blocks once per reference).
    logical_bytes: int = 0
    #: Raw bytes of the unique blocks (post-dedup, pre-compression).
    unique_bytes: int = 0
    #: Compressed bytes on disk (whole block pool, referenced or not).
    stored_bytes: int = 0
    #: Compressed on-disk bytes of the *referenced* blocks only — the
    #: consistent denominator for the compression ratio (stray blocks
    #: awaiting gc have no known raw size and would skew it).
    compressed_bytes: int = 0

    @property
    def dedup_ratio(self) -> float:
        """logical / unique: >1 means sharing is paying off."""
        return self.logical_bytes / self.unique_bytes if self.unique_bytes else 1.0

    @property
    def compression_ratio(self) -> float:
        """unique / compressed: raw-to-compressed factor over the
        referenced block pool."""
        if not self.compressed_bytes:
            return 1.0
        return self.unique_bytes / self.compressed_bytes

    def to_json(self) -> dict:
        return {
            "objects": self.objects,
            "objects_by_kind": dict(sorted(self.objects_by_kind.items())),
            "blocks": self.blocks,
            "logical_bytes": self.logical_bytes,
            "unique_bytes": self.unique_bytes,
            "stored_bytes": self.stored_bytes,
            "dedup_ratio": round(self.dedup_ratio, 3),
            "compression_ratio": round(self.compression_ratio, 3),
            "block_pool": {
                "raw_bytes": self.unique_bytes,
                "compressed_bytes": self.compressed_bytes,
                "compression_ratio": round(self.compression_ratio, 3),
            },
        }


@dataclass
class GCStats:
    """Result of a mark-sweep pass (real or ``dry_run``)."""

    live_blocks: int = 0
    removed_blocks: int = 0
    freed_bytes: int = 0
    removed_snapshots: int = 0
    dry_run: bool = False

    def to_json(self) -> dict:
        return {"live_blocks": self.live_blocks,
                "removed_blocks": self.removed_blocks,
                "freed_bytes": self.freed_bytes,
                "removed_snapshots": self.removed_snapshots,
                "dry_run": self.dry_run}


def build_record(key: str, kind: str, meta: dict,
                 blocks: Dict[str, bytes]) -> dict:
    """The meta record :meth:`ArtifactStore.put` writes for an artifact.

    Shared with the sharded store and the service's ``put-artifact``
    verb so every writer produces byte-identical records for identical
    content.
    """
    sizes = {digest: len(data) for digest, data in blocks.items()}
    return {
        "key": key,
        "kind": kind,
        "meta": meta,
        "block_sizes": sizes,
        "logical_bytes": sum(sizes[digest]
                             for digest in _referenced_digests(meta)),
    }


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except FileNotFoundError:
        # First write into this fan-out directory, or it was removed
        # behind the store's back (gc, by hand): create it and retry.
        # Creating directories on demand keeps makedirs off the path of
        # every other write.
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ArtifactStore:
    """A content-addressed repository for pinballs, ELFies and results."""

    def __init__(self, root: str, compress_level: int = 6) -> None:
        self.root = root
        self.compress_level = compress_level
        os.makedirs(self._blocks_dir, exist_ok=True)
        os.makedirs(self._objects_dir, exist_ok=True)
        marker = os.path.join(root, "store.json")
        if not os.path.exists(marker):
            _atomic_write(marker, json.dumps(_FORMAT).encode("utf-8"))

    # -- paths -------------------------------------------------------------

    @property
    def _blocks_dir(self) -> str:
        return os.path.join(self.root, "blocks")

    @property
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _block_path(self, digest: str) -> str:
        return os.path.join(self._blocks_dir, digest[:2], digest)

    def _meta_path(self, key: str) -> str:
        # keys may contain "/" (the service's run-scoped result keys);
        # they become sub-directories, but must never escape the store
        if not key or key.startswith(("/", ".")) or ".." in key.split("/"):
            raise ValueError("invalid store key %r" % key)
        return os.path.join(self._objects_dir, key[:2], key + ".json")

    # -- blocks ------------------------------------------------------------

    def _write_block(self, digest: str, data: bytes) -> None:
        path = self._block_path(digest)
        obs = hooks.OBS
        if os.path.exists(path):
            if obs.enabled:
                obs.count("store.blocks_deduped")
                obs.count("store.bytes_deduped", len(data))
            return  # content-addressed: existing contents are identical
        compressed = zlib.compress(data, self.compress_level)
        if obs.enabled:
            obs.count("store.blocks_written")
            obs.count("store.bytes_raw", len(data))
            obs.count("store.bytes_stored", len(compressed))
        _atomic_write(path, compressed)

    def _read_block(self, digest: str) -> bytes:
        obs = hooks.OBS
        if obs.enabled:
            obs.count("store.blocks_read")
        path = self._block_path(digest)
        try:
            with open(path, "rb") as handle:
                compressed = handle.read()
        except FileNotFoundError:
            raise StoreCorruption("missing block %s" % digest)
        try:
            data = zlib.decompress(compressed)
        except zlib.error as exc:
            self._drop_corrupt_block(path)
            raise StoreCorruption("block %s: %s" % (digest, exc))
        if codec.sha256_hex(data) != digest:
            self._drop_corrupt_block(path)
            raise StoreCorruption("block %s fails digest verification"
                                  % digest)
        return data

    @staticmethod
    def _drop_corrupt_block(path: str) -> None:
        """Unlink a block that failed verification.

        ``_write_block`` treats an existing file as authoritative (the
        content-addressed invariant), so a damaged block must leave the
        pool or a later re-put of the same content would be skipped and
        the corruption would persist.
        """
        try:
            os.unlink(path)
        except OSError:
            pass

    # Public block-level interface: the sharded store and the service's
    # artifact verbs route individual blocks by digest, so the per-shard
    # primitives must be reachable from outside this class.

    def has_block(self, digest: str) -> bool:
        return os.path.exists(self._block_path(digest))

    def write_block(self, digest: str, data: bytes) -> None:
        """Idempotent, atomic write of one verified raw block."""
        self._write_block(digest, data)

    def read_block(self, digest: str) -> bytes:
        """Read and integrity-verify one block (raises StoreCorruption)."""
        return self._read_block(digest)

    def remove_block(self, digest: str) -> bool:
        try:
            os.unlink(self._block_path(digest))
            return True
        except FileNotFoundError:
            return False

    def block_digests(self) -> Iterator[str]:
        """Digests of every block file in the pool."""
        return self._iter_block_files()

    def block_size(self, digest: str) -> int:
        return os.path.getsize(self._block_path(digest))

    # -- objects -----------------------------------------------------------

    def put(self, key: str, obj: Any, kind: str = "") -> str:
        """Store *obj* under *key*; returns the key.

        Overwrites an existing entry for the same key (blocks are
        content-addressed, so re-putting identical content is free).
        """
        kind, meta, blocks = codec.encode(obj, kind)
        for digest, data in blocks.items():
            self._write_block(digest, data)
        self.put_record(key, build_record(key, kind, meta, blocks))
        return key

    def put_record(self, key: str, record: dict) -> None:
        """Atomically install an artifact meta record.

        The record must only reference blocks that are already in the
        pool — this is the commit point that makes a partially written
        artifact simply absent rather than corrupt.
        """
        _atomic_write(self._meta_path(key),
                      json.dumps(record, sort_keys=True).encode("utf-8"))

    def get_record(self, key: str) -> dict:
        """The raw meta record for *key* (KeyError when absent)."""
        return self._load_record(key)

    def remove_record(self, key: str) -> bool:
        try:
            os.unlink(self._meta_path(key))
            return True
        except FileNotFoundError:
            return False

    def _load_record(self, key: str) -> dict:
        try:
            with open(self._meta_path(key)) as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise KeyError(key)
        except (ValueError, OSError) as exc:
            raise StoreCorruption("meta record for %s: %s" % (key, exc))

    def get(self, key: str) -> Any:
        """Fetch and decode the artifact stored under *key*.

        Raises :class:`KeyError` when absent, :class:`StoreCorruption`
        when any referenced block fails verification.
        """
        record = self._load_record(key)
        return codec.decode(record["kind"], record["meta"], self._read_block)

    def contains(self, key: str) -> bool:
        return os.path.exists(self._meta_path(key))

    def kind_of(self, key: str) -> str:
        return self._load_record(key)["kind"]

    def delete(self, key: str) -> bool:
        """Drop the meta record (blocks are reclaimed by :meth:`gc`)."""
        return self.remove_record(key)

    def keys(self) -> Iterator[str]:
        for dirpath, dirnames, filenames in os.walk(self._objects_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".json"):
                    continue
                relative = os.path.relpath(os.path.join(dirpath, name),
                                           self._objects_dir)
                parts = relative.split(os.sep)
                # drop the two-char fan-out prefix; the rest is the key
                yield "/".join(parts[1:])[:-len(".json")]

    # -- maintenance -------------------------------------------------------

    def _iter_block_files(self) -> Iterator[str]:
        for shard in sorted(os.listdir(self._blocks_dir)):
            shard_dir = os.path.join(self._blocks_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.startswith(".tmp-"):
                    yield name

    def stats(self) -> StoreStats:
        stats = StoreStats()
        unique: Dict[str, int] = {}
        for key in self.keys():
            record = self._load_record(key)
            stats.objects += 1
            kind = record["kind"]
            stats.objects_by_kind[kind] = stats.objects_by_kind.get(kind, 0) + 1
            stats.logical_bytes += record.get("logical_bytes", 0)
            unique.update({digest: size for digest, size
                           in record.get("block_sizes", {}).items()})
        for digest in self._iter_block_files():
            stats.blocks += 1
            stats.stored_bytes += os.path.getsize(self._block_path(digest))
            # size known only for blocks some live object references
        for digest, size in unique.items():
            path = self._block_path(digest)
            if os.path.exists(path):
                stats.unique_bytes += size
                stats.compressed_bytes += os.path.getsize(path)
        return stats

    def gc(self, dry_run: bool = False,
           tmp_ttl_s: float = STALE_TMP_S,
           prune_snapshots: bool = False,
           snapshot_roots: Iterable[str] = ()) -> GCStats:
        """Mark-sweep: delete blocks no live artifact references.

        With ``dry_run`` nothing is unlinked; the returned stats report
        what a real sweep *would* remove (the ``farm gc --dry-run``
        report).  Also reclaims temp files abandoned by killed writers
        (older than *tmp_ttl_s*).

        With ``prune_snapshots``, preemption checkpoints (records of
        kind ``snapshot``) whose key is not in *snapshot_roots* are
        deleted before the mark phase — a root is the checkpoint of a
        job that is still queued or leased (the scheduler's
        ``snapshot_roots()``), everything else is a drained worker's
        leftover whose job has since settled.  Without the flag,
        snapshot records are ordinary artifacts and keep their blocks
        live.
        """
        result = GCStats(dry_run=dry_run)
        pruned: set = set()
        if prune_snapshots:
            roots = set(snapshot_roots)
            for key in list(self.keys()):
                record = self._load_record(key)
                if record["kind"] == "snapshot" and key not in roots:
                    pruned.add(key)
                    result.removed_snapshots += 1
                    if not dry_run:
                        self.remove_record(key)
        live: set = set()
        for key in self.keys():
            if key in pruned:
                continue  # dry_run keeps the record; mark as if gone
            record = self._load_record(key)
            live.update(_referenced_digests(record["meta"]))
        for digest in list(self._iter_block_files()):
            if digest in live:
                result.live_blocks += 1
                continue
            path = self._block_path(digest)
            result.freed_bytes += os.path.getsize(path)
            if not dry_run:
                os.unlink(path)
            result.removed_blocks += 1
        if not dry_run:
            self.sweep_tmp(tmp_ttl_s)
        obs = hooks.OBS
        if obs.enabled and not dry_run:
            obs.count("store.gc_removed_blocks", result.removed_blocks)
            obs.count("store.gc_freed_bytes", result.freed_bytes)
        return result

    def sweep_tmp(self, ttl_s: float = STALE_TMP_S) -> int:
        """Unlink ``.tmp-`` files older than *ttl_s* (killed writers).

        A SIGKILLed ``put`` can leave the temp file a pending atomic
        rename was staged in; it is invisible to readers (every lookup
        goes through the final path) but holds disk until swept.
        """
        removed = 0
        now = time.time()
        for base in (self._blocks_dir, self._objects_dir):
            for dirpath, _dirs, files in os.walk(base):
                for name in files:
                    if not name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        if now - os.path.getmtime(path) >= ttl_s:
                            os.unlink(path)
                            removed += 1
                    except OSError:
                        continue
        return removed

    def verify(self) -> List[str]:
        """Re-hash every live reference; returns corrupt keys."""
        bad: List[str] = []
        for key in self.keys():
            record = self._load_record(key)
            try:
                for digest in set(_referenced_digests(record["meta"])):
                    self._read_block(digest)
            except StoreCorruption:
                bad.append(key)
        return bad


def open_store(root: str, compress_level: int = 6) -> Any:
    """Open whatever store lives at *root*.

    A root carrying the ``shards.json`` marker opens as a
    :class:`repro.service.shards.ShardedStore`; anything else (including
    a fresh directory) opens as a plain single-root
    :class:`ArtifactStore`.  This is what the CLI uses so ``farm`` and
    ``service`` subcommands transparently accept either layout.
    """
    from repro.service.shards import SHARDS_MARKER, ShardedStore

    if os.path.exists(os.path.join(root, SHARDS_MARKER)):
        return ShardedStore(root, compress_level=compress_level)
    return ArtifactStore(root, compress_level=compress_level)


def _referenced_digests(meta: dict) -> Iterator[str]:
    """All block digests an artifact meta record references."""
    if "members" in meta:
        for member in meta["members"].values():
            yield from _referenced_digests(member)
        return
    if "pages" in meta:
        for _addr, _prot, digest in meta["pages"]:
            yield digest
        yield meta["rest"]
        return
    if "chunks" in meta:
        yield from meta["chunks"]
        return
    if "blob" in meta:
        yield meta["blob"]
