"""The on-disk, content-addressed checkpoint-artifact store.

Layout under the store root (layout version 2)::

    store.json             format marker
    blocks/<digest>        zlib-compressed block contents
    objects/<key>          zlib-compressed artifact record (JSON: kind,
                           codec meta, block sizes); a key holding "/"
                           nests, e.g. objects/snap/<digest>

Blocks are shared: two artifacts referencing the same page store it
once.  Every read decompresses the block and re-hashes it; a mismatch
against the addressed digest raises :class:`StoreCorruption`, so a
flipped bit on disk can never silently reach a simulation.  One
:meth:`_Store.get` reads and verifies each distinct block once and
hands every reference to it the same verified bytes; nothing is cached
across calls, so each ``get`` verifies everything it returns.

Writes are crash-safe in the usual content-addressed way: blocks are
written first (atomic rename, idempotent), the record last, so a
partially written artifact is simply absent.  Each file is staged in a
``.tmp-<pid>-<n>`` file of its own directory and renamed into place.
``gc`` mark-sweeps the block pool against the live object set.

The store operations are written once, over block and record
primitives: :class:`ArtifactStore` supplies the single-root ones, and
:class:`repro.service.shards.ShardedStore` the sharded ones.
:func:`open_store` picks a root's layout from its marker file.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.farm import codec
from repro.observe import hooks

#: The layout the module docstring draws; a root of any other version
#: is refused (see :func:`check_marker`).
_FORMAT = {"format": "repro-farm-store", "version": 2}

#: The markers that name a root's layout: a plain store's format file,
#: and the sharded store's ring configuration.
STORE_MARKER = "store.json"
SHARDS_MARKER = "shards.json"

#: The zlib level of every compressed block and record.
COMPRESS_LEVEL = 6

#: Temp files older than this are considered abandoned by a killed
#: writer and are reclaimed by ``gc`` (an active writer holds its temp
#: file for milliseconds, not minutes).
STALE_TMP_S = 300.0

#: Key namespace of preemption checkpoints, the snapshots a worker or
#: the farm runner parks for a job to resume from; ``gc`` prunes here.
SNAPSHOT_PREFIX = "snap/"

#: A block digest: the hex SHA-256 its file is named by.
_DIGEST = re.compile("[0-9a-f]{64}")


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
    #: Compressed on-disk bytes of the artifact records.
    record_bytes: int = 0

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
            "record_bytes": self.record_bytes,
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


@dataclass
class ScrubStats:
    """What a :meth:`scrub` pass checked, healed and found lost."""

    objects: int = 0
    blocks_checked: int = 0
    repaired_blocks: int = 0
    repaired_records: int = 0
    #: keys with at least one unrecoverable block
    lost_keys: List[str] = field(default_factory=list)


#: Numbers this process's temp files; with the pid, a name no other
#: live writer uses.
_TMP_SEQ = itertools.count()


def _open_tmp(directory: str) -> Tuple[str, int]:
    """A new ``.tmp-<pid>-<n>`` file in *directory*, opened for writing."""
    while True:
        tmp = os.path.join(directory,
                           ".tmp-%d-%d" % (os.getpid(), next(_TMP_SEQ)))
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                0o600)
        except FileExistsError:
            continue  # left by a killed writer whose pid this one reuses


def _atomic_write(path: str, data: bytes) -> None:
    """Write *data* to *path* through a temp file and one rename."""
    directory = os.path.dirname(path)
    try:
        tmp, fd = _open_tmp(directory)
    except FileNotFoundError:
        # A nested key's first record, or a directory removed behind
        # the store's back (by hand): create it and retry.  Creating
        # directories on demand keeps makedirs off the path of every
        # other write.
        os.makedirs(directory, exist_ok=True)
        tmp, fd = _open_tmp(directory)
    try:
        try:
            view = memoryview(data)
            while view:  # one write, unless the kernel takes less
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Store:
    """The store operations, written once over block and record primitives.

    A layout supplies the primitives: ``write_block``, ``read_block``,
    ``block_digests``, ``block_size``, ``remove_block`` for the block
    pool, and ``put_record``, ``get_record``, ``record_size``,
    ``remove_record``, ``contains``, ``keys`` and ``sweep_tmp`` for the
    artifact records.  Everything a campaign, the CLI or the service
    does with a store is built here on top of them.
    """

    def put(self, key: str, obj: Any, kind: str = "") -> str:
        """Store *obj* under *key*; returns the key.

        Overwrites an existing entry for the same key (blocks are
        content-addressed, so re-putting identical content is free).
        """
        kind, meta, blocks = codec.encode(obj, kind)
        self.commit(key, kind, meta, blocks)
        return key

    def commit(self, key: str, kind: str, meta: dict,
               blocks: Dict[str, bytes]) -> None:
        """Install an encoded artifact: its blocks, then its record.

        The record write is the commit point, so a partially written
        artifact is simply absent.  *meta* may reference blocks already
        in the pool besides the ones in *blocks*.  Raises ValueError,
        having written nothing, when *kind* names no codec or a
        referenced block is neither given nor intact in the pool, or is
        not a SHA-256 digest (a digest names a file, so one taken from
        the wire must never name a path outside the pool).
        """
        codec.check_kind(kind)
        try:
            referenced = list(_referenced_digests(meta))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ValueError("malformed %s meta" % kind) from None
        for digest in referenced:
            if not isinstance(digest, str) or not _DIGEST.fullmatch(digest):
                raise ValueError("invalid block digest %r" % (digest,))
        sizes = {digest: len(data) for digest, data in blocks.items()}
        logical = 0
        for digest in referenced:
            if digest not in sizes:
                try:
                    sizes[digest] = len(self.read_block(digest))
                except StoreCorruption:
                    raise ValueError("block %s is neither uploaded nor in "
                                     "the store" % digest) from None
            logical += sizes[digest]
        for digest, data in blocks.items():
            self.write_block(digest, data)
        self.put_record(key, {"key": key, "kind": kind, "meta": meta,
                              "block_sizes": sizes,
                              "logical_bytes": logical})

    def get(self, key: str) -> Any:
        """Fetch and decode the artifact stored under *key*.

        Raises :class:`KeyError` when absent, :class:`StoreCorruption`
        when any referenced block fails verification or the entry is in
        a layout no reader accepts.
        """
        record = self.get_record(key)
        verified: Dict[str, bytes] = {}

        def fetch(digest: str) -> bytes:
            # each distinct block is read and verified once per call
            data = verified.get(digest)
            if data is None:
                data = verified[digest] = self.read_block(digest)
            return data

        try:
            return codec.decode(record["kind"], record["meta"], fetch)
        except ValueError as exc:
            raise StoreCorruption("%s: %s" % (key, exc)) from exc

    def fetch(self, key: str) -> Tuple[dict, Dict[str, bytes]]:
        """The record for *key* and every block it references, verified."""
        record = self.get_record(key)
        return record, {digest: self.read_block(digest) for digest
                        in dict.fromkeys(_referenced_digests(record["meta"]))}

    def kind_of(self, key: str) -> str:
        return self.get_record(key)["kind"]

    def delete(self, key: str) -> bool:
        """Drop the meta record (blocks are reclaimed by :meth:`gc`)."""
        return self.remove_record(key)

    # -- maintenance -------------------------------------------------------

    def stats(self) -> StoreStats:
        return self._tally(self._block_pool())[0]

    def _block_pool(self) -> Dict[str, int]:
        """Each pooled block's compressed on-disk size."""
        return {digest: self.block_size(digest)
                for digest in self.block_digests()}

    def _tally(self, pool: Dict[str, int]) -> Tuple[StoreStats,
                                                    Dict[str, dict]]:
        """The aggregate stats over *pool*, and the records read for them."""
        stats = StoreStats(blocks=len(pool), stored_bytes=sum(pool.values()))
        records: Dict[str, dict] = {}
        unique: Dict[str, int] = {}
        for key in self.keys():
            record = records[key] = self.get_record(key)
            stats.objects += 1
            stats.record_bytes += self.record_size(key)
            kind = record["kind"]
            stats.objects_by_kind[kind] = stats.objects_by_kind.get(kind, 0) + 1
            stats.logical_bytes += record.get("logical_bytes", 0)
            unique.update(record.get("block_sizes", {}))
        # raw sizes are known only for blocks some live object references
        for digest, size in unique.items():
            if digest in pool:
                stats.compressed_bytes += pool[digest]
                stats.unique_bytes += size
        return stats, records

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
        kind ``snapshot`` keyed under :data:`SNAPSHOT_PREFIX`) whose key
        is not in *snapshot_roots* are deleted before the mark phase —
        a root is the checkpoint of a job that is still queued or
        leased (the scheduler's ``snapshot_roots()``), everything else
        is a drained worker's leftover whose job has since settled.
        Snapshots saved under other keys (``snapshot save --key``) are
        never pruned.  Without the flag, snapshot records are ordinary
        artifacts and keep their blocks live.
        """
        result = GCStats(dry_run=dry_run)
        pruned: set = set()
        if prune_snapshots:
            roots = set(snapshot_roots)
            for key in list(self.keys()):
                if (key.startswith(SNAPSHOT_PREFIX) and key not in roots
                        and self.kind_of(key) == "snapshot"):
                    pruned.add(key)
                    result.removed_snapshots += 1
                    if not dry_run:
                        self.delete(key)
        live: set = set()
        for key in self.keys():
            if key in pruned:
                continue  # dry_run keeps the record; mark as if gone
            live.update(_referenced_digests(self.get_record(key)["meta"]))
        for digest in list(self.block_digests()):
            if digest in live:
                result.live_blocks += 1
                continue
            result.freed_bytes += self.block_size(digest)
            if not dry_run:
                self.remove_block(digest)
            result.removed_blocks += 1
        if not dry_run:
            self.sweep_tmp(tmp_ttl_s)
        obs = hooks.OBS
        if obs.enabled and not dry_run:
            obs.count("store.gc_removed_blocks", result.removed_blocks)
            obs.count("store.gc_freed_bytes", result.freed_bytes)
        return result

    def scrub(self) -> ScrubStats:
        """Re-hash every live reference, reporting what is lost.

        Every block is read through :meth:`read_block`, so a layout that
        can heal on read (the sharded store's read repair) heals here,
        and reports the repairs; a plain store only reports.
        """
        report = ScrubStats()
        for key in sorted(self.keys()):
            report.objects += 1
            record = self.get_record(key)
            lost = False
            for digest in set(_referenced_digests(record["meta"])):
                report.blocks_checked += 1
                try:
                    self.read_block(digest)
                except StoreCorruption:
                    lost = True
            if lost:
                report.lost_keys.append(key)
        return report

    def verify(self) -> List[str]:
        """Re-hash every live reference; returns the corrupt keys."""
        return self.scrub().lost_keys


class ArtifactStore(_Store):
    """A content-addressed repository for pinballs, ELFies and results."""

    def __init__(self, root: str) -> None:
        self.root = root
        marker = os.path.join(root, STORE_MARKER)
        fresh = not os.path.exists(marker)
        if fresh and os.path.exists(os.path.join(root, SHARDS_MARKER)):
            raise ValueError("%s holds a sharded store; open it with "
                             "open_store" % root)
        if not fresh:
            check_marker(marker, _FORMAT["format"], _FORMAT["version"])
        os.makedirs(self._blocks_dir, exist_ok=True)
        os.makedirs(self._objects_dir, exist_ok=True)
        if fresh:
            _atomic_write(marker, json.dumps(_FORMAT).encode("utf-8"))

    # -- paths -------------------------------------------------------------

    @property
    def _blocks_dir(self) -> str:
        return os.path.join(self.root, "blocks")

    @property
    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _block_path(self, digest: str) -> str:
        return os.path.join(self._blocks_dir, digest)

    def _meta_path(self, key: str) -> str:
        # keys may contain "/" (``snap/`` checkpoints); they become
        # sub-directories, but must never escape the store, and no part
        # may be empty or hidden (temp files start with ".")
        if any(not part or part.startswith(".") for part in key.split("/")):
            raise ValueError("invalid store key %r" % key)
        return os.path.join(self._objects_dir, key)

    # -- blocks ------------------------------------------------------------

    def write_block(self, digest: str, data: bytes) -> None:
        """Idempotent, atomic write of one verified raw block."""
        path = self._block_path(digest)
        obs = hooks.OBS
        if os.path.exists(path):
            if obs.enabled:
                obs.count("store.blocks_deduped")
                obs.count("store.bytes_deduped", len(data))
            return  # content-addressed: existing contents are identical
        compressed = zlib.compress(data, COMPRESS_LEVEL)
        if obs.enabled:
            obs.count("store.blocks_written")
            obs.count("store.bytes_raw", len(data))
            obs.count("store.bytes_stored", len(compressed))
        _atomic_write(path, compressed)

    def read_block(self, digest: str) -> bytes:
        """Read and integrity-verify one block (raises StoreCorruption)."""
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

        ``write_block`` treats an existing file as authoritative (the
        content-addressed invariant), so a damaged block must leave the
        pool or a later re-put of the same content would be skipped and
        the corruption would persist.
        """
        try:
            os.unlink(path)
        except OSError:
            pass

    def has_block(self, digest: str) -> bool:
        return os.path.exists(self._block_path(digest))

    def remove_block(self, digest: str) -> bool:
        try:
            os.unlink(self._block_path(digest))
            return True
        except FileNotFoundError:
            return False

    def block_digests(self) -> Iterator[str]:
        """Digests of every block file in the pool, in sorted order."""
        for name in sorted(os.listdir(self._blocks_dir)):
            if not name.startswith("."):
                yield name

    def block_size(self, digest: str) -> int:
        """Compressed on-disk bytes (FileNotFoundError when absent)."""
        return os.path.getsize(self._block_path(digest))

    # -- records -----------------------------------------------------------

    def put_record(self, key: str, record: dict) -> None:
        """Atomically install an artifact meta record.

        The record must only reference blocks that are already in the
        pool — this is the commit point that makes a partially written
        artifact simply absent rather than corrupt.  Raises ValueError
        when *key* collides with a nested key (``a`` and ``a/b``).
        """
        data = zlib.compress(json.dumps(record, sort_keys=True)
                             .encode("utf-8"), COMPRESS_LEVEL)
        try:
            _atomic_write(self._meta_path(key), data)
        except (IsADirectoryError, NotADirectoryError):
            raise ValueError("store key %r collides with a nested key"
                             % key) from None

    def get_record(self, key: str) -> dict:
        """The raw meta record for *key* (KeyError when absent)."""
        try:
            with open(self._meta_path(key), "rb") as handle:
                return json.loads(zlib.decompress(handle.read()))
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise KeyError(key)
        except (zlib.error, ValueError, OSError) as exc:
            raise StoreCorruption("meta record for %s: %s" % (key, exc))

    def record_size(self, key: str) -> int:
        """Compressed on-disk bytes of *key*'s record."""
        return os.path.getsize(self._meta_path(key))

    def remove_record(self, key: str) -> bool:
        try:
            os.unlink(self._meta_path(key))
            return True
        except FileNotFoundError:
            return False

    def contains(self, key: str) -> bool:
        return os.path.isfile(self._meta_path(key))

    def keys(self) -> Iterator[str]:
        for dirpath, dirnames, filenames in os.walk(self._objects_dir):
            dirnames.sort()
            prefix = os.path.relpath(dirpath, self._objects_dir)
            prefix = "" if prefix == os.curdir else \
                prefix.replace(os.sep, "/") + "/"
            for name in sorted(filenames):
                if not name.startswith("."):
                    yield prefix + name

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


def check_marker(path: str, format_name: str, version: int) -> dict:
    """The layout marker at *path*, which must name *format_name* at
    *version*: a root of another format or layout version raises
    ValueError rather than being read as this one.  A layout change
    bumps the version its marker is written with."""
    with open(path) as handle:
        marker = json.load(handle)
    named = (marker.get("format"), marker.get("version"))
    if named != (format_name, version):
        raise ValueError("%s names %s v%s; this store reads %s v%d"
                         % (path, named[0], named[1], format_name, version))
    return marker


def open_store(root: str, shards: int = 0) -> Any:
    """Open (or create) the store at *root*; the one place that picks a
    layout.

    A root with the ``shards.json`` marker opens as a
    :class:`repro.service.shards.ShardedStore`, a root with
    ``store.json`` as a plain :class:`ArtifactStore`.  A new root is
    sharded across *shards* roots when *shards* is given, plain
    otherwise.  A *shards* count that contradicts an existing root (a
    plain root, or a sharded one of another count) raises ValueError
    and writes nothing.
    """
    from repro.service.shards import ShardedStore

    if shards or os.path.exists(os.path.join(root, SHARDS_MARKER)):
        return ShardedStore(root, shards=shards or None)
    return ArtifactStore(root)


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
