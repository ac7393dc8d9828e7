"""The sharded content-addressed store: N roots behind one ring.

Layout under the sharded root::

    shards.json            ring configuration (shard names + vnodes)
    shard-00/              a plain :class:`ArtifactStore`
    shard-01/
    ...

Blocks are placed by their own SHA-256 digest on a consistent-hash
ring (:mod:`repro.service.ring`); artifact meta records are placed by
the SHA-256 of their key.  The store operations themselves (put, get,
gc, stats, scrub) are the plain store's, run over sharded block and
record primitives.  Everything inherits the single-shard store's
crash-safety discipline — write-temp-then-``os.replace`` for blocks and
records — so concurrent writers (the service's workers) never expose a
partially written block to readers.

Cross-shard healing:

- **read repair**: a block or record missing (or corrupt) on its home
  shard is searched for on the other shards and, when a verified copy
  is found, copied home before being served;
- **scrub** walks every live reference, repairing what it can and
  reporting what it cannot;
- **rebalance** re-rings the store onto a new shard count, moving each
  block/record to its new home (consistent hashing keeps the moved
  fraction near ``1/N``).

The degenerate one-shard store behaves exactly like a plain
:class:`ArtifactStore` with an extra directory level, which is how the
existing local ``farm run`` path runs unchanged on either layout.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.farm import codec
from repro.farm.store import (
    SHARDS_MARKER,
    STALE_TMP_S,
    STORE_MARKER,
    ArtifactStore,
    ScrubStats,
    StoreCorruption,
    StoreStats,
    _atomic_write,
    _Store,
    check_marker,
)
from repro.observe import hooks
from repro.service.ring import HashRing

_FORMAT = "repro-farm-shards"
_VERSION = 1


def shard_names(count: int) -> List[str]:
    return ["shard-%02d" % index for index in range(count)]


#: What a pickled store leaves out and reopens from its root.
_REOPENED = ("ring", "_stores", "block_hits", "block_repairs",
             "record_repairs")


@functools.lru_cache(maxsize=8)
def _ring(names: tuple, vnodes: int) -> HashRing:
    """The ring over *names*, built once per process: a pool worker
    reopens the store for every task (see ShardedStore.__getstate__)."""
    return HashRing(names, vnodes=vnodes)


@dataclass
class ShardedStoreStats(StoreStats):
    """Aggregate store stats plus the per-shard breakdown."""

    #: shard name -> {objects, record_bytes, blocks, stored_bytes,
    #: unique_bytes, logical_bytes, dedup_ratio, hits, repairs, hit_rate}
    shards: Dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        report = super().to_json()
        report["shards"] = {name: dict(entry)
                           for name, entry in sorted(self.shards.items())}
        return report


@dataclass
class RebalanceStats:
    """What :meth:`ShardedStore.rebalance` moved."""

    moved_blocks: int = 0
    moved_bytes: int = 0
    moved_records: int = 0
    shards: int = 0
    dry_run: bool = False


class ShardedStore(_Store):
    """A content-addressed store spread over N shard roots.

    The store operations (``put/get/kind_of/stats/gc/verify/scrub``)
    are the plain store's, run over sharded primitives: a block or
    record is written to its home shard on the ring, and read from
    there first.  Only placement, read repair, the per-shard stats
    breakdown and :meth:`rebalance` are this class's own.  Aggregate
    figures count each distinct block once, wherever its replicas lie.
    """

    def __init__(self, root: str, shards: Optional[int] = None,
                 vnodes: int = 128) -> None:
        self.root = root
        marker = os.path.join(root, SHARDS_MARKER)
        if os.path.exists(marker):
            config = check_marker(marker, _FORMAT, _VERSION)
            names = list(config["shards"])
            vnodes = int(config["vnodes"])
            if shards is not None and shards != len(names):
                raise ValueError(
                    "store has %d shards; use rebalance(shards=%d) to "
                    "change the ring" % (len(names), shards))
        elif os.path.exists(os.path.join(root, STORE_MARKER)):
            raise ValueError("%s holds a plain store; it cannot be opened "
                             "as sharded" % root)
        else:
            names = shard_names(shards if shards is not None else 2)
            os.makedirs(root, exist_ok=True)
            _write_marker(root, names, vnodes)
        self.ring = _ring(tuple(names), vnodes)
        self._stores = {name: ArtifactStore(os.path.join(root, name))
                        for name in names}
        # session counters behind the per-shard hit rate the service
        # reports (a fresh CLI process starts from zero)
        self.block_hits = {name: 0 for name in names}
        self.block_repairs = {name: 0 for name in names}
        self.record_repairs = {name: 0 for name in names}

    def __getstate__(self) -> dict:
        # A pooled FarmRunner ships its store with every task: send the
        # root and shard count, not the ring and the per-shard stores
        # (6.9 KB); __setstate__ reopens those from the marker, and the
        # session counters start from zero there.
        state = {name: value for name, value in vars(self).items()
                 if name not in _REOPENED}
        state["shard_count"] = len(self._stores)
        return state

    def __setstate__(self, state: dict) -> None:
        state = dict(state)
        ShardedStore.__init__(self, state["root"],
                              shards=state.pop("shard_count"))
        vars(self).update(state)

    @property
    def shards(self) -> List[str]:
        return list(self.ring.shards)

    def shard_store(self, name: str) -> ArtifactStore:
        return self._stores[name]

    # -- placement ---------------------------------------------------------

    def home_of_block(self, digest: str) -> str:
        return self.ring.shard_for(digest)

    def home_of_key(self, key: str) -> str:
        return self.ring.shard_for(codec.sha256_hex(key.encode("utf-8")))

    def _others(self, home: str) -> Iterator[ArtifactStore]:
        for name in self.ring.shards:
            if name != home:
                yield self._stores[name]

    def _home_first(self, home: str) -> Iterator[ArtifactStore]:
        yield self._stores[home]
        yield from self._others(home)

    # -- blocks ------------------------------------------------------------

    def write_block(self, digest: str, data: bytes) -> None:
        self._stores[self.home_of_block(digest)].write_block(digest, data)

    def read_block(self, digest: str) -> bytes:
        """Verified read with cross-shard read repair.

        The home shard is authoritative; on a miss or a corrupt copy
        (which the underlying read drops from disk) every other shard
        is searched for a verified replica, which is copied home before
        being returned.
        """
        home = self.home_of_block(digest)
        try:
            data = self._stores[home].read_block(digest)
        except StoreCorruption:
            data = self._repair_block(home, digest)
        else:
            self.block_hits[home] += 1
        return data

    def _repair_block(self, home: str, digest: str) -> bytes:
        obs = hooks.OBS
        for store in self._others(home):
            if not store.has_block(digest):
                continue
            try:
                data = store.read_block(digest)
            except StoreCorruption:
                continue  # that copy was damaged too (and was dropped)
            self._stores[home].write_block(digest, data)
            self.block_repairs[home] += 1
            if obs.enabled:
                obs.count("service.store.read_repairs")
            return data
        raise StoreCorruption("block %s missing from every shard" % digest)

    def remove_block(self, digest: str) -> bool:
        """Drop the block from every shard that holds a copy."""
        return any([store.remove_block(digest)
                    for store in self._stores.values()])

    def block_digests(self) -> Iterator[str]:
        """Each distinct block digest on any shard, in sorted order."""
        return iter(sorted(set().union(*(
            store.block_digests() for store in self._stores.values()))))

    def block_size(self, digest: str) -> int:
        """Compressed bytes of one copy, the home copy when present."""
        for store in self._home_first(self.home_of_block(digest)):
            try:
                return store.block_size(digest)
            except FileNotFoundError:
                continue
        raise FileNotFoundError(digest)

    # -- records -----------------------------------------------------------

    def put_record(self, key: str, record: dict) -> None:
        self._stores[self.home_of_key(key)].put_record(key, record)

    def get_record(self, key: str) -> dict:
        home = self.home_of_key(key)
        try:
            return self._stores[home].get_record(key)
        except KeyError:
            pass
        for store in self._others(home):
            try:
                record = store.get_record(key)
            except KeyError:
                continue
            # read repair: install the stray record at its home shard
            self._stores[home].put_record(key, record)
            self.record_repairs[home] += 1
            return record
        raise KeyError(key)

    def record_size(self, key: str) -> int:
        """Compressed bytes of the home copy (``get_record`` moves a
        stray record home first)."""
        return self._stores[self.home_of_key(key)].record_size(key)

    def remove_record(self, key: str) -> bool:
        # strays from pre-rebalance layouts must die with the home copy
        return any([store.remove_record(key)
                    for store in self._stores.values()])

    def contains(self, key: str) -> bool:
        return any(store.contains(key)
                   for store in self._home_first(self.home_of_key(key)))

    def keys(self) -> Iterator[str]:
        seen = set()
        for store in self._stores.values():
            for key in store.keys():
                if key not in seen:
                    seen.add(key)
                    yield key

    def sweep_tmp(self, ttl_s: float = STALE_TMP_S) -> int:
        return sum(store.sweep_tmp(ttl_s) for store in self._stores.values())

    # -- maintenance -------------------------------------------------------

    def stats(self) -> ShardedStoreStats:
        """The aggregate stats plus the per-shard breakdown, from one
        listing of each shard and one read of each record."""
        copies = {name: store._block_pool()
                  for name, store in self._stores.items()}
        pool: Dict[str, int] = {}
        for sizes in copies.values():
            pool.update(sizes)  # replicas of a block hold the same bytes
        aggregate, records = self._tally(pool)
        stats = ShardedStoreStats(**vars(aggregate))
        per_shard = {
            name: {"objects": 0, "record_bytes": 0,
                   "blocks": len(copies[name]),
                   "stored_bytes": sum(copies[name].values()),
                   "unique_bytes": 0, "logical_bytes": 0,
                   "hits": self.block_hits[name],
                   "repairs": self.block_repairs[name]}
            for name in self.ring.shards
        }
        unique: Dict[str, int] = {}
        for key, record in records.items():
            home = self.home_of_key(key)
            per_shard[home]["objects"] += 1
            per_shard[home]["record_bytes"] += self.record_size(key)
            for digest, size in record.get("block_sizes", {}).items():
                unique[digest] = size
                per_shard[self.home_of_block(digest)]["logical_bytes"] \
                    += size
        for digest, size in unique.items():
            home = self.home_of_block(digest)
            if digest in copies[home]:
                per_shard[home]["unique_bytes"] += size
        for entry in per_shard.values():
            entry["dedup_ratio"] = round(
                entry["logical_bytes"] / entry["unique_bytes"], 3) \
                if entry["unique_bytes"] else 1.0
            lookups = entry["hits"] + entry["repairs"]
            entry["hit_rate"] = round(entry["hits"] / lookups, 3) \
                if lookups else 1.0
        stats.shards = per_shard
        return stats

    def scrub(self) -> ScrubStats:
        """Verify every live reference, counting what read repair healed."""
        blocks = sum(self.block_repairs.values())
        records = sum(self.record_repairs.values())
        report = super().scrub()
        report.repaired_blocks = sum(self.block_repairs.values()) - blocks
        report.repaired_records = sum(self.record_repairs.values()) - records
        return report

    def rebalance(self, shards: Optional[int] = None,
                  dry_run: bool = False) -> RebalanceStats:
        """Move every block and record to its home under a new ring.

        With *shards* the ring is regrown/shrunk to that count first
        (consistent hashing keeps movement near the minimum); without
        it the pass just canonicalizes stray placements left by read
        repair or crashed rebalances.
        """
        old_names = self.ring.shards
        new_names = shard_names(shards) if shards is not None else old_names
        new_ring = _ring(tuple(new_names), self.ring.vnodes)
        stores = dict(self._stores)
        for name in new_names:
            if name not in stores:
                stores[name] = ArtifactStore(os.path.join(self.root, name))
        result = RebalanceStats(shards=len(new_names), dry_run=dry_run)
        for name, store in sorted(stores.items()):
            for digest in list(store.block_digests()):
                home = new_ring.shard_for(digest)
                if home == name:
                    continue
                result.moved_blocks += 1
                if dry_run:
                    continue
                data = store.read_block(digest)  # verified before the move
                result.moved_bytes += len(data)
                stores[home].write_block(digest, data)
                store.remove_block(digest)
            for key in list(store.keys()):
                home = new_ring.shard_for(
                    codec.sha256_hex(key.encode("utf-8")))
                if home == name:
                    continue
                result.moved_records += 1
                if dry_run:
                    continue
                stores[home].put_record(key, store.get_record(key))
                store.remove_record(key)
        if dry_run:
            return result
        # commit the new ring only after every object reached its home,
        # so a crash mid-move leaves strays the read-repair path finds
        _write_marker(self.root, new_names, self.ring.vnodes)
        self.ring = new_ring
        self._stores = {name: stores[name] for name in new_names}
        for counter in (self.block_hits, self.block_repairs,
                        self.record_repairs):
            for name in new_names:
                counter.setdefault(name, 0)
        return result


def _write_marker(root: str, names: List[str], vnodes: int) -> None:
    _atomic_write(os.path.join(root, SHARDS_MARKER), json.dumps(
        {"format": _FORMAT, "version": _VERSION,
         "shards": names, "vnodes": vnodes},
        sort_keys=True).encode("utf-8"))
