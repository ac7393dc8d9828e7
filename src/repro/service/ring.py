"""Consistent hashing for the sharded checkpoint store.

The ring places every shard at ``vnodes`` pseudo-random points on a
64-bit circle (SHA-256 of ``"<shard>#<vnode>"``); a digest maps to the
first shard point at or after its own position.  Properties the sharded
store depends on:

- **stable**: the mapping is a pure function of the shard names and the
  vnode count — independent of construction order, process, or session;
- **minimal movement**: adding a shard only reassigns the arc segments
  the new shard's points capture (~1/N of the keyspace), so a rebalance
  after growing the farm moves ~1/N of the blocks, not all of them;
- **balanced**: with enough vnodes the arc fractions concentrate around
  1/N (128 vnodes holds per-shard load within a few percent).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple

#: Ring positions use the top 64 bits of SHA-256 — plenty of spread,
#: and block digests (already SHA-256 hex) index the ring for free.
_SPACE = 1 << 64


def _point(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


class HashRing:
    """A stable consistent-hash ring over named shards."""

    def __init__(self, shards: Sequence[str], vnodes: int = 128) -> None:
        if not shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("duplicate shard names: %r" % (list(shards),))
        self.shards = sorted(shards)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for shard in self.shards:
            for vnode in range(vnodes):
                points.append((_point("%s#%d" % (shard, vnode)), shard))
        points.sort()
        self._points = points
        self._positions = [position for position, _shard in points]

    def shard_for(self, digest_hex: str) -> str:
        """The shard owning *digest_hex* (any hex string, 16+ chars)."""
        position = int(digest_hex[:16], 16) % _SPACE
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._points):
            index = 0  # wrap: first point owns the top arc
        return self._points[index][1]
