"""Set-associative caches and TLBs for the simulator timing models.

These are the component models shared by the Sniper-like, CoreSim-like
and gem5-like simulators.  They are deliberately simple (LRU, inclusive
lookups, no MSHRs) but track everything the case studies report:
accesses, misses, and distinct-line footprints (Table IV's data
footprint column).
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, List, Optional, Set

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT


class Cache:
    """One set-associative, LRU cache level."""

    def __init__(self, name: str, size_kb: int, assoc: int,
                 latency: int, parent: Optional["Cache"] = None) -> None:
        size = size_kb * 1024
        lines = size // LINE_SIZE
        if lines % assoc:
            raise ValueError("cache size not divisible by associativity")
        self.name = name
        self.sets = lines // assoc
        self.assoc = assoc
        self.latency = latency
        self.parent = parent
        #: set index -> resident lines, LRU first; a set's list is
        #: created on first touch (most sets of a short run stay empty).
        self._ways: DefaultDict[int, List[int]] = defaultdict(list)
        self.accesses = 0
        self.misses = 0
        #: Distinct lines ever touched (footprint tracking).
        self.touched: Set[int] = set()

    def access(self, addr: int) -> int:
        """Look up the line containing *addr*; returns the cycles spent
        at this level and below (parent chains on miss)."""
        line = addr >> LINE_SHIFT
        index = line % self.sets
        ways = self._ways[index]
        self.accesses += 1
        self.touched.add(line)
        if line in ways:
            ways.remove(line)
            ways.append(line)  # most-recently-used at the back
            return self.latency
        self.misses += 1
        cycles = self.latency
        if self.parent is not None:
            cycles += self.parent.access(addr)
        else:
            cycles += MEMORY_LATENCY
        ways.append(line)
        if len(ways) > self.assoc:
            ways.pop(0)
        return cycles

    def footprint_bytes(self) -> int:
        """Bytes of distinct lines that passed through this cache."""
        return len(self.touched) * LINE_SIZE


#: DRAM access latency in cycles.
MEMORY_LATENCY = 120


class Tlb:
    """A fully-associative, LRU translation lookaside buffer."""

    PAGE_SHIFT = 12

    def __init__(self, name: str, entries: int, miss_penalty: int) -> None:
        self.name = name
        self.entries = entries
        self.miss_penalty = miss_penalty
        self._lru: List[int] = []
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Translate; returns extra cycles (0 on hit)."""
        page = addr >> self.PAGE_SHIFT
        self.accesses += 1
        if page in self._lru:
            self._lru.remove(page)
            self._lru.append(page)
            return 0
        self.misses += 1
        self._lru.append(page)
        if len(self._lru) > self.entries:
            self._lru.pop(0)
        return self.miss_penalty
