"""Set-associative caches and TLBs for the simulator timing models.

These are the component models shared by the Sniper-like, CoreSim-like
and gem5-like simulators.  They are deliberately simple (LRU, inclusive
lookups, no MSHRs) but track everything the case studies report:
accesses, misses, and distinct-line footprints (Table IV's data
footprint column).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Set

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


@dataclass
class CacheHierarchy:
    """A private L1D/L1I + L2 per core, with a shared LLC."""

    l1d: Cache
    l1i: Cache
    l2: Cache
    llc: Cache
    dtlb: Optional[Tlb] = None
    itlb: Optional[Tlb] = None

    @classmethod
    def build(cls, llc: Cache,
              l1_kb: int = 32, l1_assoc: int = 8, l1_latency: int = 2,
              l2_kb: int = 256, l2_assoc: int = 8, l2_latency: int = 10,
              with_tlbs: bool = False,
              tlb_entries: int = 64, tlb_penalty: int = 30,
              ) -> "CacheHierarchy":
        """Build one core's private hierarchy under a shared *llc*."""
        l2 = Cache("L2", l2_kb, l2_assoc, l2_latency, parent=llc)
        l1d = Cache("L1D", l1_kb, l1_assoc, l1_latency, parent=l2)
        l1i = Cache("L1I", l1_kb, l1_assoc, l1_latency, parent=l2)
        dtlb = Tlb("DTLB", tlb_entries, tlb_penalty) if with_tlbs else None
        itlb = Tlb("ITLB", tlb_entries * 2, tlb_penalty) if with_tlbs else None
        return cls(l1d=l1d, l1i=l1i, l2=l2, llc=llc, dtlb=dtlb, itlb=itlb)

    def data_access(self, addr: int) -> int:
        cycles = self.l1d.access(addr)
        if self.dtlb is not None:
            cycles += self.dtlb.access(addr)
        return cycles

    def fetch_access(self, addr: int) -> int:
        cycles = self.l1i.access(addr)
        if self.itlb is not None:
            cycles += self.itlb.access(addr)
        return cycles

    def stats(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cache in (self.l1d, self.l1i, self.l2, self.llc):
            out["%s_accesses" % cache.name.lower()] = cache.accesses
            out["%s_misses" % cache.name.lower()] = cache.misses
        for tlb in (self.dtlb, self.itlb):
            if tlb is not None:
                out["%s_accesses" % tlb.name.lower()] = tlb.accesses
                out["%s_misses" % tlb.name.lower()] = tlb.misses
        return out
