"""Architectural-state and memory digests — the verifier's epoch keys.

A digest covers exactly the state the paper requires to be
bit-identical: per-thread GPRs, RIP, RFLAGS, the FS/GS bases, and the
XSAVE area (XMM registers + MXCSR), plus the mapped-page image.  Two
executions whose digests agree at an epoch boundary are — at that
boundary — architecturally indistinguishable.

The memory digest hashes the full mapped image (optionally restricted
to a page set).  At this reproduction's scale that is cheap, and unlike
a pure dirty-page hash it also covers pages written behind the CPU's
back by injected syscall side-effects.  The :class:`DirtyPageTracker`
tool narrows the *diff report* to pages the epoch actually touched.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Set

from repro.machine.memory import PAGE_SHIFT
from repro.machine.tool import Tool

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine, Thread

MASK64 = (1 << 64) - 1


def thread_state_bytes(thread: "Thread") -> bytes:
    """Canonical byte encoding of one thread's architectural state."""
    regs = thread.regs
    return b"".join((
        struct.pack("<qBB", thread.tid,
                    1 if thread.alive else 0,
                    1 if thread.blocked else 0),
        struct.pack("<16Q", *(value & MASK64 for value in regs.gpr)),
        struct.pack("<QQQQ", regs.rip & MASK64, regs.flags.to_word(),
                    regs.fs_base & MASK64, regs.gs_base & MASK64),
        regs.xsave_bytes(),
    ))


def arch_digest(machine: "Machine",
                tids: Optional[Iterable[int]] = None) -> str:
    """Digest of every thread's architectural state (tid-sorted).

    *tids* restricts the digest to a comparable thread set — the
    verifier uses it to ignore threads that died before the region
    started (present in the original machine, absent from a pinball).
    """
    keep = set(tids) if tids is not None else None
    digest = hashlib.sha256()
    for tid in sorted(machine.threads):
        if keep is not None and tid not in keep:
            continue
        digest.update(thread_state_bytes(machine.threads[tid]))
    return digest.hexdigest()


def memory_digest(machine: "Machine",
                  pages: Optional[Iterable[int]] = None) -> str:
    """Digest of the mapped memory image (page index, prot, contents).

    *pages* (page indices, i.e. ``addr >> 12``) restricts the digest —
    used when comparing against an ELFie machine whose image legitimately
    contains extra startup sections.
    """
    mem = machine.mem
    mapped = mem.mapped_pages()
    if pages is not None:
        wanted = set(pages)
        mapped = [page for page in mapped if page in wanted]
    perms = mem.snapshot_perms()
    digest = hashlib.sha256()
    for page in mapped:
        digest.update(struct.pack("<QI", page, perms[page]))
        digest.update(mem.page_bytes(page))
    return digest.hexdigest()


@dataclass(frozen=True)
class EpochDigest:
    """The digest pair taken at one epoch boundary."""

    index: int            # epoch number (0-based); -1 = initial state
    icount: int           # region-relative instructions retired
    arch: str
    mem: str

    @property
    def key(self) -> str:
        return self.arch + ":" + self.mem

    def matches(self, other: "EpochDigest") -> bool:
        return self.arch == other.arch and self.mem == other.mem


def epoch_digest(machine: "Machine", index: int, icount: int,
                 pages: Optional[Iterable[int]] = None,
                 tids: Optional[Iterable[int]] = None) -> EpochDigest:
    return EpochDigest(index=index, icount=icount,
                       arch=arch_digest(machine, tids=tids),
                       mem=memory_digest(machine, pages=pages))


class DirtyPageTracker(Tool):
    """Collects the pages written since the last :meth:`take`.

    Attached by the verifier to both cursors; the dirty union focuses
    the side-by-side memory diff on pages the epoch touched.  CPU-level
    stores arrive through the memory-write hook (which fires on the
    superblock fast path); native syscall side-effects are harvested
    from ``kernel.last_effects`` after each non-suppressed call.
    Injected syscall writes bypass both, which is why the *digest*
    hashes the full image rather than trusting this set.
    """

    wants_instructions = False
    wants_memory = True
    wants_blocks = False
    SNAPSHOT_SLICE = "observe"

    def __init__(self) -> None:
        self.dirty: Set[int] = set()

    def save_state(self) -> dict:
        return {"dirty": sorted(self.dirty)}

    def restore_state(self, state: dict) -> None:
        self.dirty = set(state["dirty"])

    def on_memory_write(self, machine, thread, addr, size) -> None:
        first = addr >> PAGE_SHIFT
        last = (addr + max(size, 1) - 1) >> PAGE_SHIFT
        self.dirty.add(first)
        if last != first:
            self.dirty.update(range(first + 1, last + 1))

    def on_syscall_after(self, machine, thread, number, result) -> None:
        for addr, data in machine.kernel.last_effects:
            first = addr >> PAGE_SHIFT
            last = (addr + max(len(data), 1) - 1) >> PAGE_SHIFT
            self.dirty.update(range(first, last + 1))

    def take(self) -> Set[int]:
        """Return and reset the dirty set."""
        dirty = self.dirty
        self.dirty = set()
        return dirty
