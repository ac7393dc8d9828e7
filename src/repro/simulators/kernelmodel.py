"""Synthetic ring-0 instruction streams for full-system simulation.

The paper's Table IV compares user-only (SDE front-end) against
full-system (Simics front-end) simulation of the same ELFie; the
full-system run additionally executes operating-system code: system
call service routines and periodic timer interrupts.  We cannot run a
real kernel, so this module substitutes deterministic synthetic
streams that exercise the same simulator mechanisms: extra ring-0
instructions, instruction fetches from a kernel code region, and data
accesses over a large, sparse kernel working set (page tables, slab
caches, the scheduler's runqueues), which is what disturbs TLBs,
caches, prefetchers, and memory bandwidth in the real measurement.
"""

from __future__ import annotations

from repro.machine.kernel import NR

#: Kernel virtual address bases (x86-64 direct-map style).
KERNEL_TEXT_BASE = 0xFFFFFFFF81000000
KERNEL_DATA_BASE = 0xFFFF888000000000

#: Span of the synthetic kernel data working set (bytes).
KERNEL_DATA_SPAN = 8 << 20

#: Ring-0 instructions charged per syscall service routine.
SYSCALL_COSTS = {
    NR.READ: 900,
    NR.WRITE: 800,
    NR.OPEN: 1400,
    NR.CLOSE: 500,
    NR.LSEEK: 350,
    NR.MMAP: 1600,
    NR.MPROTECT: 1200,
    NR.MUNMAP: 1100,
    NR.BRK: 700,
    NR.CLONE: 2500,
    NR.FUTEX: 600,
    NR.GETTIMEOFDAY: 250,
    NR.EXIT: 1200,
    NR.EXIT_GROUP: 1500,
}
DEFAULT_SYSCALL_COST = 450

#: A timer interrupt fires every this many user instructions...
TIMER_INTERVAL = 25_000
#: ...and its handler runs this many ring-0 instructions.
TIMER_COST = 320

#: Fraction of kernel instructions that access kernel data (1 in N).
DATA_EVERY = 6
#: Kernel instruction fetch advances a new line every N instructions.
FETCH_LINE_EVERY = 8
#: Every Nth data access leaves the episode's local block (footprint).
FAR_EVERY = 4

_MASK64 = (1 << 64) - 1


class KernelModel:
    """The operating system as a core is charged for it: every system
    call traps, and in full-system mode each system call and each timer
    interrupt also runs a ring-0 episode through the core's caches and
    TLBs (its fetches and data accesses at full latency)."""

    def __init__(self, trap_cycles: int, full_system: bool,
                 width: int) -> None:
        self.trap_cycles = trap_cycles
        self.full_system = full_system
        #: User instructions between timer interrupts (None: no timer).
        self.interval = TIMER_INTERVAL if full_system else None
        self._instr_cost = 1.0 / width
        #: Ring-0 instructions run so far.
        self.instructions = 0
        self._episodes = 0

    def _run(self, core, cost: int, seed: int, fetch_seed: int) -> None:
        """Charge one ring-0 episode of *cost* instructions.

        Addresses come from an LCG seeded by *seed* (the cause and
        episode number), so an episode is deterministic.  Fetches walk
        kernel text chosen by *fetch_seed*, which is stable per cause:
        the same handler executes the same text every time, so fetches
        hit the caches on repeat episodes.  Most data accesses walk an
        episode-local 4 KiB block (a kernel stack or slab page — good
        locality), while every ``FAR_EVERY``-th access touches a fresh
        line somewhere in the large kernel working set, which is what
        grows the full-system data footprint (Table IV's +45%) without
        making every access a miss.
        """
        self.instructions += cost
        core.cycles += cost * self._instr_cost
        state = (seed * 6364136223846793005 + 1442695040888963407) & _MASK64
        fetch_base = KERNEL_TEXT_BASE + (fetch_seed % 0x400) * 4096
        local_base = KERNEL_DATA_BASE + ((state >> 8) % 0x10000) * 4096
        data_index = 0
        for index in range(cost):
            if index % FETCH_LINE_EVERY == 0:
                core.cycles += core.fetch_access(
                    fetch_base + (index // FETCH_LINE_EVERY) * 64)
            if index % DATA_EVERY == 0:
                data_index += 1
                if data_index % FAR_EVERY == 0:
                    state = (state * 2862933555777941757 + 3037000493) & _MASK64
                    offset = (state >> 16) % KERNEL_DATA_SPAN
                    addr = KERNEL_DATA_BASE + (offset & ~0x3F)
                else:
                    addr = local_base + (data_index * 8) % 4096
                core.cycles += core.data_access(addr)

    def timer(self, core) -> None:
        self._episodes += 1
        self._run(core, TIMER_COST, 0x71E4 ^ (self._episodes << 8), 0x71E4)

    def syscall(self, core, number: int) -> None:
        core.cycles += self.trap_cycles
        if self.full_system:
            self._episodes += 1
            self._run(core, SYSCALL_COSTS.get(number, DEFAULT_SYSCALL_COST),
                      (number << 20) ^ self._episodes, number)
