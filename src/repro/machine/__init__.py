"""Simulated execution platform (CPU, memory, OS kernel) for PX binaries.

This package is the stand-in for the native x86 Linux machine of the
paper.  It provides:

- :mod:`repro.machine.memory` -- a paged virtual address space with
  permissions and page faults (the "ungraceful exit" substrate),
- :mod:`repro.machine.cpu` -- the PX interpreter with a lightweight
  hardware timing model (the "native hardware" of the case studies),
- :mod:`repro.machine.kernel` -- Linux-x86-64-numbered system calls, an
  in-memory VFS, ``brk``/``mmap`` and ``clone``-based threads,
- :mod:`repro.machine.scheduler` -- a seeded preemptive scheduler whose
  seed is the source of run-to-run variation (ELFie non-determinism),
- :mod:`repro.machine.perf` -- perf-stat event totals over the
  per-thread PMU counters,
- :mod:`repro.machine.tool` -- Pin-style instrumentation hooks,
- :mod:`repro.machine.loader` -- the ELF loader with stack randomization
  (the stack-collision substrate),
- :mod:`repro.machine.machine` -- the :class:`Machine` facade.
"""

from repro.machine.memory import (
    PAGE_SIZE,
    PROT_READ,
    PROT_WRITE,
    PROT_EXEC,
    PROT_RW,
    PROT_RX,
    PROT_RWX,
    AddressSpace,
    PageFault,
    page_align_down,
    page_align_up,
)
from repro.machine.vfs import FileSystem, FileDescriptorTable, VfsError
from repro.machine.scheduler import Scheduler, ScheduleSlice
from repro.machine.perf import PMU, PerfEvent
from repro.machine.tool import Tool
from repro.machine.cpu import CpuFault, DivideError, InvalidOpcode
from repro.machine.kernel import Kernel, NR
from repro.machine.machine import Machine, Thread, ExitStatus
from repro.machine.loader import load_elf, LoaderError, LoadedImage

__all__ = [
    "PAGE_SIZE",
    "PROT_READ",
    "PROT_WRITE",
    "PROT_EXEC",
    "PROT_RW",
    "PROT_RX",
    "PROT_RWX",
    "AddressSpace",
    "PageFault",
    "page_align_down",
    "page_align_up",
    "FileSystem",
    "FileDescriptorTable",
    "VfsError",
    "Scheduler",
    "ScheduleSlice",
    "PMU",
    "PerfEvent",
    "Tool",
    "CpuFault",
    "DivideError",
    "InvalidOpcode",
    "Kernel",
    "NR",
    "Machine",
    "Thread",
    "ExitStatus",
    "load_elf",
    "LoaderError",
    "LoadedImage",
]
