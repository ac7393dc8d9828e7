"""The pinball on-disk format.

A pinball is a directory of files sharing a basename (paper §I):

``<name>.text``
    The initial memory image: every captured page with its protection
    and contents at region start.  Binary format: a magic header then
    one record per page.
``<name>.<tid>.reg``
    Per-thread architectural registers at region start, plus the
    register results of every system call the thread performs inside
    the region (injected during constrained replay).
``<name>.sel``
    System-call side-effect log: the user-memory writes each syscall
    performed, with enough argument context for sysstate analysis.
``<name>.race``
    Shared-memory-order log.  This reproduction records the realized
    scheduling slices, which is a *stronger* constraint than PinPlay's
    shared-memory access order; the guarantee documented in the paper
    (constrained, not totally ordered, replay) is preserved a fortiori.
``<name>.result``
    JSON metadata: region spec, per-thread instruction counts, brk
    bounds, thread blocked-states, fat flags.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.registers import RegisterFile
from repro.machine.memory import PAGE_SIZE
from repro.machine.scheduler import ScheduleSlice, intern_slice
from repro.pinplay.regions import RegionSpec

_TEXT_MAGIC = b"PBTX0001"
_BYTES_MAGIC = b"PBALL001"


@dataclass
class SyscallRecord:
    """One system call executed inside the captured region."""

    tid: int
    number: int
    args: Tuple[int, ...]            # rdi, rsi, rdx, r10, r8, r9 at entry
    result: int                      # rax after the call
    writes: List[Tuple[int, bytes]] = field(default_factory=list)
    #: Path string for open(2) calls (captured at log time).
    path: Optional[str] = None
    #: Whether the call mutated kernel state (channels, signal state,
    #: memory maps, ...) and must be *re-executed* during replay rather
    #: than injected.  Captured from the recording kernel so replay
    #: agrees with it per call, not per syscall number.
    native: bool = False

    def to_json(self) -> dict:
        return {
            "tid": self.tid,
            "number": self.number,
            "args": list(self.args),
            "result": self.result,
            "writes": [[addr, data.hex()] for addr, data in self.writes],
            "path": self.path,
            "native": self.native,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SyscallRecord":
        return cls(
            tid=data["tid"],
            number=data["number"],
            args=tuple(data["args"]),
            result=data["result"],
            writes=[(addr, bytes.fromhex(hexdata))
                    for addr, hexdata in data["writes"]],
            path=data.get("path"),
            native=data.get("native", False),
        )


@dataclass
class OpenFileRecord:
    """One file descriptor that was open when the region started.

    Captured so replay (and the sysstate tool) can restore the
    descriptor — at its recorded file offset — *before* the first
    replayed syscall, instead of lazily discovering it on first access.
    """

    fd: int
    path: str
    flags: int = 0
    offset: int = 0
    #: "file" descriptors restore from the file system; "pipe"/"socket"
    #: endpoints restore against the pinball's channel table instead.
    kind: str = "file"
    read_cid: Optional[int] = None
    write_cid: Optional[int] = None
    bound_port: Optional[int] = None

    def to_json(self) -> dict:
        return {"fd": self.fd, "path": self.path, "flags": self.flags,
                "offset": self.offset, "kind": self.kind,
                "read_cid": self.read_cid, "write_cid": self.write_cid,
                "bound_port": self.bound_port}

    @classmethod
    def from_json(cls, data: dict) -> "OpenFileRecord":
        return cls(fd=data["fd"], path=data["path"],
                   flags=data.get("flags", 0), offset=data.get("offset", 0),
                   kind=data.get("kind", "file"),
                   read_cid=data.get("read_cid"),
                   write_cid=data.get("write_cid"),
                   bound_port=data.get("bound_port"))


@dataclass
class ThreadRecord:
    """Per-thread capture state (one ``.reg`` file)."""

    tid: int
    regs: RegisterFile
    #: Retired instructions this thread executes inside the region.
    region_icount: int = 0
    #: Whether the thread was blocked (futex) at region start.
    blocked: bool = False
    futex_addr: Optional[int] = None
    #: Armed-but-unfired PMU trap at region start: instructions left
    #: until the trap fires, and its handler address.  Without these a
    #: trap armed before the region silently never fires during replay
    #: and execution diverges at the recorded trap point.
    pmu_remaining: Optional[int] = None
    pmu_handler: Optional[int] = None
    #: POSIX signal state at region start (blocked mask, pending set).
    sigmask: int = 0
    pending: int = 0
    #: Channel id the thread was read/write/accept-blocked on.
    wait_channel: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "tid": self.tid,
            "regs": self.regs.to_dict(),
            "region_icount": self.region_icount,
            "blocked": self.blocked,
            "futex_addr": self.futex_addr,
            "pmu_remaining": self.pmu_remaining,
            "pmu_handler": self.pmu_handler,
            "sigmask": self.sigmask,
            "pending": self.pending,
            "wait_channel": self.wait_channel,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ThreadRecord":
        return cls(
            tid=data["tid"],
            regs=RegisterFile.from_dict(data["regs"]),
            region_icount=data["region_icount"],
            blocked=data["blocked"],
            futex_addr=data.get("futex_addr"),
            pmu_remaining=data.get("pmu_remaining"),
            pmu_handler=data.get("pmu_handler"),
            sigmask=data.get("sigmask", 0),
            pending=data.get("pending", 0),
            wait_channel=data.get("wait_channel"),
        )


@dataclass
class Pinball:
    """An in-memory pinball; save/load round-trips the directory format."""

    name: str
    region: RegionSpec
    #: page base address -> (protection bits, page bytes)
    pages: Dict[int, Tuple[int, bytes]]
    threads: List[ThreadRecord]
    syscalls: List[SyscallRecord]
    schedule: List[ScheduleSlice]
    brk_start: int = 0
    brk_end: int = 0
    fat: bool = True
    whole_image: bool = True
    pages_early: bool = True
    #: Whole-program icount of the source run (for weights/coverage).
    program_icount: int = 0
    #: The source machine's thread-id counter at region start, so that
    #: clone() inside the region assigns identical tids during replay.
    next_tid: int = 0
    #: Non-console file descriptors open at region start (fd, path,
    #: flags, offset) — restored eagerly before the first replayed
    #: syscall.  Empty for pinballs from older recordings.
    open_files: List[OpenFileRecord] = field(default_factory=list)
    #: Futex wait-queue order at region start: futex address -> waiter
    #: tids in wake order.  Lets replay re-execute FUTEX_WAKE natively
    #: with the recorded wake order.
    futex_waiters: Dict[int, List[int]] = field(default_factory=dict)
    #: Kernel channel table at region start: cid -> {"capacity", "data"
    #: (hex), "readers", "writers"}.  Restored so in-region pipe/socket
    #: traffic re-executes against the recorded buffer contents and
    #: descriptor refcounts.
    channels: Dict[int, dict] = field(default_factory=dict)
    #: Channel wait-queue order at region start: cid -> waiter tids.
    channel_waiters: Dict[int, List[int]] = field(default_factory=dict)
    #: Listening sockets at region start: port -> {"backlog",
    #: "wait_cid", "queue": [[read_cid, write_cid], ...]}.
    listeners: Dict[int, dict] = field(default_factory=dict)
    #: Installed signal dispositions: signum -> [handler, sa_mask].
    sigactions: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: Process-directed pending-signal bitmask at region start.
    process_pending: int = 0
    #: SysV shared-memory table: shmid -> {"key", "size", "data" (hex),
    #: "attached_at", "attached_len"}.
    shm_segments: Dict[int, dict] = field(default_factory=dict)
    #: Kernel id counters, so in-region channel/segment creation assigns
    #: the recorded ids during replay.
    next_channel_id: int = 1
    next_shmid: int = 1

    # -- derived -----------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    @property
    def region_icount(self) -> int:
        """Total instructions in the region across threads."""
        return sum(t.region_icount for t in self.threads)

    def thread(self, tid: int) -> ThreadRecord:
        for record in self.threads:
            if record.tid == tid:
                return record
        raise KeyError("no thread %d in pinball" % tid)

    def memory_bytes(self) -> int:
        return len(self.pages) * PAGE_SIZE

    def try_stack_range(self) -> Optional[Tuple[int, int]]:
        """:meth:`stack_range`, or None when the stack page was not
        captured (possible for lazy pinballs whose region never touches
        the stack)."""
        try:
            return self.stack_range()
        except ValueError:
            return None

    def stack_range(self) -> Tuple[int, int]:
        """The coalesced page run containing thread 0's rsp.

        This identifies the program-stack pages that ``pinball2elf``
        must mark non-allocatable (stack-collision fix).
        """
        rsp_page = self.threads[0].regs.rsp & ~(PAGE_SIZE - 1)
        if rsp_page not in self.pages:
            raise ValueError("thread 0 rsp 0x%x not in captured pages"
                             % self.threads[0].regs.rsp)
        start = rsp_page
        while start - PAGE_SIZE in self.pages:
            start -= PAGE_SIZE
        end = rsp_page + PAGE_SIZE
        while end in self.pages:
            end += PAGE_SIZE
        return start, end

    # -- persistence ----------------------------------------------------------

    def _text_payload(self) -> bytes:
        """The ``.text`` memory-image file contents."""
        out = [_TEXT_MAGIC, struct.pack("<Q", len(self.pages))]
        for addr in sorted(self.pages):
            prot, data = self.pages[addr]
            if len(data) != PAGE_SIZE:
                raise ValueError("page 0x%x is not %d bytes" % (addr, PAGE_SIZE))
            out.append(struct.pack("<QI", addr, prot))
            out.append(data)
        return b"".join(out)

    @staticmethod
    def _decode_text(data: bytes) -> Dict[int, Tuple[int, bytes]]:
        if data[:8] != _TEXT_MAGIC:
            raise ValueError("bad pinball .text magic")
        (count,) = struct.unpack("<Q", data[8:16])
        pages: Dict[int, Tuple[int, bytes]] = {}
        offset = 16
        for _ in range(count):
            addr, prot = struct.unpack("<QI", data[offset:offset + 12])
            offset += 12
            pages[addr] = (prot, data[offset:offset + PAGE_SIZE])
            offset += PAGE_SIZE
        return pages

    def _result_dict(self) -> dict:
        """The ``.result`` metadata file contents."""
        return {
            "name": self.name,
            "region": {
                "start": self.region.start,
                "length": self.region.length,
                "warmup": self.region.warmup,
                "name": self.region.name,
                "weight": self.region.weight,
            },
            "tids": [record.tid for record in self.threads],
            "brk_start": self.brk_start,
            "brk_end": self.brk_end,
            "fat": self.fat,
            "whole_image": self.whole_image,
            "pages_early": self.pages_early,
            "program_icount": self.program_icount,
            "next_tid": self.next_tid,
            "open_files": [record.to_json() for record in self.open_files],
            "futex_waiters": {str(addr): tids for addr, tids
                              in self.futex_waiters.items()},
            "channels": {str(cid): chan for cid, chan
                         in self.channels.items()},
            "channel_waiters": {str(cid): tids for cid, tids
                                in self.channel_waiters.items()},
            "listeners": {str(port): listener for port, listener
                          in self.listeners.items()},
            "sigactions": {str(sig): list(act) for sig, act
                           in self.sigactions.items()},
            "process_pending": self.process_pending,
            "shm_segments": {str(shmid): seg for shmid, seg
                             in self.shm_segments.items()},
            "next_channel_id": self.next_channel_id,
            "next_shmid": self.next_shmid,
        }

    @classmethod
    def _from_parts(cls, meta: dict, pages: Dict[int, Tuple[int, bytes]],
                    threads: List["ThreadRecord"],
                    syscalls: List[SyscallRecord],
                    schedule: List[ScheduleSlice]) -> "Pinball":
        return cls(
            name=meta["name"],
            region=RegionSpec(**meta["region"]),
            pages=pages,
            threads=threads,
            syscalls=syscalls,
            schedule=schedule,
            brk_start=meta["brk_start"],
            brk_end=meta["brk_end"],
            fat=meta["fat"],
            whole_image=meta["whole_image"],
            pages_early=meta["pages_early"],
            program_icount=meta.get("program_icount", 0),
            next_tid=meta.get("next_tid", 0),
            open_files=[OpenFileRecord.from_json(item)
                        for item in meta.get("open_files", [])],
            futex_waiters={int(addr): list(tids) for addr, tids
                           in meta.get("futex_waiters", {}).items()},
            channels={int(cid): dict(chan) for cid, chan
                      in meta.get("channels", {}).items()},
            channel_waiters={int(cid): list(tids) for cid, tids
                             in meta.get("channel_waiters", {}).items()},
            listeners={int(port): dict(listener) for port, listener
                       in meta.get("listeners", {}).items()},
            sigactions={int(sig): (act[0], act[1]) for sig, act
                        in meta.get("sigactions", {}).items()},
            process_pending=meta.get("process_pending", 0),
            shm_segments={int(shmid): dict(seg) for shmid, seg
                          in meta.get("shm_segments", {}).items()},
            next_channel_id=meta.get("next_channel_id", 1),
            next_shmid=meta.get("next_shmid", 1),
        )

    def save(self, directory: str) -> str:
        """Write the pinball files under *directory*; returns the prefix."""
        os.makedirs(directory, exist_ok=True)
        prefix = os.path.join(directory, self.name)
        with open(prefix + ".text", "wb") as handle:
            handle.write(self._text_payload())
        for record in self.threads:
            with open("%s.%d.reg" % (prefix, record.tid), "w") as handle:
                json.dump(record.to_json(), handle)
        with open(prefix + ".sel", "w") as handle:
            json.dump([record.to_json() for record in self.syscalls], handle)
        with open(prefix + ".race", "w") as handle:
            json.dump([[s.tid, s.quantum] for s in self.schedule], handle)
        with open(prefix + ".result", "w") as handle:
            json.dump(self._result_dict(), handle)
        return prefix

    @classmethod
    def load(cls, directory: str, name: str) -> "Pinball":
        """Load a pinball previously written by :meth:`save`."""
        prefix = os.path.join(directory, name)
        with open(prefix + ".result") as handle:
            meta = json.load(handle)
        with open(prefix + ".text", "rb") as handle:
            pages = cls._decode_text(handle.read())
        threads = []
        for tid in meta["tids"]:
            with open("%s.%d.reg" % (prefix, tid)) as handle:
                threads.append(ThreadRecord.from_json(json.load(handle)))
        with open(prefix + ".sel") as handle:
            syscalls = [SyscallRecord.from_json(item) for item in json.load(handle)]
        with open(prefix + ".race") as handle:
            schedule = [intern_slice(tid, quantum)
                        for tid, quantum in json.load(handle)]
        return cls._from_parts(meta, pages, threads, syscalls, schedule)

    def save_bytes(self) -> bytes:
        """Serialize the whole pinball into one ``bytes`` blob.

        The blob packs the same five file payloads :meth:`save` writes
        (result metadata, per-thread registers, syscall side-effects,
        schedule, memory image) into a single container, so pinballs can
        travel through in-memory channels — the farm artifact store,
        sockets, message queues — without touching a directory.
        """
        meta = {
            "result": self._result_dict(),
            "threads": [record.to_json() for record in self.threads],
            "syscalls": [record.to_json() for record in self.syscalls],
            "schedule": [[s.tid, s.quantum] for s in self.schedule],
        }
        meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        return b"".join([
            _BYTES_MAGIC,
            struct.pack("<Q", len(meta_blob)),
            meta_blob,
            self._text_payload(),
        ])

    @classmethod
    def load_bytes(cls, data: bytes) -> "Pinball":
        """Reconstruct a pinball from a :meth:`save_bytes` blob."""
        if data[:8] != _BYTES_MAGIC:
            raise ValueError("bad pinball byte-container magic")
        (meta_len,) = struct.unpack("<Q", data[8:16])
        meta = json.loads(data[16:16 + meta_len].decode("utf-8"))
        pages = cls._decode_text(data[16 + meta_len:])
        return cls._from_parts(
            meta["result"],
            pages,
            [ThreadRecord.from_json(item) for item in meta["threads"]],
            [SyscallRecord.from_json(item) for item in meta["syscalls"]],
            [intern_slice(tid, quantum) for tid, quantum in meta["schedule"]],
        )
