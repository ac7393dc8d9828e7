"""Snapshot save/restore hooks for the machine core and the kernel.

Registered with :mod:`repro.snapshot.plugins` when :mod:`repro.snapshot`
is imported.  The ``machine`` plugin owns everything the run loop needs
to continue bit-identically: thread contexts (GPRs/RFLAGS/FS-GS/XSAVE,
PMU traps, icount limits), the scheduler (including the jitter RNG's
Mersenne state and any replay log position), and the CPU's *timing*
state — the hardware cache-model sets and superblock-cache counters.
The decode and superblock caches themselves are deliberately dropped:
they are a pure function of mapped code bytes and are rebuilt on demand,
so restoring them would only risk staleness (superblock-cache-safe by
construction).  Compiled functions are not machine state at all: they
live in the process-wide shape cache (``compile.COMPILER``).

The ``kernel`` plugin owns OS state: the break, the futex wait queues,
the in-memory filesystem, and the descriptor table — preserving
``dup``-shared open-file identity and descriptors onto unlinked inodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.isa.registers import RegisterFile
from repro.machine.cpu import NO_TRAP
from repro.machine.kernel import Listener, ShmSegment
from repro.machine.scheduler import ScheduleSlice
from repro.machine.vfs import Channel, OpenFile, _Inode
from repro.snapshot.plugins import SnapshotPlugin, register_plugin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import Machine, Thread


def _encode_limit(value: int) -> Optional[int]:
    """NO_TRAP is sys.maxsize — encode the sentinel portably as null."""
    return None if value == NO_TRAP else value


def _decode_limit(value: Optional[int]) -> int:
    return NO_TRAP if value is None else int(value)


def _encode_thread(thread: "Thread") -> dict:
    return {
        "tid": thread.tid,
        "regs": thread.regs.to_dict(),
        "alive": thread.alive,
        "blocked": thread.blocked,
        "futex_addr": thread.futex_addr,
        "exit_code": thread.exit_code,
        "icount": thread.icount,
        "cycles": thread.cycles,
        "llc_misses": thread.llc_misses,
        "branches": thread.branches,
        "spin_pauses": thread.spin_pauses,
        "pmu_trap_at": _encode_limit(thread.pmu_trap_at),
        "pmu_handler": thread.pmu_handler,
        "icount_limit": _encode_limit(thread.icount_limit),
        "new_block": thread.new_block,
        "sigmask": thread.sigmask,
        "pending": thread.pending,
        "wait_channel": thread.wait_channel,
    }


def _slices(entries) -> list:
    return [[entry.tid, entry.quantum] for entry in entries]


def _unslices(entries) -> list:
    return [ScheduleSlice(tid=tid, quantum=quantum) for tid, quantum in entries]


class MachineSnapshotPlugin(SnapshotPlugin):
    name = "machine"

    def save(self, machine: "Machine") -> dict:
        scheduler = machine.scheduler
        rng_state = scheduler._rng.getstate()
        cpu = machine.cpu
        return {
            "next_tid": machine._next_tid,
            "executed_total": machine.executed_total,
            "threads": [_encode_thread(machine.threads[tid])
                        for tid in sorted(machine.threads)],
            "scheduler": {
                "seed": scheduler.seed,
                "base_quantum": scheduler.base_quantum,
                "jitter": scheduler.jitter,
                "rng": [rng_state[0], list(rng_state[1]), rng_state[2]],
                "next_index": scheduler._next_index,
                "replay_log": (None if scheduler._replay_log is None
                               else _slices(scheduler._replay_log)),
                "replay_pos": scheduler._replay_pos,
                "replay_pending": (
                    None if scheduler._replay_pending is None
                    else [scheduler._replay_pending.tid,
                          scheduler._replay_pending.quantum]),
                "record": scheduler.record,
                "trace": _slices(scheduler.trace),
                "pending_resumable": scheduler._pending_resumable,
            },
            "cpu": {
                "hw_l1": list(cpu.hw_l1),
                "hw_llc": list(cpu.hw_llc),
                "block_hits": cpu.block_hits,
                "block_misses": cpu.block_misses,
                "block_invalidations": cpu.block_invalidations,
                "block_evictions": cpu.block_evictions,
                "compiled_blocks": cpu.compiled_blocks,
                "compiled_calls": cpu.compiled_calls,
                "compiled_bailouts": cpu.compiled_bailouts,
                "reported_hits": cpu._reported_hits,
                "reported_misses": cpu._reported_misses,
                "reported_invalidations": cpu._reported_invalidations,
                "reported_evictions": cpu._reported_evictions,
                "reported_compiled_blocks": cpu._reported_compiled_blocks,
                "reported_compiled_calls": cpu._reported_compiled_calls,
                "reported_compiled_bailouts": cpu._reported_compiled_bailouts,
            },
        }

    def restore(self, machine: "Machine", state: dict) -> None:
        for record in state["threads"]:
            thread = machine.create_thread(
                regs=RegisterFile.from_dict(record["regs"]),
                tid=record["tid"])
            thread.alive = record["alive"]
            thread.blocked = record["blocked"]
            thread.futex_addr = record["futex_addr"]
            thread.exit_code = record["exit_code"]
            thread.icount = record["icount"]
            thread.cycles = record["cycles"]
            thread.llc_misses = record["llc_misses"]
            thread.branches = record["branches"]
            thread.spin_pauses = record["spin_pauses"]
            thread.pmu_trap_at = _decode_limit(record["pmu_trap_at"])
            thread.pmu_handler = record["pmu_handler"]
            thread.icount_limit = _decode_limit(record["icount_limit"])
            thread.new_block = record["new_block"]
            thread.sigmask = record.get("sigmask", 0)
            thread.pending = record.get("pending", 0)
            thread.wait_channel = record.get("wait_channel")
        machine._next_tid = state["next_tid"]
        machine.executed_total = state["executed_total"]

        sched_state = state["scheduler"]
        scheduler = machine.scheduler
        scheduler.seed = sched_state["seed"]
        scheduler.base_quantum = sched_state["base_quantum"]
        scheduler.jitter = sched_state["jitter"]
        rng = sched_state["rng"]
        scheduler._rng.setstate((rng[0], tuple(rng[1]), rng[2]))
        scheduler._next_index = sched_state["next_index"]
        if sched_state["replay_log"] is not None:
            scheduler._replay_log = _unslices(sched_state["replay_log"])
        scheduler._replay_pos = sched_state["replay_pos"]
        pending = sched_state["replay_pending"]
        scheduler._replay_pending = (
            None if pending is None
            else ScheduleSlice(tid=pending[0], quantum=pending[1]))
        scheduler.record = sched_state["record"]
        scheduler.trace = _unslices(sched_state["trace"])
        scheduler._pending_resumable = sched_state.get(
            "pending_resumable", False)

        cpu_state = state["cpu"]
        cpu = machine.cpu
        cpu.hw_l1 = list(cpu_state["hw_l1"])
        cpu.hw_llc = list(cpu_state["hw_llc"])
        cpu.block_hits = cpu_state["block_hits"]
        cpu.block_misses = cpu_state["block_misses"]
        cpu.block_invalidations = cpu_state["block_invalidations"]
        cpu._reported_hits = cpu_state["reported_hits"]
        cpu._reported_misses = cpu_state["reported_misses"]
        cpu._reported_invalidations = cpu_state["reported_invalidations"]
        # Eviction/compilation counters post-date some snapshots, and
        # older ones also carry chain_hits/reported_chain_hits from a
        # since-removed dispatch tier, which are ignored.  The caches
        # themselves (blocks, compiled functions) are derived state —
        # never captured, rebuilt lazily on demand.
        cpu.block_evictions = cpu_state.get("block_evictions", 0)
        cpu.compiled_blocks = cpu_state.get("compiled_blocks", 0)
        cpu.compiled_calls = cpu_state.get("compiled_calls", 0)
        cpu.compiled_bailouts = cpu_state.get("compiled_bailouts", 0)
        cpu._reported_evictions = cpu_state.get("reported_evictions", 0)
        cpu._reported_compiled_blocks = cpu_state.get(
            "reported_compiled_blocks", 0)
        cpu._reported_compiled_calls = cpu_state.get(
            "reported_compiled_calls", 0)
        cpu._reported_compiled_bailouts = cpu_state.get(
            "reported_compiled_bailouts", 0)


class KernelSnapshotPlugin(SnapshotPlugin):
    name = "kernel"

    def save(self, machine: "Machine") -> dict:
        kernel = machine.kernel
        fdt = kernel.fdt
        # Inode table first: identity matters because open descriptors
        # share inode objects with the filesystem (and with each other),
        # and an unlinked file may live on only through a descriptor.
        inodes = []
        inode_index = {}
        for path in sorted(kernel.fs._inodes):
            inode = kernel.fs._inodes[path]
            inode_index[id(inode)] = len(inodes)
            inodes.append({"path": path, "data": bytes(inode.data).hex()})
        files = []
        file_index = {}
        fds = []
        for fd in sorted(fdt._fds):
            open_file = fdt._fds[fd]
            index = file_index.get(id(open_file))
            if index is None:
                inode_ref = None
                if open_file.inode is not None:
                    inode_ref = inode_index.get(id(open_file.inode))
                    if inode_ref is None:  # unlinked but still open
                        inode_ref = len(inodes)
                        inode_index[id(open_file.inode)] = inode_ref
                        inodes.append({
                            "path": None,
                            "data": bytes(open_file.inode.data).hex()})
                index = len(files)
                file_index[id(open_file)] = index
                files.append({
                    "path": open_file.path,
                    "flags": open_file.flags,
                    "offset": open_file.offset,
                    "is_console": open_file.is_console,
                    "inode": inode_ref,
                    "kind": open_file.kind,
                    "read_cid": (open_file.read_ch.cid
                                 if open_file.read_ch else None),
                    "write_cid": (open_file.write_ch.cid
                                  if open_file.write_ch else None),
                    "bound_port": open_file.bound_port,
                })
            fds.append([fd, index])
        return {
            "pid": kernel.pid,
            "brk_start": kernel.brk_start,
            "brk_end": kernel.brk_end,
            "trace": list(kernel.trace),
            "last_effects": [[addr, data.hex()]
                             for addr, data in kernel.last_effects],
            "futex_waiters": [[addr, list(tids)] for addr, tids
                              in sorted(kernel._futex_waiters.items())],
            "root": fdt.root,
            "inodes": inodes,
            "files": files,
            "fds": fds,
            "stdin": bytes(fdt.stdin).hex(),
            "stdout": bytes(fdt.stdout).hex(),
            "stderr": bytes(fdt.stderr).hex(),
            "sigactions": [[sig, handler, mask] for sig, (handler, mask)
                           in sorted(kernel.sigactions.items())],
            "process_pending": kernel.process_pending,
            "channels": [{
                "cid": chan.cid,
                "capacity": chan.capacity,
                "data": bytes(chan.data).hex(),
                "readers": chan.readers,
                "writers": chan.writers,
            } for cid, chan in sorted(kernel.channels.items())],
            "next_channel_id": kernel._next_channel_id,
            "channel_waiters": [[cid, list(tids)] for cid, tids
                                in sorted(kernel._channel_waiters.items())],
            "listeners": [{
                "port": listener.port,
                "backlog": listener.backlog,
                "queue": [[rc, wc] for rc, wc in listener.queue],
                "wait_cid": listener.wait_cid,
            } for port, listener in sorted(kernel._listeners.items())],
            "shm_segments": [{
                "shmid": seg.shmid,
                "key": seg.key,
                "size": seg.size,
                "data": bytes(seg.data).hex(),
                "attached_at": seg.attached_at,
                "attached_len": seg.attached_len,
            } for shmid, seg in sorted(kernel.shm_segments.items())],
            "next_shmid": kernel._next_shmid,
        }

    def restore(self, machine: "Machine", state: dict) -> None:
        kernel = machine.kernel
        fdt = kernel.fdt
        kernel.pid = state["pid"]
        kernel.set_brk(state["brk_start"], state["brk_end"])
        kernel.trace = list(state["trace"])
        kernel.last_effects = [(addr, bytes.fromhex(data))
                               for addr, data in state["last_effects"]]
        kernel._futex_waiters = {addr: list(tids)
                                 for addr, tids in state["futex_waiters"]}
        kernel.sigactions = {sig: (handler, mask) for sig, handler, mask
                             in state.get("sigactions", [])}
        kernel.process_pending = state.get("process_pending", 0)
        kernel.channels = {}
        for record in state.get("channels", []):
            kernel.channels[record["cid"]] = Channel(
                cid=record["cid"], capacity=record["capacity"],
                data=bytearray(bytes.fromhex(record["data"])),
                readers=record["readers"], writers=record["writers"])
        kernel._next_channel_id = state.get("next_channel_id", 1)
        kernel._channel_waiters = {cid: list(tids) for cid, tids
                                   in state.get("channel_waiters", [])}
        kernel._listeners = {}
        for record in state.get("listeners", []):
            kernel._listeners[record["port"]] = Listener(
                port=record["port"], backlog=record["backlog"],
                queue=[(rc, wc) for rc, wc in record["queue"]],
                wait_cid=record["wait_cid"])
        kernel.shm_segments = {}
        for record in state.get("shm_segments", []):
            kernel.shm_segments[record["shmid"]] = ShmSegment(
                shmid=record["shmid"], key=record["key"],
                size=record["size"],
                data=bytearray(bytes.fromhex(record["data"])),
                attached_at=record["attached_at"],
                attached_len=record["attached_len"])
        kernel._next_shmid = state.get("next_shmid", 1)
        kernel.fs._inodes.clear()
        inode_objects = []
        for record in state["inodes"]:
            inode = _Inode(bytearray(bytes.fromhex(record["data"])))
            if record["path"] is not None:
                kernel.fs._inodes[record["path"]] = inode
            inode_objects.append(inode)
        fdt.root = state["root"]
        file_objects = []
        for record in state["files"]:
            inode = (inode_objects[record["inode"]]
                     if record["inode"] is not None else None)
            read_cid = record.get("read_cid")
            write_cid = record.get("write_cid")
            file_objects.append(OpenFile(
                path=record["path"], flags=record["flags"],
                offset=record["offset"], inode=inode,
                is_console=record["is_console"],
                kind=record.get("kind", "file"),
                read_ch=(kernel.channels[read_cid]
                         if read_cid is not None else None),
                write_ch=(kernel.channels[write_cid]
                          if write_cid is not None else None),
                bound_port=record.get("bound_port")))
        fdt._fds.clear()
        # Direct assignment: channel reader/writer counts were captured
        # with the channel records and must not be re-accounted.
        for fd, index in state["fds"]:
            fdt._fds[fd] = file_objects[index]
        fdt.stdin = bytearray(bytes.fromhex(state["stdin"]))
        fdt.stdout = bytearray(bytes.fromhex(state["stdout"]))
        fdt.stderr = bytearray(bytes.fromhex(state["stderr"]))


register_plugin(MachineSnapshotPlugin())
register_plugin(KernelSnapshotPlugin())
