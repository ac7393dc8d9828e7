"""Snapshot save/restore of the machine core and the kernel.

:func:`repro.snapshot.capture` and :func:`repro.snapshot.restore` call
these for the ``machine`` and ``kernel`` slices of a snapshot.  The
``machine`` slice holds everything the run loop needs to continue
bit-identically: thread contexts (GPRs/RFLAGS/FS-GS/XSAVE,
PMU traps, icount limits), the scheduler (including the jitter RNG's
Mersenne state and any replay log position), and the CPU's *timing*
state — the hardware cache-model sets.  Observer state is not machine
state and is not captured: the block-cache and compiled-tier telemetry
counters restart at zero on the restored machine.
The decode and superblock caches themselves are deliberately dropped:
they are a pure function of mapped code bytes and are rebuilt on demand,
so restoring them would only risk staleness (superblock-cache-safe by
construction).  Compiled functions are not machine state at all: they
live in the process-wide shape cache (``compile.COMPILER``).

The ``kernel`` slice holds OS state: the break, the futex wait queues,
the in-memory filesystem, and the descriptor table — preserving
``dup``-shared open-file identity and descriptors onto unlinked inodes.
A syscall's ``last_effects`` is not captured: every dispatch resets it.

Both slices have one layout, restored without defaults; a change to
either bumps ``repro.snapshot.state.FORMAT_VERSION``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.isa.registers import RegisterFile
from repro.machine.cpu import NO_TRAP
from repro.machine.kernel import Listener, ShmSegment
from repro.machine.scheduler import intern_slice, intern_slices
from repro.machine.vfs import Channel, OpenFile, _Inode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.kernel import Kernel
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


def save_machine(machine: "Machine") -> dict:
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
        "cpu": {"hw_l1": list(cpu.hw_l1), "hw_llc": list(cpu.hw_llc)},
    }


def restore_machine(machine: "Machine", state: dict) -> None:
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
        thread.sigmask = record["sigmask"]
        thread.pending = record["pending"]
        thread.wait_channel = record["wait_channel"]
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
        scheduler._replay_log = intern_slices(sched_state["replay_log"])
    scheduler._replay_pos = sched_state["replay_pos"]
    pending = sched_state["replay_pending"]
    scheduler._replay_pending = (
        None if pending is None else intern_slice(*pending))
    scheduler.record = sched_state["record"]
    scheduler.trace = intern_slices(sched_state["trace"])
    scheduler._pending_resumable = sched_state["pending_resumable"]

    cpu_state = state["cpu"]
    machine.cpu.hw_l1 = list(cpu_state["hw_l1"])
    machine.cpu.hw_llc = list(cpu_state["hw_llc"])


def save_kernel(kernel: "Kernel") -> dict:
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
        "channels": [dict(chan.to_json(), cid=cid)
                     for cid, chan in sorted(kernel.channels.items())],
        "next_channel_id": kernel._next_channel_id,
        "channel_waiters": [[cid, list(tids)] for cid, tids
                            in sorted(kernel._channel_waiters.items())],
        "listeners": [dict(listener.to_json(), port=port) for port, listener
                      in sorted(kernel._listeners.items())],
        "shm_segments": [dict(seg.to_json(), shmid=shmid) for shmid, seg
                         in sorted(kernel.shm_segments.items())],
        "next_shmid": kernel._next_shmid,
    }


def restore_kernel(kernel: "Kernel", state: dict) -> None:
    fdt = kernel.fdt
    kernel.pid = state["pid"]
    kernel.set_brk(state["brk_start"], state["brk_end"])
    kernel._futex_waiters = {addr: list(tids)
                             for addr, tids in state["futex_waiters"]}
    kernel.sigactions = {sig: (handler, mask) for sig, handler, mask
                         in state["sigactions"]}
    kernel.process_pending = state["process_pending"]
    kernel.channels = {
        record["cid"]: Channel.from_json(record["cid"], record)
        for record in state["channels"]}
    kernel._next_channel_id = state["next_channel_id"]
    kernel._channel_waiters = {cid: list(tids) for cid, tids
                               in state["channel_waiters"]}
    kernel._listeners = {
        record["port"]: Listener.from_json(record["port"], record)
        for record in state["listeners"]}
    kernel.shm_segments = {
        record["shmid"]: ShmSegment.from_json(record["shmid"], record)
        for record in state["shm_segments"]}
    kernel._next_shmid = state["next_shmid"]
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
        read_cid = record["read_cid"]
        write_cid = record["write_cid"]
        file_objects.append(OpenFile(
            path=record["path"], flags=record["flags"],
            offset=record["offset"], inode=inode,
            is_console=record["is_console"],
            kind=record["kind"],
            read_ch=(kernel.channels[read_cid]
                     if read_cid is not None else None),
            write_ch=(kernel.channels[write_cid]
                      if write_cid is not None else None),
            bound_port=record["bound_port"]))
    fdt._fds.clear()
    # Direct assignment: channel reader/writer counts were captured
    # with the channel records and must not be re-accounted.
    for fd, index in state["fds"]:
        fdt._fds[fd] = file_objects[index]
    fdt.stdin = bytearray(bytes.fromhex(state["stdin"]))
    fdt.stdout = bytearray(bytes.fromhex(state["stdout"]))
    fdt.stderr = bytearray(bytes.fromhex(state["stderr"]))

