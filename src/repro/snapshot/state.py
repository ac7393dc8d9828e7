"""Whole-machine snapshots: capture, restore, digest.

A :class:`MachineSnapshot` is the simulator's analog of an ELFie taken
of *itself*: the full page-level address space plus JSON-serializable
state slices: ``machine`` (threads, scheduler, CPU timing state) and
``kernel``, saved by :mod:`repro.machine.snapshot`, and one slice per
``Tool.SNAPSHOT_SLICE`` (``pinplay``, ``observe``) holding the cursors
the attached tools save (``Tool.save_state``).
Captured at any quantum boundary — a ``Machine.run`` that returned
``kind == "stopped"`` — and restored onto a fresh machine that continues
bit-identically: same instruction stream, same schedule (the jitter
RNG's Mersenne state travels along), same syscall results, same digests.

Pages are kept separate from the JSON state so the content-addressed
store codec (:mod:`repro.farm.codec`) can dedupe them through the block
pool: two snapshots of the same run share every unchanged page block,
which is what makes incremental checkpointing cheap.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SHIFT
from repro.machine.snapshot import (
    restore_kernel,
    restore_machine,
    save_kernel,
    save_machine,
)
from repro.machine.tool import Tool

#: The snapshot state layout's version, bumped by every layout change:
#: a snapshot of another version is refused.  v2 dropped observer state
#: (CPU telemetry counters, the kernel's syscall trace and last effects).
FORMAT_VERSION = 2


@dataclass
class MachineSnapshot:
    """One suspended machine, ready to travel."""

    #: page base address -> (protection bits, page bytes)
    pages: Dict[int, Tuple[int, bytes]]
    #: slice name -> that slice's JSON-serializable state
    state: Dict[str, dict]
    #: caller-owned progress (e.g. a preempted job's loop state)
    extra: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION

    def memory_bytes(self) -> int:
        return sum(len(data) for _, data in self.pages.values())

    def state_bytes(self) -> bytes:
        """Canonical encoding of the non-page state (the codec's rest
        blob): sorted-keys JSON, so equal states hash equally."""
        payload = {"version": self.version, "state": self.state,
                   "extra": self.extra}
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_state_bytes(cls, pages: Dict[int, Tuple[int, bytes]],
                         blob: bytes) -> "MachineSnapshot":
        """Inverse of :meth:`state_bytes`; ValueError for a blob of
        another format version."""
        payload = json.loads(blob.decode("utf-8"))
        _check_version(payload["version"])
        return cls(pages=pages, state=payload["state"],
                   extra=payload["extra"], version=payload["version"])


def _check_version(version: int) -> None:
    if version != FORMAT_VERSION:
        raise ValueError("snapshot format v%d not supported (expected v%d)"
                         % (version, FORMAT_VERSION))


def capture(machine: Machine, extra: Optional[dict] = None) -> MachineSnapshot:
    """Snapshot *machine* at a quantum boundary.

    The machine must be suspended, not finished: a run that returned
    ``kind == "stopped"`` leaves ``exit_status`` None, which is the
    resumable state.  A tool slice appears only if an attached tool
    saves state into it.
    """
    if machine.exit_status is not None:
        raise ValueError(
            "machine has exited (%s); only a stopped machine is resumable"
            % machine.exit_status.kind)
    pages = machine.mem.snapshot()
    perms = machine.mem.snapshot_perms()
    state: Dict[str, dict] = {"machine": save_machine(machine),
                              "kernel": save_kernel(machine.kernel)}
    for tool in machine.tools:
        piece = tool.save_state()
        if piece is not None:
            tool_slice = state.setdefault(tool.SNAPSHOT_SLICE, {"tools": []})
            tool_slice["tools"].append([type(tool).__name__, piece])
    return MachineSnapshot(
        pages={page << PAGE_SHIFT: (perms[page], bytes(data))
               for page, data in pages.items()},
        state=state,
        extra=dict(extra or {}),
    )


def restore(snapshot: MachineSnapshot,
            tools: Sequence[Tool] = ()) -> Machine:
    """Rebuild a machine from *snapshot*, bit-identical to the captured
    one.

    Two-phase: the machine and kernel state are restored onto the bare
    machine first; then the caller's freshly constructed *tools* are
    attached and refilled with their saved cursors.  A saved record
    goes to the attached tool of its class in the same position among
    that class's tools (the nth record of a class to the nth instance);
    records without such a tool are dropped.  The decode/superblock
    caches are rebuilt lazily from the restored code pages — dropping
    them is safe because they are a pure function of mapped bytes.
    """
    _check_version(snapshot.version)
    core = snapshot.state["machine"]
    scheduler_state = core["scheduler"]
    machine = Machine(seed=scheduler_state["seed"],
                      base_quantum=scheduler_state["base_quantum"])
    for addr in sorted(snapshot.pages):
        prot, data = snapshot.pages[addr]
        machine.mem.map(addr, len(data), prot, data=bytes(data))
    restore_machine(machine, core)
    restore_kernel(machine.kernel, snapshot.state["kernel"])
    for tool in tools:
        machine.attach(tool)
    attached: Dict[str, list] = {}
    for tool in machine.tools:
        attached.setdefault(type(tool).__name__, []).append(tool)
    for name, piece in snapshot.state.items():
        if name in ("machine", "kernel"):
            continue
        for class_name, tool_state in piece["tools"]:
            pool = attached.get(class_name)
            if pool:
                pool.pop(0).restore_state(tool_state)
    # A cursor may change wants_instructions; resync the dispatch path.
    machine._rebuild_tool_lists()
    return machine


def snapshot_digest(snapshot: MachineSnapshot) -> str:
    """sha256 over the canonical snapshot encoding.

    Two snapshots digest equally iff they describe the same machine:
    page image (address, protection, contents in address order) plus the
    canonical state blob.  This is the bit-identity witness the tests
    and ``snapshot info`` use.
    """
    digest = hashlib.sha256()
    for addr in sorted(snapshot.pages):
        prot, data = snapshot.pages[addr]
        digest.update(struct.pack("<QI", addr, prot))
        digest.update(data)
    digest.update(snapshot.state_bytes())
    return digest.hexdigest()


def snapshot_info(snapshot: MachineSnapshot) -> dict:
    """Human-facing summary (the ``snapshot info`` CLI payload)."""
    core = snapshot.state["machine"]
    threads = core["threads"]
    return {
        "version": snapshot.version,
        "digest": snapshot_digest(snapshot),
        "pages": len(snapshot.pages),
        "memory_bytes": snapshot.memory_bytes(),
        "state_bytes": len(snapshot.state_bytes()),
        "executed_total": core["executed_total"],
        "threads": [{"tid": record["tid"], "alive": record["alive"],
                     "blocked": record["blocked"],
                     "icount": record["icount"]}
                    for record in threads],
        "plugins": sorted(snapshot.state),
        "extra_keys": sorted(snapshot.extra),
    }
