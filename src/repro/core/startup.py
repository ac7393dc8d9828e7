"""ELFie startup-code generation (paper §II-B3/4, Figs. 5-7).

The startup code is real PX assembly, executed by the ELFie before any
application code:

1. **Stack remap** (Fig. 5): immediately switch off the loader-provided
   stack onto a scratch stack, ``mmap`` the parent pinball's stack range
   (whose sections are non-allocatable in the ELF, so the loader never
   mapped them), and copy in the captured stack's non-zero span (first
   to last non-zero word) from an allocatable staging area; the fresh
   mapping is zero-filled, so this restores every captured byte.
2. **Sysstate restore** (§II-C2): ``prctl(PR_SET_MM)`` the heap break
   back to the captured layout and pre-open every ``FD_n`` proxy file,
   ``dup2``-ing it onto the original descriptor number.
3. **Callbacks**: optional ``elfie_on_start`` before anything else runs
   application code.
4. **Thread creation** (Fig. 6): a clone loop starts one thread per
   captured thread; each runs its per-thread init function: optional
   ``elfie_on_thread_start`` (on a private callback stack), ``XRSTOR``
   of the extended state, restore of FS/GS bases and RFLAGS, fifteen
   ``pop``s for the GPRs, the optional ROI marker, then a
   register-free ``mov rsp, <captured rsp>; jmpabs <captured rip>``
   into the application code.

The generator reports, per thread, how many instructions execute between
the graceful-exit counter arming and the jump into application code, so
``pinball2elf`` can adjust the counter threshold to stop the ELFie at
exactly the captured region length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.assembler import Assembler
from repro.isa.registers import GPR_NAMES, RegisterFile, XSAVE_AREA_SIZE
from repro.machine.memory import PAGE_SIZE
from repro.core.callbacks import (
    PERFLE_CALLBACK_TAIL,
    default_on_exit_source,
    default_on_start_source,
    monitor_data_source,
    monitor_source,
    perfle_exit_handler_source,
    perfle_thread_start_source,
    print_data_source,
    print_u64_source,
)
from repro.core.markers import MarkerSpec
from repro.pinplay.pinball import Pinball
from repro.pinplay.sysstate import SysState

#: GPR restore order (hardware indices): rax rcx rdx rbx rbp rsi rdi
#: r8..r15 — everything except rsp, which the thread-entry stub sets.
POP_ORDER: Tuple[int, ...] = (0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)

#: Context block layout (one per thread, in the startup data area):
#: [xsave area][fs][gs][rflags][15 GPRs in POP_ORDER], padded to 320.
CTX_POP_OFFSET = XSAVE_AREA_SIZE
CTX_SIZE = 320

#: Callback scratch-stack bytes per thread.
CALLBACK_STACK_BYTES = 2048

PR_SET_MM = 35
PR_SET_MM_START_BRK = 6
PR_SET_MM_BRK = 7


def _nonzero_span(data: bytes) -> Tuple[int, bytes]:
    """Byte offset and bytes of *data*'s 8-byte words from the first
    non-zero word to the last; ``(0, b"")`` when every byte is zero.
    *data*'s length must be a multiple of 8."""
    end = len(data.rstrip(b"\x00"))
    if not end:
        return 0, b""
    start = (len(data) - len(data.lstrip(b"\x00"))) & ~7
    return start, data[start:(end + 7) & ~7]


def _copy_loop(label: str, src: str, dst: str, words: int,
               offset: int = 0) -> str:
    """Loop copying *words* quads from label *src* to *offset* bytes past
    *dst* (an address or a register); empty when there is nothing to
    copy."""
    if not words:
        return ""
    add = f"\n    add rdi, {offset}" if offset else ""
    return f"""
    mov rsi, {src}
    mov rdi, {dst}{add}
    mov rcx, {words}
{label}:
    ld rbx, [rsi]
    st [rdi], rbx
    add rsi, 8
    add rdi, 8
    sub rcx, 1
    cmp rcx, 0
    jnz {label}
"""


def _mask_bits(mask: int) -> List[int]:
    """Signal numbers present in a pending/blocked bitmask."""
    return [bit + 1 for bit in range(64) if (mask >> bit) & 1]


def pack_context(regs: RegisterFile) -> bytes:
    """Serialize one thread's context block (without rsp/rip)."""
    parts = [regs.xsave_bytes()]
    parts.append(struct.pack("<Q", regs.fs_base))
    parts.append(struct.pack("<Q", regs.gs_base))
    parts.append(struct.pack("<Q", regs.flags.to_word()))
    for index in POP_ORDER:
        parts.append(struct.pack("<Q", regs.gpr[index]))
    blob = b"".join(parts)
    return blob + b"\x00" * (CTX_SIZE - len(blob))


@dataclass
class StartupPlan:
    """What the generator decided, for symbols and threshold math."""

    #: Instructions retired by thread i between the return of
    #: elfie_on_thread_start and the jmpabs into application code
    #: (inclusive of the jmpabs).
    tail_instructions: Dict[int, int] = field(default_factory=dict)
    #: Labels whose addresses become ELF symbols after assembly.
    symbol_labels: List[str] = field(default_factory=list)
    #: (symbol name, context label, byte offset) records for .tN.* syms.
    context_symbols: List[Tuple[str, str, int]] = field(default_factory=list)


class StartupGenerator:
    """Emits the full startup blob into an :class:`Assembler`."""

    def __init__(self, pinball: Pinball,
                 marker: Optional[MarkerSpec] = None,
                 perf_exit: bool = False,
                 perf_exit_slack: float = 1.0,
                 with_monitor: bool = False,
                 sysstate: Optional[SysState] = None,
                 user_code: Optional[str] = None,
                 user_defines: Tuple[str, ...] = (),
                 remap_stack: bool = True) -> None:
        self.remap_stack = remap_stack
        self.pinball = pinball
        self.marker = marker
        self.perf_exit = perf_exit
        self.perf_exit_slack = perf_exit_slack
        self.with_monitor = with_monitor
        self.sysstate = sysstate
        self.user_code = user_code
        self.user_defines = set(user_defines)
        self.plan = StartupPlan()

    # -- helpers -----------------------------------------------------------

    def _stack_runs(self) -> List[Tuple[int, int, int, bytes]]:
        """(start, length, span offset, span bytes) of the pinball's
        stack page runs, with the non-zero span of each run's captured
        bytes (empty when the stack was not captured — lazy pinballs —
        or when the stack-collision fix is disabled)."""
        if not self.remap_stack:
            return []
        stack = self.pinball.try_stack_range()
        if stack is None:
            return []
        start, end = stack
        pages = self.pinball.pages
        captured = b"".join(pages[addr][1]
                            for addr in range(start, end, PAGE_SIZE))
        return [(start, end - start, *_nonzero_span(captured))]

    def _thread_records(self):
        return sorted(self.pinball.threads, key=lambda r: r.tid)

    def _has_signal_state(self) -> bool:
        return bool(self.pinball.sigactions or self.pinball.process_pending
                    or any(r.sigmask or r.pending
                           for r in self.pinball.threads))

    # -- kernel IPC restore plans ------------------------------------------

    def _shm_plan(self) -> List[Tuple[int, Optional[dict]]]:
        """(shmid, segment-or-None) rows covering every id up to the
        captured next_shmid.  Gap ids are burned with a create+RMID pair
        so real segments land on their captured ids (shmget hands out
        sequential ids)."""
        segments = self.pinball.shm_segments
        if not segments and self.pinball.next_shmid <= 1:
            return []
        limit = max(max(segments, default=0), self.pinball.next_shmid - 1)
        return [(shmid, segments.get(shmid))
                for shmid in range(1, limit + 1)]

    def _shm_staging(self, segment: dict) -> Tuple[int, bytes]:
        """Offset and bytes of the non-zero span to copy into the
        restored segment (its content, 8-byte padded; shmget zero-fills
        the rest).

        For a segment attached at capture time the live bytes are the
        captured *pages* of the attached range (the ``data`` field is
        only synchronized at shmdt); detached segments carry their
        content in ``data``.
        """
        size = segment["size"]
        attached_at = segment["attached_at"]
        if attached_at is not None:
            pages = self.pinball.pages
            end = attached_at + segment["attached_len"]
            blob = b"".join(
                pages[addr][1] if addr in pages else bytes(PAGE_SIZE)
                for addr in range(attached_at, end, PAGE_SIZE))[:size]
        else:
            blob = bytes.fromhex(segment["data"])[:size]
        return _nonzero_span(blob.ljust((size + 7) & ~7, b"\x00"))

    def _channel_plans(self) -> List[dict]:
        """Restore plans for pipe/socket descriptors open at region
        start, derived from the captured fd table and channel buffers.

        Unaccepted listener-queue connections are not restorable from
        startup code (no descriptor references them) and are dropped;
        an in-region accept() of such a connection is beyond what a
        stand-alone ELFie reproduces.
        """
        records = [r for r in sorted(self.pinball.open_files,
                                     key=lambda r: r.fd)
                   if r.kind in ("pipe", "socket")]
        if not records:
            return []
        chdata = {cid: bytes.fromhex(chan["data"])
                  for cid, chan in self.pinball.channels.items()}
        # one plan per pipe channel, socket pair, listening port and
        # unconnected socket, in first-descriptor order
        plans: Dict[tuple, dict] = {}
        for record in records:
            if record.kind == "pipe":
                cid = (record.read_cid if record.read_cid is not None
                       else record.write_cid)
                plan = plans.setdefault(("pipe", cid), {
                    "type": "pipe", "cid": cid, "read_fds": [],
                    "write_fds": [], "data": chdata[cid]})
                side = "read_fds" if record.read_cid is not None else "write_fds"
                plan[side].append(record.fd)
            elif record.read_cid is not None:  # connected socket end
                key = (min(record.read_cid, record.write_cid),
                       max(record.read_cid, record.write_cid))
                # end0 reads key[0]; end1 reads key[1]
                plan = plans.setdefault(("pair", key), {
                    "type": "pair", "key": key, "end0_fds": [],
                    "end1_fds": [], "data0": chdata[key[0]],
                    "data1": chdata[key[1]]})
                side = "end0_fds" if record.read_cid == key[0] else "end1_fds"
                plan[side].append(record.fd)
            elif record.bound_port is not None:
                port = record.bound_port
                listener = self.pinball.listeners.get(port)
                if listener is None:
                    raise ValueError(
                        "socket fd %d is bound to port %d, which has no "
                        "listener record" % (record.fd, port))
                plans.setdefault(("listener", port), {
                    "type": "listener", "port": port,
                    "backlog": listener["backlog"], "fds": []}
                )["fds"].append(record.fd)
            else:
                plans[("plain_socket", record.fd)] = {
                    "type": "plain_socket", "fds": [record.fd]}
        return list(plans.values())

    # -- emission ------------------------------------------------------------

    def emit(self, asm: Assembler) -> StartupPlan:
        """Emit startup code and data; returns the plan."""
        self._emit_entry(asm)
        self._emit_thread_inits(asm)
        self._emit_callbacks(asm)
        self._emit_data(asm)
        return self.plan

    def _emit_entry(self, asm: Assembler) -> None:
        lines: List[str] = ["_elfie_start:"]
        lines.append("    mov rsp, __elfie_scratch_top")
        # 1. stack remap (Fig. 5): mmap zero-fills, so only the
        # non-zero span of the captured stack is copied in.
        for index, (start, length, offset, staged) in enumerate(
                self._stack_runs()):
            lines.append(f"""
    mov rax, 9                  ; mmap(stack, len, RW, FIXED|PRIV|ANON)
    mov rdi, 0x{start:x}
    mov rsi, {length}
    mov rdx, 3
    mov r10, 0x32
    mov r8, -1
    mov r9, 0
    syscall
""")
            lines.append(_copy_loop(
                f"__elfie_copy_{index}", f"__elfie_staging_{index}",
                f"0x{start + offset:x}", len(staged) // 8))
        # 2. sysstate restore
        if self.sysstate is not None:
            brk_start = self.pinball.brk_start
            first_brk = self.sysstate.first_brk
            lines.append(f"""
    mov rax, 157                ; prctl(PR_SET_MM, START_BRK, ...)
    mov rdi, {PR_SET_MM}
    mov rsi, {PR_SET_MM_START_BRK}
    mov rdx, 0x{brk_start:x}
    syscall
    mov rax, 157                ; prctl(PR_SET_MM, BRK, ...)
    mov rdi, {PR_SET_MM}
    mov rsi, {PR_SET_MM_BRK}
    mov rdx, 0x{first_brk:x}
    syscall
""")
            for index, proxy in enumerate(self.sysstate.fd_files):
                lines.append(f"""
    mov rax, 2                  ; open("{proxy.name}", O_RDONLY)
    mov rdi, __elfie_fdpath_{index}
    mov rsi, 0
    syscall
    mov rdi, rax
    mov rax, 33                 ; dup2(fd, {proxy.restore_fd})
    mov rsi, {proxy.restore_fd}
    syscall
""")
                if proxy.start_offset:
                    lines.append(f"""
    mov rax, 8                  ; lseek(fd, recorded offset, SEEK_SET)
    mov rdi, {proxy.restore_fd}
    mov rsi, {proxy.start_offset}
    mov rdx, 0
    syscall
""")
        # 2a. kernel IPC objects: SysV shm segments, then pipe/socket
        # descriptors — before signal state so a handler that fires
        # right after the application jump sees them.
        self._emit_shm_restore(lines)
        self._emit_channel_restore(lines)
        # 2b. signal state: block everything for the rest of startup
        # (clones inherit the mask), re-install every captured handler,
        # and re-raise the process-wide pending set.  The raised bits
        # sit blocked until each thread init restores its captured mask,
        # so nothing delivers into startup code; delivery happens at the
        # first quantum boundary after the jump into application code —
        # the same boundary the capture stopped in front of.
        if self._has_signal_state():
            lines.append("""
    mov rax, 14                 ; rt_sigprocmask(SETMASK, all, 0)
    mov rdi, 2
    mov rsi, __elfie_sigall
    mov rdx, 0
    syscall
""")
        for index, signum in enumerate(sorted(self.pinball.sigactions)):
            lines.append(f"""
    mov rax, 13                 ; rt_sigaction({signum}, saved, 0)
    mov rdi, {signum}
    mov rsi, __elfie_sigact_{index}
    mov rdx, 0
    syscall
""")
        for signum in _mask_bits(self.pinball.process_pending):
            lines.append(f"""
    mov rax, 39                 ; getpid
    syscall
    mov rdi, rax
    mov rax, 62                 ; kill(pid, {signum}): re-raise pending
    mov rsi, {signum}
    syscall
""")
        # 3. process-level callback
        lines.append("    call elfie_on_start")
        # 4. thread creation
        records = self._thread_records()
        first = 0 if self.with_monitor else 1
        for position in range(first, len(records)):
            lines.append(f"""
    mov rax, 56                 ; clone(CLONE_VM, cbstack, init_{position})
    mov rdi, 0x100
    mov rsi, __elfie_cbstack_{position}_top
    mov rdx, __elfie_thread_init_{position}
    syscall
""")
        if self.with_monitor:
            lines.append("    jmp __elfie_monitor")
        else:
            lines.append("    jmp __elfie_thread_init_0")
        asm.add("\n".join(lines))
        self.plan.symbol_labels.append("_elfie_start")

    def _emit_shm_restore(self, lines: List[str]) -> None:
        """Recreate captured SysV segments on their captured shmids.

        Real segments: shmget lands on the right id because lower ids
        are burned first; content is copied in through an attachment —
        SHM_REMAP for segments that were attached at capture (their
        range is already occupied by ELF sections), a transient attach
        for detached ones.
        """
        for shmid, segment in self._shm_plan():
            if segment is None:
                lines.append(f"""
    mov rax, 29                 ; shmget(IPC_PRIVATE): burn id {shmid}
    mov rdi, 0
    mov rsi, 4096
    mov rdx, 512
    syscall
    mov rdi, rax
    mov rax, 31                 ; shmctl(id, IPC_RMID)
    mov rsi, 0
    mov rdx, 0
    syscall
""")
                continue
            size = segment["size"]
            attached_at = segment["attached_at"]
            lines.append(f"""
    mov rax, 29                 ; shmget(key 0x{segment['key']:x}) -> id {shmid}
    mov rdi, {segment['key']}
    mov rsi, {size}
    mov rdx, 512
    syscall
    mov r12, rax
""")
            if attached_at is not None:
                lines.append(f"""
    mov rax, 30                 ; shmat(id, 0x{attached_at:x}, SHM_REMAP)
    mov rdi, r12
    mov rsi, 0x{attached_at:x}
    mov rdx, 16384
    syscall
    mov r13, rax
""")
            else:
                lines.append(f"""
    mov rax, 30                 ; shmat(id, 0, 0): transient attach
    mov rdi, r12
    mov rsi, 0
    mov rdx, 0
    syscall
    mov r13, rax
""")
            offset, staged = self._shm_staging(segment)
            lines.append(_copy_loop(f"__elfie_shmcopy_{shmid}",
                                    f"__elfie_shm_{shmid}", "r13",
                                    len(staged) // 8, offset))
            if attached_at is None:
                lines.append("""
    mov rax, 67                 ; shmdt: back to detached
    mov rdi, r13
    syscall
""")

    #: High scratch descriptors the channel restore parks endpoints on;
    #: captured descriptor numbers are far below these.
    _SCRATCH_FDS = (1000, 1001)

    def _emit_channel_restore(self, lines: List[str]) -> None:
        """Recreate pipe/socket descriptors on their captured fds.

        Fresh endpoints are parked on high scratch descriptors, the
        buffered bytes are refilled with plain write()s, then dup2 moves
        each endpoint onto every captured descriptor number that shared
        it.  A side with no surviving descriptor is simply closed, which
        reproduces the captured EOF/EPIPE visibility.
        """
        scratch0, scratch1 = self._SCRATCH_FDS
        # pipe() and socketpair() wrote the two new descriptors to
        # __elfie_pipetmp: park end 0 (a pipe's read end) and end 1
        park = "".join(f"""
    mov rcx, __elfie_pipetmp
    ld4 rdi, [rcx{offset}]
    mov rax, 33                 ; park end {end}
    mov rsi, {scratch}
    syscall
    mov rcx, __elfie_pipetmp
    ld4 rdi, [rcx{offset}]
    mov rax, 3
    syscall
""" for end, offset, scratch in ((0, "", scratch0), (1, "+4", scratch1)))
        for plan in self._channel_plans():
            kind = plan["type"]
            if kind == "pipe":
                cid = plan["cid"]
                lines.append(f"""
    mov rax, 22                 ; pipe(tmp) for captured channel {cid}
    mov rdi, __elfie_pipetmp
    syscall
{park}""")
                if plan["data"]:
                    lines.append(f"""
    mov rax, 1                  ; refill {len(plan['data'])} buffered bytes
    mov rdi, {scratch1}
    mov rsi, __elfie_chdata_{cid}
    mov rdx, {len(plan['data'])}
    syscall
""")
                self._emit_fd_placement(lines, scratch0, plan["read_fds"])
                self._emit_fd_placement(lines, scratch1, plan["write_fds"])
            elif kind == "pair":
                key = plan["key"]
                lines.append(f"""
    mov rax, 53                 ; socketpair(AF_UNIX) for channels {key[0]}/{key[1]}
    mov rdi, 1
    mov rsi, 1
    mov rdx, 0
    mov r10, __elfie_pipetmp
    syscall
{park}""")
                # end0 reads key[0]: its inbound bytes are written by
                # the peer (end1), and vice versa.
                if plan["data0"]:
                    lines.append(f"""
    mov rax, 1                  ; refill end-0 inbound bytes
    mov rdi, {scratch1}
    mov rsi, __elfie_chdata_{key[0]}
    mov rdx, {len(plan['data0'])}
    syscall
""")
                if plan["data1"]:
                    lines.append(f"""
    mov rax, 1                  ; refill end-1 inbound bytes
    mov rdi, {scratch0}
    mov rsi, __elfie_chdata_{key[1]}
    mov rdx, {len(plan['data1'])}
    syscall
""")
                self._emit_fd_placement(lines, scratch0, plan["end0_fds"])
                self._emit_fd_placement(lines, scratch1, plan["end1_fds"])
            elif kind == "listener":
                port = plan["port"]
                lines.append(f"""
    mov rax, 41                 ; socket(AF_INET)
    mov rdi, 2
    mov rsi, 1
    mov rdx, 0
    syscall
    mov r12, rax
    mov rax, 49                 ; bind(fd, port {port})
    mov rdi, r12
    mov rsi, __elfie_sockaddr_{port}
    syscall
    mov rax, 50                 ; listen(fd, {plan['backlog']})
    mov rdi, r12
    mov rsi, {plan['backlog']}
    syscall
    mov rdi, r12
    mov rax, 33                 ; park the listener
    mov rsi, {scratch0}
    syscall
    mov rdi, r12
    mov rax, 3
    syscall
""")
                self._emit_fd_placement(lines, scratch0, plan["fds"])
            elif kind == "plain_socket":
                lines.append(f"""
    mov rax, 41                 ; socket(AF_UNIX): unconnected
    mov rdi, 1
    mov rsi, 1
    mov rdx, 0
    syscall
    mov rdi, rax
    mov rax, 33                 ; park it (rdi survives the syscall)
    mov rsi, {scratch0}
    syscall
    mov rax, 3
    syscall
""")
                self._emit_fd_placement(lines, scratch0, plan["fds"])

    def _emit_fd_placement(self, lines: List[str], scratch: int,
                           targets: List[int]) -> None:
        """dup2 a parked endpoint onto its captured fds, then drop it."""
        for target in targets:
            lines.append(f"""
    mov rax, 33                 ; dup2(scratch, {target})
    mov rdi, {scratch}
    mov rsi, {target}
    syscall
""")
        lines.append(f"""
    mov rax, 3                  ; close the scratch slot
    mov rdi, {scratch}
    syscall
""")

    def _thread_tail_lines(self, position: int, record) -> List[str]:
        """Instructions from context restore to the application jump.

        Every entry is exactly one retired instruction (no assembler
        macro expansion), so ``len()`` is the retired-instruction tail
        used for graceful-exit threshold adjustment.
        """
        lines = [
            f"    mov r11, __elfie_ctx_{position}",
            "    xrstor [r11]",
            f"    mov rsp, __elfie_ctx_{position}+{CTX_POP_OFFSET}",
            "    pop rax",
            "    wrfsbase rax",
            "    pop rax",
            "    wrgsbase rax",
            "    popf",
        ]
        lines += ["    pop %s" % GPR_NAMES[i] for i in POP_ORDER]
        if self.marker is not None:
            lines.append("    " + self.marker.assembly())
        lines.append(f"    mov rsp, 0x{record.regs.rsp:x}")
        lines.append(f"    jmpabs 0x{record.regs.rip:x}")
        return lines

    def _emit_thread_inits(self, asm: Assembler) -> None:
        records = self._thread_records()
        want_thread_cb = self.perf_exit or "elfie_on_thread_start" in self.user_defines
        for position, record in enumerate(records):
            tail = self._thread_tail_lines(position, record)
            lines = [f"__elfie_thread_init_{position}:"]
            # Per-thread signal state, before the callback so the lines
            # retire outside the armed graceful-exit budget.  The clone
            # loop creates threads in position order, so the ELFie tid
            # of position p is deterministic.  Pending bits are raised
            # while the startup-wide block-all mask (inherited through
            # clone) is still up, then the captured mask replaces it.
            if self._has_signal_state():
                elfie_tid = position + (1 if self.with_monitor else 0)
                for signum in _mask_bits(record.pending):
                    lines.append(f"""
    mov rax, 200                ; tkill(self, {signum}): re-raise pending
    mov rdi, {elfie_tid}
    mov rsi, {signum}
    syscall""")
                lines.append(f"""
    mov rax, 14                 ; rt_sigprocmask(SETMASK, saved, 0)
    mov rdi, 2
    mov rsi, __elfie_sigmask_{position}
    mov rdx, 0
    syscall""")
            if want_thread_cb:
                budget = 0
                if self.perf_exit:
                    # Slack > 1 keeps the graceful exit as a backstop
                    # while letting a replay under a different schedule
                    # (where spin redistributes per-thread icounts) run
                    # past the captured per-thread counts — needed when
                    # the region end is marker-metered, not icount-
                    # metered (LoopPoint).
                    budget = (int(record.region_icount
                                  * self.perf_exit_slack)
                              + len(tail) + PERFLE_CALLBACK_TAIL)
                lines.append(f"    mov rsp, __elfie_cbstack_{position}_top")
                lines.append(f"    mov rdi, {budget}")
                lines.append(f"    mov rsi, {position}")
                lines.append("    call elfie_on_thread_start")
            lines += tail
            asm.add("\n".join(lines))
            self.plan.tail_instructions[record.tid] = len(tail)
            self.plan.symbol_labels.append(f"__elfie_thread_init_{position}")

    def _emit_callbacks(self, asm: Assembler) -> None:
        if self.user_code:
            asm.add(self.user_code)
        if self.perf_exit:
            if "elfie_on_thread_start" not in self.user_defines:
                asm.add(perfle_thread_start_source())
            asm.add(perfle_exit_handler_source(notify_monitor=self.with_monitor))
            asm.add(print_u64_source())
        if "elfie_on_start" not in self.user_defines:
            asm.add(default_on_start_source())
        if self.with_monitor:
            asm.add(monitor_source())
            if "elfie_on_exit" not in self.user_defines:
                asm.add(default_on_exit_source())
        for label in ("elfie_on_start",):
            self.plan.symbol_labels.append(label)
        if self.perf_exit or "elfie_on_thread_start" in self.user_defines:
            self.plan.symbol_labels.append("elfie_on_thread_start")

    def _emit_data(self, asm: Assembler) -> None:
        # scratch stack for the entry code
        asm.add(".align 16")
        asm.emit_bytes(b"\x00" * 4096)
        asm.define_label("__elfie_scratch_top")
        asm.emit_bytes(b"\x00" * 16)
        # per-thread callback stacks
        records = self._thread_records()
        for position in range(len(records)):
            asm.emit_bytes(b"\x00" * CALLBACK_STACK_BYTES)
            asm.define_label(f"__elfie_cbstack_{position}_top")
            asm.emit_bytes(b"\x00" * 16)
        # per-thread context blocks
        asm.add(".align 64")
        for position, record in enumerate(records):
            asm.define_label(f"__elfie_ctx_{position}")
            asm.emit_bytes(pack_context(record.regs))
            self._note_context_symbols(position, record)
        # stack staging copies: the non-zero span only
        for index, (_start, _length, _offset, staged) in enumerate(
                self._stack_runs()):
            if staged:
                asm.add(".align 8")
                asm.define_label(f"__elfie_staging_{index}")
                asm.emit_bytes(staged)
        # kernel-IPC staging: shm segment content, pipe() result slot,
        # channel buffer refills, listener sockaddrs
        shm_plan = self._shm_plan()
        if shm_plan:
            asm.add(".align 8")
            for shmid, segment in shm_plan:
                if segment is None:
                    continue
                _offset, staged = self._shm_staging(segment)
                if staged:
                    asm.define_label(f"__elfie_shm_{shmid}")
                    asm.emit_bytes(staged)
        channel_plans = self._channel_plans()
        if channel_plans:
            asm.add(".align 8")
            asm.define_label("__elfie_pipetmp")
            asm.emit_bytes(b"\x00" * 8)
            # one plan per channel and per port, so each label once
            for plan in channel_plans:
                if plan["type"] == "pipe" and plan["data"]:
                    asm.define_label(f"__elfie_chdata_{plan['cid']}")
                    asm.emit_bytes(plan["data"])
                elif plan["type"] == "pair":
                    for cid, data in zip(plan["key"],
                                         (plan["data0"], plan["data1"])):
                        if data:
                            asm.define_label(f"__elfie_chdata_{cid}")
                            asm.emit_bytes(data)
                elif plan["type"] == "listener":
                    asm.define_label(f"__elfie_sockaddr_{plan['port']}")
                    blob = struct.pack("<H", 2)          # sin_family
                    blob += struct.pack(">H", plan["port"])
                    asm.emit_bytes(blob + b"\x00" * 12)
        # saved sigaction blobs (guest layout: handler u64, mask u64),
        # the startup-wide block-all mask, and per-thread signal masks
        if self._has_signal_state():
            asm.add(".align 8")
            for index, signum in enumerate(sorted(self.pinball.sigactions)):
                handler, mask = self.pinball.sigactions[signum]
                asm.define_label(f"__elfie_sigact_{index}")
                asm.emit_bytes(struct.pack("<QQ", handler, mask))
            asm.define_label("__elfie_sigall")
            asm.emit_bytes(struct.pack("<Q", (1 << 64) - 1))
            for position, record in enumerate(records):
                asm.define_label(f"__elfie_sigmask_{position}")
                asm.emit_bytes(struct.pack("<Q", record.sigmask))
        # sysstate FD path strings
        if self.sysstate is not None:
            for index, proxy in enumerate(self.sysstate.fd_files):
                asm.define_label(f"__elfie_fdpath_{index}")
                asm.emit_bytes(proxy.name.encode("utf-8") + b"\x00")
        # perfle / monitor data
        if self.perf_exit:
            asm.add(print_data_source())
        if self.with_monitor:
            asm.add(monitor_data_source())

    def _note_context_symbols(self, position: int, record) -> None:
        ctx = f"__elfie_ctx_{position}"
        sym = self.plan.context_symbols
        sym.append((f".t{position}.ext_area", ctx, 0))
        sym.append((f".t{position}.fs_base", ctx, CTX_POP_OFFSET))
        sym.append((f".t{position}.gs_base", ctx, CTX_POP_OFFSET + 8))
        sym.append((f".t{position}.rflags", ctx, CTX_POP_OFFSET + 16))
        for slot, index in enumerate(POP_ORDER):
            sym.append((
                f".t{position}.{GPR_NAMES[index]}",
                ctx,
                CTX_POP_OFFSET + 24 + slot * 8,
            ))
