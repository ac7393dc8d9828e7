"""The PX interpreter core with a lightweight hardware timing model.

This module is the "native hardware" of the reproduction: it executes PX
instructions functionally and accrues cycles through a fixed per-opcode
cost table plus a small direct-mapped last-level-cache model.  Different
program phases (streaming, pointer chasing, branchy code) therefore show
different CPI — which is what makes SimPoint region selection and its
ELFie-based validation meaningful.

Branch-misprediction cost is folded into the static opcode costs rather
than modelled dynamically; this is a documented simplification that
preserves phase-to-phase CPI contrast at a fraction of the interpreter
cost.
"""

from __future__ import annotations

import heapq
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.isa.encoding import decode, InstructionDecodeError
from repro.isa.instructions import OP_SIZE, Instruction, Op
from repro.machine.compile import COMPILER, LOOP_BLOCKS, loop_successors
from repro.machine.memory import AddressSpace, PAGE_SHIFT, PageFault
from repro.observe import hooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine, Thread

MASK64 = (1 << 64) - 1
SIGN_BIT = 1 << 63

#: Sentinel for "no PMU trap armed".
NO_TRAP = sys.maxsize


class CpuFault(Exception):
    """Base class for synchronous CPU faults (delivered as signals)."""

    signal = 11  # SIGSEGV by default


class DivideError(CpuFault):
    """Integer divide by zero (delivered as SIGFPE)."""

    signal = 8


class InvalidOpcode(CpuFault):
    """Undecodable instruction bytes (delivered as SIGILL)."""

    signal = 4


def _signed(value: int) -> int:
    """Interpret a 64-bit value as signed."""
    return value - (1 << 64) if value & SIGN_BIT else value


# -- timing model -------------------------------------------------------------

#: Cycles charged per opcode (beyond memory penalties).
_DEFAULT_COST = 1
_OP_COST_OVERRIDES = {
    Op.IMUL_RR: 3, Op.IMUL_RI: 3,
    Op.DIV_RR: 22, Op.MOD_RR: 22,
    Op.FADD: 3, Op.FSUB: 3, Op.FMUL: 4, Op.FDIV: 14, Op.FCMP: 2,
    Op.CVTSI2SD: 4, Op.CVTSD2SI: 4,
    Op.SYSCALL: 60,
    Op.JZ: 2, Op.JNZ: 2, Op.JL: 2, Op.JGE: 2, Op.JG: 2, Op.JLE: 2,
    Op.JB: 2, Op.JAE: 2,
    Op.CALL: 2, Op.CALL_R: 3, Op.RET: 2, Op.JMP_R: 3,
    Op.XADD: 8, Op.CMPXCHG: 8, Op.XCHG: 6,
    Op.XSAVE: 20, Op.XRSTOR: 20,
    Op.CPUID: 30, Op.RDTSC: 10,
    Op.PAUSE: 4,
}

OP_COST: List[int] = [_DEFAULT_COST] * 256
for _op, _cost in _OP_COST_OVERRIDES.items():
    OP_COST[int(_op)] = _cost

#: Hardware cache model: two direct-mapped levels with 64-byte lines.
#: L1 is 32 KiB (512 lines, 10-cycle miss-to-L2); the LLC is 256 KiB
#: (4096 lines, 40-cycle miss-to-memory).  The LLC takes on the order of
#: 10^5 instructions to warm, which is what makes the paper's warmup
#: tuning (Table II) observable at this reproduction's scale.
HW_L1_SETS = 512
HW_L1_PENALTY = 10
HW_LLC_SETS = 4096
HW_LLC_PENALTY = 40

#: Safety cap on superblock length (straight-line runs longer than this
#: are split; keeps quantum spills and invalidation granularity sane).
BLOCK_LIMIT = 512

#: Entry cap for the per-Cpu superblock cache.  SMC-heavy and fuzz
#: workloads churn code pages without bound; past the cap the
#: oldest-stamped eighth of the cache is evicted.  The compiled-function
#: cache is process-wide and capped separately
#: (``compile.COMPILED_CACHE_LIMIT``).
BLOCK_CACHE_LIMIT = 8192

#: Full-block executions of one block before it is handed to the
#: threaded-code compiler.
COMPILE_THRESHOLD = 4

#: The CPU's telemetry counters and the metric each is reported as.
#: They are observer state: snapshots do not carry them, so a restored
#: CPU counts from zero.
_TELEMETRY = {
    "block_hits": "cpu.block_cache.hits",
    "block_misses": "cpu.block_cache.misses",
    "block_invalidations": "cpu.block_cache.invalidations",
    "block_evictions": "cpu.block_cache.evictions",
    "compiled_blocks": "cpu.compiled.blocks",
    "compiled_calls": "cpu.compiled.calls",
    "compiled_bailouts": "cpu.compiled.bailouts",
}

#: A predecoded instruction, as both dispatch tiers consume it:
#: ``(insn, size, opint, is_branch)``.  The per-instruction loop and the
#: block builder unpack it instead of converting the opcode and probing
#: the branch tables per executed instruction.
Decoded = Tuple[Instruction, int, int, bool]

#: Entry cap for the process-wide decode memo.  A whole campaign's guest
#: code decodes to a few hundred distinct instructions; SMC-heavy and
#: fuzz workloads can churn without bound, so past the cap the memo is
#: cleared and refills from later decodes.
DECODE_MEMO_LIMIT = 4096

#: Process-wide decode memo: exact instruction bytes -> predecoded
#: entry, shared by every Machine in the process (a farm worker builds
#: several per job, all running the same code).  Keyed by bytes, not
#: PC, so self-modifying code and remaps stay correct: a patched or
#: remapped PC fetches other bytes, while the per-Cpu ``decode_cache``
#: and its page index still drop PC entries on invalidation.  Decode
#: errors are never memoized.
_DECODE_MEMO: Dict[bytes, Decoded] = {}

#: Opcode byte -> instruction length, for slicing the memo key out of a
#: fetch.  An invalid opcode maps to 1: that one-byte key is never
#: memoized, and a truncated fetch is shorter than every key of its
#: opcode, so both miss and reach the decoder, which raises.
_KEY_SIZE = [1] * 256
for _op, _size in OP_SIZE.items():
    _KEY_SIZE[int(_op)] = _size

#: Dispatch tiers: "slow" is per-instruction interpretation (the
#: reference semantics); "compiled" runs cached superblocks, hot ones as
#: generated Python functions, and interprets the rest (cold,
#: uncompilable, or under memory hooks) block by block.  The two are
#: architecturally bit-identical; the knob exists for differential
#: testing (``verify fuzz --dispatch``) and for benchmarking.
DISPATCH_TIERS = ("slow", "compiled")

_default_dispatch = "compiled"


def default_dispatch() -> str:
    """The dispatch tier new :class:`Cpu` instances start in."""
    return _default_dispatch


def set_default_dispatch(tier: str) -> str:
    """Set the process-wide default dispatch tier; returns the old one.

    Affects every Machine constructed afterwards (the fuzz and verify
    pipelines construct machines internally, so this is the one switch
    that retiers a whole differential run).
    """
    global _default_dispatch
    if tier not in DISPATCH_TIERS:
        raise ValueError("unknown dispatch tier: %r" % (tier,))
    previous = _default_dispatch
    _default_dispatch = tier
    return previous


# An unknown tier name is an error, not a silent fallback to "compiled".
set_default_dispatch(os.environ.get("REPRO_DISPATCH") or _default_dispatch)


class Block:
    """A decoded superblock: one straight-line run of instructions.

    ``steps`` is the pre-bound trace executed by the fast dispatch loop:
    one ``(next_pc, handler, operands, cost)`` tuple per instruction,
    with the successor PC precomputed and the handler/cost resolved so
    the hot loop does no dict lookup, enum conversion, or property
    access.  A branch (taken or not) can only ever be the final step.
    """

    __slots__ = (
        "entry", "steps", "n", "ends_branch", "ends_syscall", "ends_marker",
        "pages", "ops", "hits", "compiled", "loop", "no_compile",
        "stamp",
    )

    def __init__(self, entry: int, steps: List[tuple], ends_branch: bool,
                 ends_syscall: bool, pages: Tuple[int, ...],
                 ops: Tuple[int, ...], ends_marker: bool) -> None:
        self.entry = entry
        self.steps = steps
        self.n = len(steps)
        self.ends_branch = ends_branch
        self.ends_syscall = ends_syscall
        self.ends_marker = ends_marker
        self.pages = pages
        #: Opcode ints, parallel to ``steps`` (codegen needs opcodes;
        #: steps store only the bound handlers).
        self.ops = ops
        self.hits = 0
        #: Compiled function (cpu, thread, base) -> instructions retired,
        #: or None while cold / after a codegen bailout.
        self.compiled: Optional[Callable] = None
        #: Loop function (cpu, thread, base, budget, exit hook) ->
        #: instructions retired, when this block heads a compiled loop
        #: of up to ``compile.LOOP_BLOCKS`` blocks on its page (one, if
        #: its taken edge targets its own entry).
        self.loop: Optional[Callable] = None
        self.no_compile = False
        #: LRU stamp, bumped on every dispatch-header hit.
        self.stamp = 0


class Cpu:
    """Executes PX instructions for the threads of one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.mem: AddressSpace = machine.mem
        #: Predecoded entries (:data:`Decoded`), keyed by PC.
        self.decode_cache: Dict[int, Decoded] = {}
        #: Superblock translation cache, keyed by entry PC.
        self.block_cache: Dict[int, Block] = {}
        # Page-granular invalidation indices: code page -> cached PCs /
        # block entry PCs whose bytes live (at least partly) on that page.
        self._decode_index: Dict[int, set] = {}
        self._block_index: Dict[int, set] = {}
        #: Selects the superblock fast path; derived by set_dispatch.
        self.fast_dispatch = True
        # Set by _invalidate_code_page while the fast loop is inside a
        # block whose backing bytes just changed (self-modifying code).
        self._smc_dirty = False
        self.block_hits = 0
        self.block_misses = 0
        self.block_invalidations = 0
        self.block_evictions = 0
        self.compiled_blocks = 0
        self.compiled_calls = 0
        self.compiled_bailouts = 0
        #: Telemetry counter -> its value at the last metrics flush.
        self._reported = dict.fromkeys(_TELEMETRY, 0)
        self._stamp = 0
        self.block_cache_limit = BLOCK_CACHE_LIMIT
        self.hw_l1: List[int] = [-1] * HW_L1_SETS
        self.hw_llc: List[int] = [-1] * HW_LLC_SETS
        #: Set by Machine.request_stop to break out of the slice loop.
        self.stop_flag: Optional[str] = None
        #: Set by the kernel when a syscall raised or unmasked a signal:
        #: the current slice ends so delivery (a quantum-boundary event)
        #: happens promptly.  The recorded schedule keeps the shortened
        #: slice, so replay ends it at the same instruction.
        self.yield_flag = False
        # Memory instrumentation hooks (set by Machine when tools want them).
        self.read_hook: Optional[Callable[["Thread", int, int], None]] = None
        self.write_hook: Optional[Callable[["Thread", int, int], None]] = None
        self._handlers = _build_handlers()
        self.mem.exec_invalidate_hook = self._invalidate_code_page
        self.set_dispatch(default_dispatch())

    def set_dispatch(self, tier: str) -> None:
        """Select the dispatch tier (see :data:`DISPATCH_TIERS`).

        Derives ``fast_dispatch``, the one place that rule lives: the
        superblock path runs unless the tier is "slow" or a
        per-instruction tool is attached.  Machine._rebuild_tool_lists
        re-applies the current tier whenever the tool set changes.
        """
        if tier not in DISPATCH_TIERS:
            raise ValueError("unknown dispatch tier: %r" % (tier,))
        self.dispatch_tier = tier
        instr_tools = getattr(self.machine, "instr_tools", None)
        self.fast_dispatch = tier != "slow" and not instr_tools

    def _invalidate_code_page(self, page: int) -> None:
        """Drop cached decodes and superblocks touching one code page.

        Called by the address space when an executable page is written,
        remapped, unmapped, or re-protected.  Sets ``_smc_dirty`` so a
        fast-path block that is currently executing stops at the next
        step boundary and re-dispatches against fresh bytes.
        """
        pcs = self._decode_index.pop(page, None)
        if pcs:
            dcache = self.decode_cache
            for pc in pcs:
                dcache.pop(pc, None)
        entries = self._block_index.pop(page, None)
        if entries:
            bcache = self.block_cache
            block_index = self._block_index
            for entry in entries:
                block = bcache.pop(entry, None)
                if block is not None:
                    for other in block.pages:
                        if other != page:
                            refs = block_index.get(other)
                            if refs is not None:
                                refs.discard(entry)
            self.block_invalidations += len(entries)
        self._smc_dirty = True

    def _evict_blocks(self) -> None:
        """LRU-evict the oldest-stamped eighth of the block cache."""
        bcache = self.block_cache
        count = max(1, len(bcache) // 8)
        victims = heapq.nsmallest(count, bcache.values(),
                                  key=lambda b: b.stamp)
        block_index = self._block_index
        for block in victims:
            bcache.pop(block.entry, None)
            for page in block.pages:
                refs = block_index.get(page)
                if refs is not None:
                    refs.discard(block.entry)
                    if not refs:
                        block_index.pop(page, None)
        self.block_evictions += len(victims)
        # Blocks may be mid-execution in the fast loop; force it back to
        # the dispatch header at the next boundary, same as invalidation.
        self._smc_dirty = True

    def _decode_at(self, pc: int) -> Decoded:
        """Decode (and cache + page-index) the instruction at *pc*,
        through the process-wide memo."""
        raw = self.mem.fetch(pc)
        key = raw[:_KEY_SIZE[raw[0]]]
        entry = _DECODE_MEMO.get(key)
        if entry is None:
            try:
                insn, size = decode(raw)
            except InstructionDecodeError as exc:
                if exc.truncated:
                    raise PageFault(pc, 4, mapped=False) from exc
                raise InvalidOpcode(
                    "invalid instruction at 0x%x: %s" % (pc, exc)
                ) from exc
            entry = (insn, size, int(insn.op), insn.is_branch)
            if len(_DECODE_MEMO) >= DECODE_MEMO_LIMIT:
                _DECODE_MEMO.clear()
            _DECODE_MEMO[key] = entry
        size = entry[1]
        self.decode_cache[pc] = entry
        page = pc >> PAGE_SHIFT
        self._decode_index.setdefault(page, set()).add(pc)
        last_page = (pc + size - 1) >> PAGE_SHIFT
        if last_page != page:
            self._decode_index.setdefault(last_page, set()).add(pc)
        return entry

    def _build_block(self, entry_pc: int) -> Optional[Block]:
        """Decode the straight-line run starting at *entry_pc*.

        The block ends at (and includes) the first branch, or at a
        SYSCALL (the kernel may remap code, block the thread, or arm the
        PMU), or at a MARKER (marker tools fire between blocks, where
        icount and cycles are exact), or before an
        undecodable/unfetchable instruction (the
        fault must fire only if execution actually reaches it, matching
        lazy per-instruction decode), or when the next PC leaves the
        entry page, or at ``BLOCK_LIMIT``.  Returns ``None`` when even
        the first instruction fails to decode.
        """
        dcache = self.decode_cache
        handlers = self._handlers
        op_cost = OP_COST
        entry_page = entry_pc >> PAGE_SHIFT
        pages = {entry_page}
        steps: List[tuple] = []
        ops: List[int] = []
        ends_branch = False
        ends_syscall = False
        ends_marker = False
        syscall_op = int(Op.SYSCALL)
        marker_op = int(Op.MARKER)
        pc = entry_pc
        while True:
            entry = dcache.get(pc)
            if entry is None:
                try:
                    entry = self._decode_at(pc)
                except (PageFault, CpuFault):
                    break
            insn, size, opint, is_branch = entry
            next_pc = (pc + size) & MASK64
            pages.add((pc + size - 1) >> PAGE_SHIFT)
            steps.append((next_pc, handlers[opint], insn.operands,
                          op_cost[opint]))
            ops.append(opint)
            if is_branch:
                ends_branch = True
                break
            if opint == syscall_op:
                ends_syscall = True
                break
            if opint == marker_op:
                ends_marker = True
                break
            pc = next_pc
            if (pc >> PAGE_SHIFT) != entry_page:
                break
            if len(steps) >= BLOCK_LIMIT:
                break
        if not steps:
            return None
        if len(self.block_cache) >= self.block_cache_limit:
            self._evict_blocks()
        block = Block(entry_pc, steps, ends_branch, ends_syscall,
                      tuple(pages), tuple(ops), ends_marker)
        block.stamp = self._stamp = self._stamp + 1
        self.block_cache[entry_pc] = block
        block_index = self._block_index
        for page in block.pages:
            block_index.setdefault(page, set()).add(entry_pc)
        obs = hooks.OBS
        if obs.enabled:
            obs.observe("cpu.block_cache.block_length", block.n)
        return block

    # -- memory helpers used by handlers ----------------------------------

    def _charge(self, thread: "Thread", addr: int) -> None:
        """Charge cycles for a data access through the HW cache model."""
        line = addr >> 6
        l1 = self.hw_l1
        index = line & (HW_L1_SETS - 1)
        if l1[index] != line:
            l1[index] = line
            thread.cycles += HW_L1_PENALTY
            llc = self.hw_llc
            index = line & (HW_LLC_SETS - 1)
            if llc[index] != line:
                llc[index] = line
                thread.cycles += HW_LLC_PENALTY
                thread.llc_misses += 1

    def read64(self, thread: "Thread", addr: int) -> int:
        if self.read_hook is not None:
            self.read_hook(thread, addr, 8)
        self._charge(thread, addr)
        return int.from_bytes(self.mem.read(addr, 8), "little")

    def write64(self, thread: "Thread", addr: int, value: int) -> None:
        if self.write_hook is not None:
            self.write_hook(thread, addr, 8)
        self._charge(thread, addr)
        self.mem.write(addr, (value & MASK64).to_bytes(8, "little"))

    def _push(self, thread: "Thread", value: int) -> None:
        rsp = (thread.regs.gpr[4] - 8) & MASK64
        thread.regs.gpr[4] = rsp
        self.write64(thread, rsp, value)

    def _pop(self, thread: "Thread") -> int:
        rsp = thread.regs.gpr[4]
        value = self.read64(thread, rsp)
        thread.regs.gpr[4] = (rsp + 8) & MASK64
        return value

    # -- main loop -----------------------------------------------------------

    def run_thread(self, thread: "Thread", quantum: int,
                   extend: bool = False) -> int:
        """Run *thread* for up to *quantum* instructions.

        Returns the number of instructions executed.  CPU faults and page
        faults propagate to the caller (the machine delivers them as
        fatal signals).  Dispatches to the superblock fast path unless an
        instruction tool is attached (exact per-instruction semantics).

        With *extend* (the machine's run loop sets it for a lone
        runnable thread in free-run) the fast path does not return at
        the end of the slice: if :meth:`Machine.slice_room` allows, it
        commits the next one (:meth:`Machine.next_slices`) and keeps
        going.  The slow path ignores it and returns once per slice.
        """
        if self.fast_dispatch:
            executed = self._run_fast(thread, quantum, extend)
        else:
            executed = self._run_slow(thread, quantum)
        # Telemetry fires once per call (a slice, or a lone thread's run
        # of extended slices), not per instruction, so the disabled path
        # costs one attribute lookup per call.
        obs = hooks.OBS
        if obs.enabled:
            if executed:
                obs.count("cpu.instructions", executed)
            self._flush_block_stats(obs)
        return executed

    def _run_fast(self, thread: "Thread", quantum: int,
                  extend: bool = False) -> int:
        """Superblock dispatch: execute cached blocks with all
        per-instruction bookkeeping amortised to block granularity.

        Architecturally bit-identical to :meth:`_run_slow`: per-step
        icount/cycles updates keep RDTSC and mid-block faults exact, the
        PMU guard routes the final approach to an armed trap through the
        slow path so the redirect fires at the exact icount, and quantum
        expiry spills mid-block by indexing a prefix of the pre-bound
        trace.

        Every block entry passes the dispatch header at the top of the
        loop, which checks the stop/yield flags, the icount limit and
        the block tools' hooks, then looks the block up in
        ``block_cache``.  Hot blocks run as compiled functions, and a
        hot block that heads a compiled loop spins inside it, moving
        between member blocks without returning here: freely without
        block tools, and from a reported head entry when every block
        tool accepts loop exits (each spin then reaches them as one
        ``Machine.on_loop_exit`` call).  Other block tools must see
        every block entry, so loops do not spin under them.

        With *extend*, a slice end is not a return: at a block boundary
        the machine picks the next slice in place, and a block that
        straddles the boundary (or a loop spinning across several)
        runs whole, after which the picks for the boundaries it crossed
        are committed in one batch (a fault inside it commits those
        before the faulting instruction; see ``Machine.run``).
        Straddles stay on the spill path for syscall blocks (the kernel
        and syscall tools must see the scheduler after the pick) and
        under memory tools (which may stop the run mid-block).
        """
        machine = self.machine
        regs = thread.regs
        bcache = self.block_cache
        block_tools = machine.block_tools
        # Compiled loops spin only where no block tool would miss an
        # entry: freely without block tools, and from a reported head
        # entry, reporting the spin, when every block tool accepts
        # loop exits.
        loop_ok = not block_tools
        exits = None
        if block_tools and all(tool.accepts_loop_exits
                               for tool in block_tools):
            exits = machine.on_loop_exit
        # Generated code calls mem.read/write directly, bypassing the
        # cpu-level memory hooks, so memory tools keep every block on
        # the interpreted block loop.
        compile_ok = self.read_hook is None and self.write_hook is None
        straddle_ok = extend and compile_ok
        executed = 0
        # Telemetry delta batched per call (flushed before return; a
        # propagating fault abandons the in-flight call's delta).
        calls_delta = 0

        while True:
            if executed >= quantum:
                if not extend or machine.slice_room(thread) <= 0:
                    break
                quantum += machine.next_slices(1)
            if (self.stop_flag is not None or not thread.alive
                    or thread.blocked):
                break
            if self.yield_flag:
                # Left set: the machine consumes it to forfeit the
                # slice remainder (not park it), so delivery runs next.
                break
            if thread.icount >= thread.icount_limit:
                # Exactly at the limit: report it and re-check (the hook
                # may clear the limit, block the thread, or stop the run;
                # Machine.on_icount_limit stops by itself otherwise).
                machine.on_icount_limit(thread)
                continue
            pc = regs.rip
            block = bcache.get(pc)
            if block is None:
                self.block_misses += 1
                block = self._build_block(pc)
                if block is None:
                    # Undecodable entry: the slow path raises the fault.
                    executed += self._run_slow(thread, 1)
                    continue
            else:
                self.block_hits += 1
                block.stamp = self._stamp = self._stamp + 1

            spin = loop_ok
            if block_tools and thread.new_block:
                thread.new_block = False
                for tool in block_tools:
                    tool.on_basic_block(machine, thread, pc)
                if self.stop_flag is not None:
                    # A tool requested a stop: one more instruction
                    # retires before the stop lands, as on the slow path.
                    executed += self._run_slow(thread, 1)
                    break
                spin = exits is not None

            # Distance to the nearer of an armed PMU trap and the icount
            # limit; no block may run across either.
            headroom = thread.pmu_trap_at
            if thread.icount_limit < headroom:
                headroom = thread.icount_limit
            headroom -= thread.icount
            n = block.n
            if n >= headroom:
                # Within trap/limit range: step exactly up to the
                # boundary (both are > icount here, so room >= 1).
                executed += self._run_slow(
                    thread, min(headroom, quantum - executed))
                continue
            remaining = quantum - executed
            if n > remaining and not (
                    straddle_ok and not block.ends_syscall
                    and machine.slice_room(thread) >= n - remaining):
                # Quantum expires mid-block: a branch can only be the
                # final step, so any prefix is a valid straight-line
                # run, stepped here (remaining < n, so it never reaches
                # the terminator); the trap/limit guard above ensures
                # no PMU boundary falls inside the prefix, which never
                # ends at a branch: no block entry.  Indexing (not
                # slicing) avoids copying the trace on every spill.
                thread.new_block = False
                steps = block.steps
                before = thread.icount
                self._smc_dirty = False
                for index in range(remaining):
                    next_pc, handler, operands, cost = steps[index]
                    regs.rip = next_pc
                    handler(self, thread, operands)
                    thread.cycles += cost
                    thread.icount += 1
                    if self._smc_dirty:
                        self._smc_dirty = False
                        break
                executed += thread.icount - before
                continue

            fn = block.compiled
            if fn is None and compile_ok and not block.no_compile:
                count = block.hits = block.hits + 1
                if count >= COMPILE_THRESHOLD:
                    fn = self._compile_block(block)
            self._smc_dirty = False
            if fn is not None and compile_ok:
                calls_delta += 1
                loop = block.loop if spin else None
                if loop is not None:
                    # Spin inside the generated loop for as many member
                    # blocks as fit the budget: the slice remainder --
                    # or, when the machine lets a lone thread run past
                    # the slice end, what is left of its room -- capped
                    # below the trap/limit headroom (n < headroom, so
                    # the head always fits).  The loop leaves the thread
                    # as the per-block loop would (new_block, branches).
                    budget = remaining
                    cap = headroom - 1
                    if budget < cap and straddle_ok:
                        budget += machine.slice_room(thread)
                    if budget > cap:
                        budget = cap
                    executed += loop(self, thread, pc, budget, exits)
                    if quantum < executed:
                        quantum += machine.next_slices(executed - quantum)
                    continue
                ran = fn(self, thread, block.entry)
            else:
                before = thread.icount
                for next_pc, handler, operands, cost in block.steps:
                    regs.rip = next_pc
                    handler(self, thread, operands)
                    thread.cycles += cost
                    thread.icount += 1
                    if self._smc_dirty:
                        break
                ran = thread.icount - before
            executed += ran
            if quantum < executed:
                # The block ran across the slice end: commit the
                # pick(s) the run loop would have made there.
                quantum += machine.next_slices(executed - quantum)
            if ran != n:
                # The block was invalidated under our feet (self-
                # modifying code) and stopped at a step boundary; the
                # header re-dispatches at the current rip against
                # freshly decoded bytes.
                thread.new_block = False
                continue
            # Exact with or without block tools (mid-run attach).
            if block.ends_branch:
                thread.new_block = True
                thread.branches += 1
            else:
                thread.new_block = False
            if block.ends_syscall:
                if thread.icount >= thread.pmu_trap_at:
                    # The syscall armed a trap with a threshold of zero;
                    # fires at the same retire boundary as the
                    # per-instruction loop.
                    self._pmu_redirect(thread)
            elif block.ends_marker and machine.marker_tools:
                # Marker tools fire here, between blocks, where icount
                # and cycles are exact; a stop they request lands right
                # after the marker.
                machine.on_marker(thread)
        if calls_delta:
            self.compiled_calls += calls_delta
        return executed

    def _compile_block(self, block: Block) -> Optional[Callable]:
        """Hand a hot block to the process-wide threaded-code compiler.

        Returns the compiled function (also attached to the block), or
        None after marking the block uncompilable (unsupported handler,
        non-monotonic layout).
        """
        fn = COMPILER.compile_block(block)
        if fn is None:
            block.no_compile = True
            self.compiled_bailouts += 1
            return None
        block.compiled = fn
        self.compiled_blocks += 1
        self._compile_loop(block)
        return fn

    def _compile_loop(self, head: Block) -> None:
        """Attach the loop function of a hot block that heads a loop.

        The loop is the set of cached blocks on *head*'s page that lie
        on a cycle through it, following the static edges of blocks
        that may join a loop (:func:`compile.loop_successors`).  Past
        ``LOOP_BLOCKS`` blocks only a self-loop is kept.  Any such set
        runs correctly, since every edge out of it is a side exit; a
        member evicted later keeps running from the generated code (its
        bytes are unchanged), and invalidating the page drops the head
        with its loop.
        """
        page = head.pages
        successors = loop_successors(head) if len(page) == 1 else None
        if successors is None:
            return
        bcache = self.block_cache
        edges = {head.entry: successors}
        reached = [head]
        for block in reached:
            if len(reached) > 4 * LOOP_BLOCKS:
                break
            for pc in edges[block.entry]:
                other = bcache.get(pc)
                if (pc in edges or other is None or other.pages != page
                        or other.no_compile):
                    continue
                successors = loop_successors(other)
                if successors is not None:
                    edges[pc] = successors
                    reached.append(other)
        inside = {head.entry}
        grew = True
        while grew:
            grew = False
            for block in reached:
                if (block.entry not in inside
                        and not inside.isdisjoint(edges[block.entry])):
                    inside.add(block.entry)
                    grew = True
        if 1 < len(inside) <= LOOP_BLOCKS:
            members = sorted((block for block in reached
                              if block.entry in inside and block is not head),
                             key=lambda block: block.entry)
            head.loop = COMPILER.compile_loop([head] + members)
        if head.loop is None and head.entry in edges[head.entry]:
            head.loop = COMPILER.compile_loop([head])

    def _run_slow(self, thread: "Thread", quantum: int) -> int:
        """Exact per-instruction interpretation (tools, PMU, faults)."""
        machine = self.machine
        regs = thread.regs
        dcache = self.decode_cache
        handlers = self._handlers
        op_cost = OP_COST
        instr_tools = machine.instr_tools
        block_tools = machine.block_tools
        marker_tools = machine.marker_tools
        marker_op = int(Op.MARKER)
        executed = 0

        while executed < quantum:
            if thread.icount >= thread.icount_limit:
                machine.on_icount_limit(thread)
                if (self.stop_flag is not None or not thread.runnable):
                    break
                continue
            pc = regs.rip
            entry = dcache.get(pc)
            if entry is None:
                entry = self._decode_at(pc)
            insn, size, opint, is_branch = entry

            if block_tools and thread.new_block:
                thread.new_block = False
                for tool in block_tools:
                    tool.on_basic_block(machine, thread, pc)
            if instr_tools:
                for tool in instr_tools:
                    tool.on_instruction(machine, thread, pc, insn)

            regs.rip = (pc + size) & MASK64
            handlers[opint](self, thread, insn.operands)
            thread.cycles += op_cost[opint]
            thread.icount += 1
            executed += 1
            if is_branch:
                thread.new_block = True
                thread.branches += 1
            else:
                thread.new_block = False
            if marker_tools and opint == marker_op:
                machine.on_marker(thread)
            if thread.icount >= thread.pmu_trap_at:
                self._pmu_redirect(thread)
            if not thread.alive or thread.blocked:
                break
            if self.yield_flag:
                break
            if self.stop_flag is not None:
                break
        return executed

    def _flush_block_stats(self, obs) -> None:
        """Emit block-cache counter deltas accrued since the last flush."""
        reported = self._reported
        for attr, metric in _TELEMETRY.items():
            delta = getattr(self, attr) - reported[attr]
            if delta:
                obs.count(metric, delta)
                reported[attr] += delta

    def _pmu_redirect(self, thread: "Thread") -> None:
        """Deliver a PMU overflow: redirect to the registered handler.

        Mimics a perf_event overflow signal whose handler is the
        ``libperfle`` callback linked into the ELFie: the interrupted RIP
        is pushed (a minimal signal frame) and control transfers to the
        handler.  The counter is disarmed so the handler itself runs
        freely.
        """
        obs = hooks.OBS
        if obs.enabled:
            obs.count("cpu.pmu_traps")
        handler = thread.pmu_handler
        thread.pmu_trap_at = NO_TRAP
        thread.pmu_handler = None
        if handler is None:
            # Armed for counting only: treated as a hard stop request.
            thread.alive = False
            thread.exit_code = 0
            self.machine.on_thread_exited(thread)
            return
        self._push(thread, thread.regs.rip)
        thread.regs.rip = handler
        thread.new_block = True


# -- instruction handlers ------------------------------------------------------
# Handlers are module-level functions f(cpu, thread, operands); rip has
# already been advanced past the instruction when a handler runs.


def _set_zf_sf(thread: "Thread", result: int) -> None:
    flags = thread.regs.flags
    flags.zf = result == 0
    flags.sf = bool(result & SIGN_BIT)
    flags.cf = False
    flags.of = False


def _h_nop(cpu, thread, ops):  # noqa: ANN001
    pass


def _h_hlt(cpu, thread, ops):
    raise InvalidOpcode("hlt executed in user mode at 0x%x" % thread.regs.rip)


def _h_syscall(cpu, thread, ops):
    cpu.machine.do_syscall(thread)


def _h_pause(cpu, thread, ops):
    thread.spin_pauses += 1


def _h_marker(cpu, thread, ops):
    # Visible to tools via on_instruction and on_marker; a no-op
    # architecturally.
    pass


def _h_rdtsc(cpu, thread, ops):
    thread.regs.gpr[0] = thread.cycles & MASK64
    thread.regs.gpr[2] = (thread.cycles >> 32) & MASK64


def _h_mov_ri(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = ops[1] & MASK64


def _h_mov_rr(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = thread.regs.gpr[ops[1]]


def _ea(thread, mem_op):
    base, disp = mem_op
    return (thread.regs.gpr[base] + disp) & MASK64


def _h_ld(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = cpu.read64(thread, _ea(thread, ops[1]))


def _h_st(cpu, thread, ops):
    cpu.write64(thread, _ea(thread, ops[0]), thread.regs.gpr[ops[1]])


def _h_lea(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = _ea(thread, ops[1])


def _h_ld4(cpu, thread, ops):
    addr = _ea(thread, ops[1])
    if cpu.read_hook is not None:
        cpu.read_hook(thread, addr, 4)
    cpu._charge(thread, addr)
    thread.regs.gpr[ops[0]] = int.from_bytes(cpu.mem.read(addr, 4), "little")


def _h_st4(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    if cpu.write_hook is not None:
        cpu.write_hook(thread, addr, 4)
    cpu._charge(thread, addr)
    cpu.mem.write(addr, (thread.regs.gpr[ops[1]] & 0xFFFFFFFF).to_bytes(4, "little"))


def _h_ld1(cpu, thread, ops):
    addr = _ea(thread, ops[1])
    if cpu.read_hook is not None:
        cpu.read_hook(thread, addr, 1)
    cpu._charge(thread, addr)
    thread.regs.gpr[ops[0]] = cpu.mem.read(addr, 1)[0]


def _h_st1(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    if cpu.write_hook is not None:
        cpu.write_hook(thread, addr, 1)
    cpu._charge(thread, addr)
    cpu.mem.write(addr, bytes([thread.regs.gpr[ops[1]] & 0xFF]))


def _alu_rr(operation):
    def handler(cpu, thread, ops):
        gpr = thread.regs.gpr
        result = operation(gpr[ops[0]], gpr[ops[1]]) & MASK64
        gpr[ops[0]] = result
        _set_zf_sf(thread, result)
    return handler


def _alu_ri(operation):
    def handler(cpu, thread, ops):
        gpr = thread.regs.gpr
        result = operation(gpr[ops[0]], ops[1]) & MASK64
        gpr[ops[0]] = result
        _set_zf_sf(thread, result)
    return handler


def _h_div_rr(cpu, thread, ops):
    gpr = thread.regs.gpr
    divisor = gpr[ops[1]]
    if divisor == 0:
        raise DivideError("divide by zero at 0x%x" % thread.regs.rip)
    result = gpr[ops[0]] // divisor
    gpr[ops[0]] = result & MASK64
    _set_zf_sf(thread, result)


def _h_mod_rr(cpu, thread, ops):
    gpr = thread.regs.gpr
    divisor = gpr[ops[1]]
    if divisor == 0:
        raise DivideError("divide by zero at 0x%x" % thread.regs.rip)
    result = gpr[ops[0]] % divisor
    gpr[ops[0]] = result & MASK64
    _set_zf_sf(thread, result)


def _compare(thread, a: int, b: int) -> None:
    flags = thread.regs.flags
    flags.zf = a == b
    flags.cf = a < b                       # unsigned below
    flags.sf = _signed(a) < _signed(b)     # with of=0, JL tests exactly this
    flags.of = False


def _h_cmp_rr(cpu, thread, ops):
    gpr = thread.regs.gpr
    _compare(thread, gpr[ops[0]], gpr[ops[1]])


def _h_cmp_ri(cpu, thread, ops):
    _compare(thread, thread.regs.gpr[ops[0]], ops[1] & MASK64)


def _h_test_rr(cpu, thread, ops):
    gpr = thread.regs.gpr
    _set_zf_sf(thread, gpr[ops[0]] & gpr[ops[1]])


def _h_jmp(cpu, thread, ops):
    thread.regs.rip = (thread.regs.rip + ops[0]) & MASK64


def _cond_jump(predicate):
    def handler(cpu, thread, ops):
        if predicate(thread.regs.flags):
            thread.regs.rip = (thread.regs.rip + ops[0]) & MASK64
    return handler


def _h_jmp_r(cpu, thread, ops):
    thread.regs.rip = thread.regs.gpr[ops[0]]


def _h_jmpabs(cpu, thread, ops):
    thread.regs.rip = ops[0] & MASK64


def _h_call(cpu, thread, ops):
    cpu._push(thread, thread.regs.rip)
    thread.regs.rip = (thread.regs.rip + ops[0]) & MASK64


def _h_call_r(cpu, thread, ops):
    cpu._push(thread, thread.regs.rip)
    thread.regs.rip = thread.regs.gpr[ops[0]]


def _h_ret(cpu, thread, ops):
    thread.regs.rip = cpu._pop(thread)


def _h_push(cpu, thread, ops):
    cpu._push(thread, thread.regs.gpr[ops[0]])


def _h_pop(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = cpu._pop(thread)


def _h_pushf(cpu, thread, ops):
    cpu._push(thread, thread.regs.flags.to_word())


def _h_popf(cpu, thread, ops):
    from repro.isa.registers import Flags

    thread.regs.flags = Flags.from_word(cpu._pop(thread))


def _h_xadd(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    old = cpu.read64(thread, addr)
    cpu.write64(thread, addr, (old + thread.regs.gpr[ops[1]]) & MASK64)
    thread.regs.gpr[ops[1]] = old
    _set_zf_sf(thread, old)


def _h_cmpxchg(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    current = cpu.read64(thread, addr)
    expected = thread.regs.gpr[0]
    if current == expected:
        cpu.write64(thread, addr, thread.regs.gpr[ops[1]])
        thread.regs.flags.zf = True
    else:
        thread.regs.gpr[0] = current
        thread.regs.flags.zf = False


def _h_xchg(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    old = cpu.read64(thread, addr)
    cpu.write64(thread, addr, thread.regs.gpr[ops[1]])
    thread.regs.gpr[ops[1]] = old


def _h_fmov_xi(cpu, thread, ops):
    thread.regs.xmm[ops[0]] = float(ops[1])


def _h_fmov_xx(cpu, thread, ops):
    thread.regs.xmm[ops[0]] = thread.regs.xmm[ops[1]]


def _h_fld(cpu, thread, ops):
    import struct as _struct

    addr = _ea(thread, ops[1])
    if cpu.read_hook is not None:
        cpu.read_hook(thread, addr, 8)
    cpu._charge(thread, addr)
    (thread.regs.xmm[ops[0]],) = _struct.unpack("<d", cpu.mem.read(addr, 8))


def _h_fst(cpu, thread, ops):
    import struct as _struct

    addr = _ea(thread, ops[0])
    if cpu.write_hook is not None:
        cpu.write_hook(thread, addr, 8)
    cpu._charge(thread, addr)
    cpu.mem.write(addr, _struct.pack("<d", thread.regs.xmm[ops[1]]))


def _farith(operation):
    def handler(cpu, thread, ops):
        xmm = thread.regs.xmm
        try:
            xmm[ops[0]] = operation(xmm[ops[0]], xmm[ops[1]])
        except (ZeroDivisionError, OverflowError):
            xmm[ops[0]] = float("inf")
    return handler


def _h_fcmp(cpu, thread, ops):
    xmm = thread.regs.xmm
    a, b = xmm[ops[0]], xmm[ops[1]]
    flags = thread.regs.flags
    flags.zf = a == b
    flags.cf = a < b
    flags.sf = a < b
    flags.of = False


def _h_cvtsi2sd(cpu, thread, ops):
    thread.regs.xmm[ops[0]] = float(_signed(thread.regs.gpr[ops[1]]))


def _h_cvtsd2si(cpu, thread, ops):
    value = thread.regs.xmm[ops[1]]
    try:
        thread.regs.gpr[ops[0]] = int(value) & MASK64
    except (ValueError, OverflowError):
        thread.regs.gpr[ops[0]] = SIGN_BIT  # x86 integer-indefinite value


def _h_xsave(cpu, thread, ops):
    addr = _ea(thread, ops[0])
    blob = thread.regs.xsave_bytes()
    if cpu.write_hook is not None:
        cpu.write_hook(thread, addr, len(blob))
    cpu.mem.write(addr, blob)


def _h_xrstor(cpu, thread, ops):
    from repro.isa.registers import XSAVE_AREA_SIZE

    addr = _ea(thread, ops[0])
    if cpu.read_hook is not None:
        cpu.read_hook(thread, addr, XSAVE_AREA_SIZE)
    thread.regs.xrstor_bytes(cpu.mem.read(addr, XSAVE_AREA_SIZE))


def _h_wrfsbase(cpu, thread, ops):
    thread.regs.fs_base = thread.regs.gpr[ops[0]]


def _h_wrgsbase(cpu, thread, ops):
    thread.regs.gs_base = thread.regs.gpr[ops[0]]


def _h_rdfsbase(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = thread.regs.fs_base


def _h_rdgsbase(cpu, thread, ops):
    thread.regs.gpr[ops[0]] = thread.regs.gs_base


def _build_handlers():
    """Build the opcode-indexed dispatch table."""
    table = [None] * 256

    def set_handler(op, fn):
        table[int(op)] = fn

    import operator

    set_handler(Op.NOP, _h_nop)
    set_handler(Op.HLT, _h_hlt)
    set_handler(Op.SYSCALL, _h_syscall)
    set_handler(Op.CPUID, _h_marker)
    set_handler(Op.PAUSE, _h_pause)
    set_handler(Op.MARKER, _h_marker)
    set_handler(Op.RDTSC, _h_rdtsc)
    set_handler(Op.MOV_RI, _h_mov_ri)
    set_handler(Op.MOV_RR, _h_mov_rr)
    set_handler(Op.LD, _h_ld)
    set_handler(Op.ST, _h_st)
    set_handler(Op.LEA, _h_lea)
    set_handler(Op.LD4, _h_ld4)
    set_handler(Op.ST4, _h_st4)
    set_handler(Op.LD1, _h_ld1)
    set_handler(Op.ST1, _h_st1)
    set_handler(Op.ADD_RR, _alu_rr(operator.add))
    set_handler(Op.SUB_RR, _alu_rr(operator.sub))
    set_handler(Op.IMUL_RR, _alu_rr(operator.mul))
    set_handler(Op.DIV_RR, _h_div_rr)
    set_handler(Op.MOD_RR, _h_mod_rr)
    set_handler(Op.AND_RR, _alu_rr(operator.and_))
    set_handler(Op.OR_RR, _alu_rr(operator.or_))
    set_handler(Op.XOR_RR, _alu_rr(operator.xor))
    set_handler(Op.SHL_RR, _alu_rr(lambda a, b: a << (b & 63)))
    set_handler(Op.SHR_RR, _alu_rr(lambda a, b: a >> (b & 63)))
    set_handler(Op.ADD_RI, _alu_ri(operator.add))
    set_handler(Op.SUB_RI, _alu_ri(operator.sub))
    set_handler(Op.IMUL_RI, _alu_ri(operator.mul))
    set_handler(Op.AND_RI, _alu_ri(operator.and_))
    set_handler(Op.OR_RI, _alu_ri(operator.or_))
    set_handler(Op.XOR_RI, _alu_ri(operator.xor))
    set_handler(Op.SHL_RI, _alu_ri(lambda a, b: a << (b & 63)))
    set_handler(Op.SHR_RI, _alu_ri(lambda a, b: a >> (b & 63)))
    set_handler(Op.CMP_RR, _h_cmp_rr)
    set_handler(Op.CMP_RI, _h_cmp_ri)
    set_handler(Op.TEST_RR, _h_test_rr)
    set_handler(Op.JMP, _h_jmp)
    set_handler(Op.JZ, _cond_jump(lambda f: f.zf))
    set_handler(Op.JNZ, _cond_jump(lambda f: not f.zf))
    set_handler(Op.JL, _cond_jump(lambda f: f.sf != f.of))
    set_handler(Op.JGE, _cond_jump(lambda f: f.sf == f.of))
    set_handler(Op.JG, _cond_jump(lambda f: not f.zf and f.sf == f.of))
    set_handler(Op.JLE, _cond_jump(lambda f: f.zf or f.sf != f.of))
    set_handler(Op.JB, _cond_jump(lambda f: f.cf))
    set_handler(Op.JAE, _cond_jump(lambda f: not f.cf))
    set_handler(Op.JMP_R, _h_jmp_r)
    set_handler(Op.JMPABS, _h_jmpabs)
    set_handler(Op.CALL, _h_call)
    set_handler(Op.CALL_R, _h_call_r)
    set_handler(Op.RET, _h_ret)
    set_handler(Op.PUSH, _h_push)
    set_handler(Op.POP, _h_pop)
    set_handler(Op.PUSHF, _h_pushf)
    set_handler(Op.POPF, _h_popf)
    set_handler(Op.XADD, _h_xadd)
    set_handler(Op.CMPXCHG, _h_cmpxchg)
    set_handler(Op.XCHG, _h_xchg)
    set_handler(Op.FMOV_XI, _h_fmov_xi)
    set_handler(Op.FMOV_XX, _h_fmov_xx)
    set_handler(Op.FLD, _h_fld)
    set_handler(Op.FST, _h_fst)
    set_handler(Op.FADD, _farith(operator.add))
    set_handler(Op.FSUB, _farith(operator.sub))
    set_handler(Op.FMUL, _farith(operator.mul))
    set_handler(Op.FDIV, _farith(operator.truediv))
    set_handler(Op.FCMP, _h_fcmp)
    set_handler(Op.CVTSI2SD, _h_cvtsi2sd)
    set_handler(Op.CVTSD2SI, _h_cvtsd2si)
    set_handler(Op.XSAVE, _h_xsave)
    set_handler(Op.XRSTOR, _h_xrstor)
    set_handler(Op.WRFSBASE, _h_wrfsbase)
    set_handler(Op.WRGSBASE, _h_wrgsbase)
    set_handler(Op.RDFSBASE, _h_rdfsbase)
    set_handler(Op.RDGSBASE, _h_rdgsbase)
    return table
