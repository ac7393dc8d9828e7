"""Threaded-code compilation of hot superblocks.

Once a block's hit count crosses ``COMPILE_THRESHOLD`` the fast path
hands it here and gets back one generated Python function that executes
the whole block per call: operands are specialized into literals, the
per-instruction static costs are folded into a single ``cycles += K``
per exit, and the icount/RIP updates are hoisted out of the body to the
exits.  What remains per instruction is the architectural work itself —
no handler call, no operand tuple unpacking, no per-step bookkeeping.

Bit-identity with the per-instruction interpreter is the contract, so
the generated code keeps every observable ordering of the slow path:

* Dynamic cache-model charges still happen access by access (before the
  memory operation, which may fault), accumulated into a local delta
  that every exit — normal, SMC, fault — flushes into ``thread.cycles``.
* A mid-block fault materializes the exact architectural state of the
  slow path before re-raising: RIP already advanced past the faulting
  instruction, icount/cycles covering only the retired prefix.  A
  ``_f = <step index>`` assignment before each fault-capable operation
  plus a per-step metadata table make the except-path exact.
* Every store is followed by an SMC check: if it invalidated code, the
  function materializes state at that step boundary and returns the
  retired count, exactly where the interpreted trace would have broken.
* RFLAGS writes are emitted only when a later instruction can observe
  them (conditional branch, PUSHF, CMPXCHG's partial update) or when a
  fault-capable instruction could expose them mid-block; flag writes
  that are provably overwritten before any such observation point are
  elided (dead-flag elimination).

Compiled functions are cached by block *shape* — opcodes, operands, and
intra-block RIP offsets — with all RIP values computed relative to a
``base`` argument, so the same function is reused for identical code at
different addresses (common across re-JITted or remapped pages).  A
generated function depends on nothing but its shape, so one cache
(:data:`COMPILER`) serves every machine in the process: a campaign that
builds a fresh Machine per job pays codegen once per distinct shape.

Codegen bails out (returns ``None``) on any unsupported handler —
SYSCALL, RDTSC (reads mid-block cycles), XSAVE/XRSTOR — and the fast
path permanently falls back to the interpreted trace for that block.

A hot loop of up to ``LOOP_BLOCKS`` blocks compiles into one more
function, :func:`_generate_loop`: the member bodies, emitted exactly as
above, sit in a state dispatch that moves between them without
returning to the fast path's dispatch header.  At every exit it can
report the completed runs per member, so block tools that accept loop
exits see a whole spin in one call.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Op
from repro.isa.registers import Flags
from repro.machine.memory import (
    PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, PROT_READ, PROT_WRITE,
)
from repro.observe import hooks

#: Entry cap for the process-wide shape-keyed function cache.
COMPILED_CACHE_LIMIT = 2048

_MASK = "18446744073709551615"        # (1 << 64) - 1
_SIGN = "9223372036854775808"         # 1 << 63
_TWO64 = "18446744073709551616"       # 1 << 64


class _Unsupported(Exception):
    """Raised by an emitter for a shape codegen cannot handle."""


# Opcode groups driving the dead-flag pass.  Full writers set all four
# flags and may be elided; readers (and every fault-capable op, whose
# fault path exposes current flags to the outside) keep earlier writers
# live.  CMPXCHG writes only ZF, so it both reads and writes.
_ALU_RR = {
    int(Op.ADD_RR): ("({a} + {b})", True),
    int(Op.SUB_RR): ("({a} - {b})", True),
    int(Op.IMUL_RR): ("({a} * {b})", True),
    int(Op.AND_RR): ("{a} & {b}", False),
    int(Op.OR_RR): ("{a} | {b}", False),
    int(Op.XOR_RR): ("{a} ^ {b}", False),
    int(Op.SHL_RR): ("({a} << ({b} & 63))", True),
    int(Op.SHR_RR): ("{a} >> ({b} & 63)", False),
}
_ALU_RI = {
    int(Op.ADD_RI): lambda a, imm: "(%s + %d) & %s" % (a, imm, _MASK),
    int(Op.SUB_RI): lambda a, imm: "(%s - %d) & %s" % (a, imm, _MASK),
    int(Op.IMUL_RI): lambda a, imm: "(%s * %d) & %s" % (a, imm, _MASK),
    int(Op.AND_RI): lambda a, imm: "%s & %d" % (a, imm),
    int(Op.OR_RI): lambda a, imm: "(%s | %d) & %s" % (a, imm, _MASK),
    int(Op.XOR_RI): lambda a, imm: "(%s ^ %d) & %s" % (a, imm, _MASK),
    int(Op.SHL_RI): lambda a, imm: "(%s << %d) & %s" % (a, imm & 63, _MASK),
    int(Op.SHR_RI): lambda a, imm: "%s >> %d" % (a, imm & 63),
}
_FARITH = {
    int(Op.FADD): "+", int(Op.FSUB): "-",
    int(Op.FMUL): "*", int(Op.FDIV): "/",
}
_COND = {
    int(Op.JZ): "flags.zf",
    int(Op.JNZ): "not flags.zf",
    int(Op.JL): "flags.sf != flags.of",
    int(Op.JGE): "flags.sf == flags.of",
    int(Op.JG): "not flags.zf and flags.sf == flags.of",
    int(Op.JLE): "flags.zf or flags.sf != flags.of",
    int(Op.JB): "flags.cf",
    int(Op.JAE): "not flags.cf",
}

_FULL_FLAG_WRITERS = (
    set(_ALU_RR) | set(_ALU_RI)
    | {int(Op.DIV_RR), int(Op.MOD_RR), int(Op.CMP_RR), int(Op.CMP_RI),
       int(Op.TEST_RR), int(Op.FCMP), int(Op.XADD)}
)
_FLAG_READERS = set(_COND) | {int(Op.PUSHF), int(Op.CMPXCHG)}
_FAULTABLE = {
    int(Op.LD), int(Op.ST), int(Op.LD4), int(Op.ST4), int(Op.LD1),
    int(Op.ST1), int(Op.FLD), int(Op.FST), int(Op.PUSH), int(Op.POP),
    int(Op.PUSHF), int(Op.POPF), int(Op.CALL), int(Op.CALL_R),
    int(Op.RET), int(Op.XADD), int(Op.CMPXCHG), int(Op.XCHG),
    int(Op.DIV_RR), int(Op.MOD_RR), int(Op.HLT),
}
_UNSUPPORTED = {
    int(Op.SYSCALL), int(Op.RDTSC), int(Op.XSAVE), int(Op.XRSTOR),
}


def _dead_flags(ops: Tuple[int, ...]) -> List[bool]:
    """Backward liveness: True where a full flag write may be elided."""
    skip = [False] * len(ops)
    live = True  # flags are architectural state at every block exit
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if op in _FULL_FLAG_WRITERS:
            if live:
                live = False
            else:
                skip[i] = True
        if op in _FLAG_READERS or op in _FAULTABLE:
            live = True
    return skip


class _Gen:
    """Accumulates generated source plus the hoist set it needs.

    In loop mode the member bodies sit deeper (``extra``) inside the
    loop function's ``while True`` state dispatch, fault indices are
    offset by the member's first entry in the shared fault table
    (``fault_base``), and an SMC exit leaves the spin through the
    loop's common exit instead of returning.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.needs: set = set()
        self.rip_written = False
        self.extra = 0          # indent shift for loop-mode bodies
        self.loop = False
        self.fault_base = 0

    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append("    " * (indent + self.extra) + line)

    def fault_point(self, index: int) -> None:
        """Record step *index* as the one a raised fault belongs to."""
        self.emit("_f = %d" % (self.fault_base + index))

    def charge(self, indent: int = 2) -> None:
        """Cache-model charge for the address in ``_a``."""
        # Penalties/set counts are baked from the cpu module's model so
        # the generated code and the interpreter can never disagree.
        from repro.machine.cpu import (
            HW_L1_PENALTY, HW_L1_SETS, HW_LLC_PENALTY, HW_LLC_SETS,
        )

        self.needs.update(("_l1", "_llc"))
        e = self.emit
        e("_ln = _a >> 6", indent)
        e("_ix = _ln & %d" % (HW_L1_SETS - 1), indent)
        e("if _l1[_ix] != _ln:", indent)
        e("_l1[_ix] = _ln", indent + 1)
        e("_ix = _ln & %d" % (HW_LLC_SETS - 1), indent + 1)
        e("if _llc[_ix] != _ln:", indent + 1)
        e("_llc[_ix] = _ln", indent + 2)
        e("_cyd += %d" % (HW_L1_PENALTY + HW_LLC_PENALTY), indent + 2)
        e("thread.llc_misses += 1", indent + 2)
        e("else:", indent + 1)
        e("_cyd += %d" % HW_L1_PENALTY, indent + 2)

    def smc_check(self, index: int, off: int, prefix_incl: int,
                  rip_set: bool) -> None:
        """Early SMC exit after a store: materialize and return."""
        e = self.emit
        e("if cpu._smc_dirty:")
        if not rip_set:
            e("regs.rip = (_base + %d) & %s" % (off, _MASK), 3)
        if self.loop:
            e("_pi = %d" % (index + 1), 3)
            e("_pk = %d" % prefix_incl, 3)
            e("break", 3)
        else:
            e("thread.icount += %d" % (index + 1), 3)
            e("thread.cycles += _cyd + %d" % prefix_incl, 3)
            e("return %d" % (index + 1), 3)


def _ea_expr(gen: _Gen, mem_op: tuple) -> None:
    base, disp = mem_op
    if disp:
        gen.emit("_a = (gpr[%d] + %d) & %s" % (base, disp, _MASK))
    else:
        gen.emit("_a = gpr[%d]" % base)


def _inline_load(gen: _Gen, size: int, stmt) -> None:
    """Load ``size`` bytes at ``_a``, open-coding the single-page path.

    ``stmt(value_expr)`` renders the consuming statement.  The inline
    path replicates AddressSpace.read's fast path exactly: same-page
    access, permission bits checked, no touch hook attached.  Faults,
    page-crossing accesses, and hooked runs fall back to ``mem.read``,
    which raises the identical PageFault.
    """
    gen.needs.update(("_mr", "_pages", "_perms", "_th"))
    e = gen.emit
    fallback = "_mr(_a, %d)" % size
    if size == 1:
        fallback += "[0]"
    e("_o = _a & %d" % PAGE_MASK)
    e("if _o <= %d and _th is None:" % (PAGE_SIZE - size))
    e("_pg = _a >> %d" % PAGE_SHIFT, 3)
    e("_d = _pages.get(_pg)", 3)
    e("if _d is not None and _perms[_pg] & %d:" % PROT_READ, 3)
    e(stmt("_d[_o]" if size == 1 else "_d[_o:_o + %d]" % size), 4)
    e("else:", 3)
    e(stmt(fallback), 4)
    e("else:", 2)
    e(stmt(fallback), 3)


def _inline_store(gen: _Gen, size: int, value_expr: str) -> None:
    """Store ``value_expr`` at ``_a``, open-coding the single-page path.

    For sizes > 1 the value expression must render bytes; for size 1 an
    int.  Stores to executable pages always take the ``mem.write``
    fallback so the SMC invalidation protocol (retire after the data
    lands) stays in one place.
    """
    gen.needs.update(("_mw", "_pages", "_perms", "_xpg", "_th"))
    e = gen.emit
    e("_b = " + value_expr)
    fallback = "_mw(_a, bytes((_b,)))" if size == 1 else "_mw(_a, _b)"
    e("_o = _a & %d" % PAGE_MASK)
    e("if _o <= %d and _th is None:" % (PAGE_SIZE - size))
    e("_pg = _a >> %d" % PAGE_SHIFT, 3)
    e("_d = _pages.get(_pg)", 3)
    e("if _d is not None and _perms[_pg] & %d and _pg not in _xpg:"
      % PROT_WRITE, 3)
    e("_d[_o] = _b" if size == 1 else "_d[_o:_o + %d] = _b" % size, 4)
    e("else:", 3)
    e(fallback, 4)
    e("else:", 2)
    e(fallback, 3)


def _alu_flags(gen: _Gen) -> None:
    gen.emit("flags.zf = _r == 0")
    gen.emit("flags.sf = _r >= " + _SIGN)
    gen.emit("flags.cf = False")
    gen.emit("flags.of = False")


def _emit_step(gen: _Gen, i: int, op: int, ops: tuple, off: int,
               prefix_incl: int, skip_flags: bool) -> None:
    e = gen.emit
    needs = gen.needs

    if op in _UNSUPPORTED:
        raise _Unsupported(op)

    if op in (int(Op.NOP), int(Op.MARKER), int(Op.CPUID)):
        return
    if op == int(Op.PAUSE):
        e("thread.spin_pauses += 1")
        return
    if op == int(Op.HLT):
        gen.fault_point(i)
        e('raise InvalidOpcode("hlt executed in user mode at 0x%%x"'
          ' %% ((_base + %d) & %s))' % (off, _MASK))
        return
    if op == int(Op.MOV_RI):
        e("gpr[%d] = %d" % (ops[0], ops[1] & ((1 << 64) - 1)))
        return
    if op == int(Op.MOV_RR):
        e("gpr[%d] = gpr[%d]" % (ops[0], ops[1]))
        return
    if op == int(Op.LEA):
        base, disp = ops[1]
        if disp:
            e("gpr[%d] = (gpr[%d] + %d) & %s" % (ops[0], base, disp, _MASK))
        else:
            e("gpr[%d] = gpr[%d]" % (ops[0], base))
        return

    if op in _ALU_RR:
        tmpl, mask = _ALU_RR[op]
        expr = tmpl.format(a="gpr[%d]" % ops[0], b="gpr[%d]" % ops[1])
        if mask:
            expr = "%s & %s" % (expr, _MASK)
        if skip_flags:
            e("gpr[%d] = %s" % (ops[0], expr))
        else:
            e("_r = " + expr)
            e("gpr[%d] = _r" % ops[0])
            _alu_flags(gen)
        return
    if op in _ALU_RI:
        expr = _ALU_RI[op]("gpr[%d]" % ops[0], ops[1])
        if skip_flags:
            e("gpr[%d] = %s" % (ops[0], expr))
        else:
            e("_r = " + expr)
            e("gpr[%d] = _r" % ops[0])
            _alu_flags(gen)
        return
    if op in (int(Op.DIV_RR), int(Op.MOD_RR)):
        gen.fault_point(i)
        e("_y = gpr[%d]" % ops[1])
        e("if _y == 0:")
        e('raise DivideError("divide by zero at 0x%%x"'
          ' %% ((_base + %d) & %s))' % (off, _MASK), 3)
        sym = "//" if op == int(Op.DIV_RR) else "%"
        if skip_flags:
            e("gpr[%d] = gpr[%d] %s _y" % (ops[0], ops[0], sym))
        else:
            e("_r = gpr[%d] %s _y" % (ops[0], sym))
            e("gpr[%d] = _r" % ops[0])
            _alu_flags(gen)
        return

    if op in (int(Op.CMP_RR), int(Op.CMP_RI)):
        if skip_flags:
            return
        e("_x = gpr[%d]" % ops[0])
        if op == int(Op.CMP_RR):
            e("_y = gpr[%d]" % ops[1])
            rhs, rhs_s = "_y", "(_y ^ %s)" % _SIGN
        else:
            imm = ops[1] & ((1 << 64) - 1)
            rhs, rhs_s = str(imm), str(imm ^ (1 << 63))
        e("flags.zf = _x == %s" % rhs)
        e("flags.cf = _x < %s" % rhs)
        e("flags.sf = (_x ^ %s) < %s" % (_SIGN, rhs_s))
        e("flags.of = False")
        return
    if op == int(Op.TEST_RR):
        if skip_flags:
            return
        e("_r = gpr[%d] & gpr[%d]" % (ops[0], ops[1]))
        _alu_flags(gen)
        return

    if op == int(Op.LD):
        needs.add("_fb")
        gen.fault_point(i)
        _ea_expr(gen, ops[1])
        gen.charge()
        _inline_load(gen, 8,
                     lambda v: 'gpr[%d] = _fb(%s, "little")' % (ops[0], v))
        return
    if op == int(Op.ST):
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        _inline_store(gen, 8, '(gpr[%d] & %s).to_bytes(8, "little")'
                      % (ops[1], _MASK))
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op == int(Op.LD4):
        needs.add("_fb")
        gen.fault_point(i)
        _ea_expr(gen, ops[1])
        gen.charge()
        _inline_load(gen, 4,
                     lambda v: 'gpr[%d] = _fb(%s, "little")' % (ops[0], v))
        return
    if op == int(Op.ST4):
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        _inline_store(gen, 4, '(gpr[%d] & 4294967295).to_bytes(4, "little")'
                      % ops[1])
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op == int(Op.LD1):
        gen.fault_point(i)
        _ea_expr(gen, ops[1])
        gen.charge()
        _inline_load(gen, 1, lambda v: "gpr[%d] = %s" % (ops[0], v))
        return
    if op == int(Op.ST1):
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        _inline_store(gen, 1, "gpr[%d] & 255" % ops[1])
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return

    if op == int(Op.PUSH) or op == int(Op.PUSHF):
        gen.fault_point(i)
        if op == int(Op.PUSH):
            e("_v = gpr[%d]" % ops[0])
        else:
            e("_v = flags.to_word()")
        e("_a = (gpr[4] - 8) & %s" % _MASK)
        e("gpr[4] = _a")
        gen.charge()
        _inline_store(gen, 8, '(_v & %s).to_bytes(8, "little")' % _MASK)
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op == int(Op.POP):
        needs.add("_fb")
        gen.fault_point(i)
        e("_a = gpr[4]")
        gen.charge()
        _inline_load(gen, 8, lambda v: '_v = _fb(%s, "little")' % v)
        e("gpr[4] = (_a + 8) & %s" % _MASK)
        e("gpr[%d] = _v" % ops[0])
        return
    if op == int(Op.POPF):
        needs.add("_fb")
        gen.fault_point(i)
        e("_a = gpr[4]")
        gen.charge()
        _inline_load(gen, 8, lambda v: '_v = _fb(%s, "little")' % v)
        e("gpr[4] = (_a + 8) & %s" % _MASK)
        e("regs.flags = flags = Flags.from_word(_v)")
        return

    if op == int(Op.JMP):
        gen.rip_written = True
        e("regs.rip = (_base + %d) & %s" % (off + ops[0], _MASK))
        return
    if op in _COND:
        gen.rip_written = True
        e("regs.rip = ((_base + %d) & %s) if %s else ((_base + %d) & %s)"
          % (off + ops[0], _MASK, _COND[op], off, _MASK))
        return
    if op == int(Op.JMPABS):
        gen.rip_written = True
        e("regs.rip = %d" % (ops[0] & ((1 << 64) - 1)))
        return
    if op == int(Op.JMP_R):
        gen.rip_written = True
        e("regs.rip = gpr[%d]" % ops[0])
        return
    if op in (int(Op.CALL), int(Op.CALL_R)):
        gen.rip_written = True
        gen.fault_point(i)
        e("_v = (_base + %d) & %s" % (off, _MASK))
        e("_a = (gpr[4] - 8) & %s" % _MASK)
        e("gpr[4] = _a")
        gen.charge()
        _inline_store(gen, 8, '_v.to_bytes(8, "little")')
        if op == int(Op.CALL):
            e("regs.rip = (_base + %d) & %s" % (off + ops[0], _MASK))
        else:
            # Read the target after the push, like the interpreter
            # (observable when the target register is rsp).
            e("regs.rip = gpr[%d]" % ops[0])
        gen.smc_check(i, off, prefix_incl, rip_set=True)
        return
    if op == int(Op.RET):
        needs.add("_fb")
        gen.rip_written = True
        gen.fault_point(i)
        e("_a = gpr[4]")
        gen.charge()
        _inline_load(gen, 8, lambda v: 'regs.rip = _fb(%s, "little")' % v)
        e("gpr[4] = (_a + 8) & %s" % _MASK)
        return

    if op == int(Op.XADD):
        needs.update(("_mr", "_mw", "_fb"))
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        e('_v = _fb(_mr(_a, 8), "little")')
        e('_mw(_a, ((_v + gpr[%d]) & %s).to_bytes(8, "little"))'
          % (ops[1], _MASK))
        e("gpr[%d] = _v" % ops[1])
        if not skip_flags:
            e("_r = _v")
            _alu_flags(gen)
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op == int(Op.CMPXCHG):
        needs.update(("_mr", "_mw", "_fb"))
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        e('_v = _fb(_mr(_a, 8), "little")')
        e("if _v == gpr[0]:")
        e('_mw(_a, (gpr[%d] & %s).to_bytes(8, "little"))' % (ops[1], _MASK), 3)
        e("flags.zf = True", 3)
        e("else:")
        e("gpr[0] = _v", 3)
        e("flags.zf = False", 3)
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op == int(Op.XCHG):
        needs.update(("_mr", "_mw", "_fb"))
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        e('_v = _fb(_mr(_a, 8), "little")')
        e('_mw(_a, (gpr[%d] & %s).to_bytes(8, "little"))' % (ops[1], _MASK))
        e("gpr[%d] = _v" % ops[1])
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return

    if op == int(Op.FMOV_XI):
        value = float(ops[1])
        if not math.isfinite(value):
            raise _Unsupported(op)
        needs.add("xmm")
        e("xmm[%d] = %r" % (ops[0], value))
        return
    if op == int(Op.FMOV_XX):
        needs.add("xmm")
        e("xmm[%d] = xmm[%d]" % (ops[0], ops[1]))
        return
    if op == int(Op.FLD):
        needs.add("xmm")
        gen.fault_point(i)
        _ea_expr(gen, ops[1])
        gen.charge()
        _inline_load(gen, 8,
                     lambda v: 'xmm[%d] = _unpack("<d", %s)[0]' % (ops[0], v))
        return
    if op == int(Op.FST):
        needs.add("xmm")
        gen.fault_point(i)
        _ea_expr(gen, ops[0])
        gen.charge()
        _inline_store(gen, 8, '_pack("<d", xmm[%d])' % ops[1])
        gen.smc_check(i, off, prefix_incl, rip_set=False)
        return
    if op in _FARITH:
        needs.add("xmm")
        e("try:")
        e("xmm[%d] = xmm[%d] %s xmm[%d]"
          % (ops[0], ops[0], _FARITH[op], ops[1]), 3)
        e("except (ZeroDivisionError, OverflowError):")
        e("xmm[%d] = _INF" % ops[0], 3)
        return
    if op == int(Op.FCMP):
        needs.add("xmm")
        e("_fx = xmm[%d]" % ops[0])
        e("_fy = xmm[%d]" % ops[1])
        e("flags.zf = _fx == _fy")
        e("_fl = _fx < _fy")
        e("flags.cf = _fl")
        e("flags.sf = _fl")
        e("flags.of = False")
        return
    if op == int(Op.CVTSI2SD):
        needs.add("xmm")
        e("_v = gpr[%d]" % ops[1])
        e("xmm[%d] = float(_v - %s) if _v >= %s else float(_v)"
          % (ops[0], _TWO64, _SIGN))
        return
    if op == int(Op.CVTSD2SI):
        needs.add("xmm")
        e("try:")
        e("gpr[%d] = int(xmm[%d]) & %s" % (ops[0], ops[1], _MASK), 3)
        e("except (ValueError, OverflowError):")
        e("gpr[%d] = %s" % (ops[0], _SIGN), 3)
        return

    if op == int(Op.WRFSBASE):
        e("regs.fs_base = gpr[%d]" % ops[0])
        return
    if op == int(Op.WRGSBASE):
        e("regs.gs_base = gpr[%d]" % ops[0])
        return
    if op == int(Op.RDFSBASE):
        e("gpr[%d] = regs.fs_base" % ops[0])
        return
    if op == int(Op.RDGSBASE):
        e("gpr[%d] = regs.gs_base" % ops[0])
        return

    raise _Unsupported(op)


_HOIST_LINES = {
    "_mr": "_mr = mem.read",
    "_mw": "_mw = mem.write",
    "_pages": "_pages = mem._pages",
    "_perms": "_perms = mem._perms",
    "_xpg": "_xpg = mem._exec_pages",
    "_th": "_th = mem.touch_hook",
    "_fb": "_fb = int.from_bytes",
    "_l1": "_l1 = cpu.hw_l1",
    "_llc": "_llc = cpu.hw_llc",
    "xmm": "xmm = regs.xmm",
}


def _prefix_costs(ops: Tuple[int, ...]) -> List[int]:
    """Static cycles retired before each step (``n + 1`` entries)."""
    from repro.machine.cpu import OP_COST

    prefix = [0]
    for op in ops:
        prefix.append(prefix[-1] + OP_COST[op])
    return prefix


def _generate(shape: tuple) -> Optional[Tuple[str, tuple]]:
    """Emit source + fault-metadata for one block shape, or None."""
    ends_branch, ops, operands, offs = shape
    n = len(ops)
    prefix = _prefix_costs(ops)
    skip = _dead_flags(ops)
    gen = _Gen()
    try:
        for i in range(n):
            _emit_step(gen, i, ops[i], operands[i], offs[i],
                       prefix[i + 1], skip[i])
    except _Unsupported:
        return None
    body = gen.lines
    if not gen.rip_written:
        body.append("        regs.rip = (_base + %d) & %s"
                    % (offs[-1], _MASK))
    body.append("        thread.icount += %d" % n)
    body.append("        thread.cycles += _cyd + %d" % prefix[n])
    body.append("        return %d" % n)
    source = _assemble(gen, "def _cfn(cpu, thread, _base):", body)
    meta = tuple((offs[i], i, prefix[i]) for i in range(n))
    return source, meta


def _generate_part(shape: tuple) -> Optional[Tuple[str, tuple]]:
    """Emit the prefix variant of one block shape: run exactly ``_stop``
    steps, 0 < ``_stop`` < n, so the terminator is never reached.

    A slice that ends inside a hot block runs this.  Every stop point
    is a retire boundary another thread can observe, so dead-flag
    elimination is off: flags are exact at each step.
    """
    _, ops, operands, offs = shape[1]
    n = len(ops)
    prefix = _prefix_costs(ops)
    gen = _Gen()
    try:
        for i in range(n - 1):
            if i:
                gen.emit("if _stop == %d:" % i)
                gen.emit("regs.rip = (_base + %d) & %s"
                         % (offs[i - 1], _MASK), 3)
                gen.emit("thread.icount += %d" % i, 3)
                gen.emit("thread.cycles += _cyd + %d" % prefix[i], 3)
                gen.emit("return", 3)
            _emit_step(gen, i, ops[i], operands[i], offs[i],
                       prefix[i + 1], False)
    except _Unsupported:
        return None
    body = gen.lines
    body.append("        regs.rip = (_base + %d) & %s" % (offs[n - 2], _MASK))
    body.append("        thread.icount += %d" % (n - 1))
    body.append("        thread.cycles += _cyd + %d" % prefix[n - 1])
    source = _assemble(gen, "def _cfn(cpu, thread, _base, _stop):", body)
    meta = tuple((offs[i], i, prefix[i]) for i in range(n))
    return source, meta


#: Except-path flush of a single-block function: the faulting step's
#: metadata gives RIP past it and the retired prefix.
_FAULT_FLUSH = (
    "        thread.icount += _m[1]",
    "        thread.cycles += _cyd + _m[2]",
)


def _assemble(gen: _Gen, signature: str, body: List[str],
              init: Sequence[str] = (),
              fault: Sequence[str] = _FAULT_FLUSH,
              tail: Sequence[str] = ()) -> str:
    """Wrap a generated body with the hoist prologue and fault epilogue.

    *init* lines follow the hoists, *fault* lines run in the except
    path after RIP is set from ``_META[_f]``, and *tail* lines follow
    the try statement.
    """
    lines = [signature,
             "    regs = thread.regs",
             "    gpr = regs.gpr",
             "    flags = regs.flags"]
    if gen.needs & {"_mr", "_mw"}:
        lines.append("    mem = cpu.mem")
    for name in ("_mr", "_mw", "_pages", "_perms", "_xpg", "_th",
                 "_fb", "_l1", "_llc", "xmm"):
        if name in gen.needs:
            lines.append("    " + _HOIST_LINES[name])
    lines.append("    _cyd = 0")
    lines.append("    _f = 0")
    lines.extend(init)
    lines.append("    try:")
    lines.extend(body)
    lines.append("    except BaseException:")
    lines.append("        _m = _META[_f]")
    lines.append("        regs.rip = (_base + _m[0]) & %s" % _MASK)
    lines.extend(fault)
    lines.append("        raise")
    lines.extend(tail)
    return "\n".join(lines) + "\n"


# -- compiled loops -------------------------------------------------------

#: Most blocks one loop function may hold.
LOOP_BLOCKS = 8


def loop_successors(block) -> Optional[Tuple[int, ...]]:
    """Successor entry PCs of a block that may sit inside a compiled
    loop, or None when it cannot: a loop member ends in a direct branch
    (JMP or a conditional jump, so both edges are static) and holds no
    op codegen refuses.  Blocks ending in SYSCALL or MARKER end in
    neither, so they never join a loop.
    """
    if not block.ends_branch:
        return None
    last = block.ops[-1]
    if last != int(Op.JMP) and last not in _COND:
        return None
    if not _UNSUPPORTED.isdisjoint(block.ops):
        return None
    next_pc, _handler, operands, _cost = block.steps[-1]
    taken = (next_pc + operands[0]) & ((1 << 64) - 1)
    if last == int(Op.JMP):
        return (taken,)
    return (taken, next_pc)


def _loop_edge(gen: _Gen, target: int, indent: int, members: Dict[int, int],
               sizes: List[int], partial) -> None:
    """Leave a member block along the edge to loop-relative *target*.

    An edge to a member continues the spin if that member fits in what
    is left of the budget; otherwise the spin ends there, after the
    member's first ``_room`` steps: ``partial(member, indent)`` emits
    them in a 1-member loop, and a larger loop moves to the member's
    one partial section (state ``~member``).  Any other edge is a side
    exit.
    """
    e = gen.emit
    rip = "regs.rip = (_base + %d) & %s" % (target, _MASK)
    member = members.get(target)
    if member is None:
        e(rip, indent)
        e("break", indent)
        return
    multi = len(sizes) > 1
    e("if _room < %d:" % sizes[member], indent)
    if sizes[member] > 1:
        e("if _room:", indent + 1)
        if multi:
            e("_s = %d" % ~member, indent + 2)
            e("else:", indent + 1)
            e(rip, indent + 2)
            e("break", indent + 2)
            e("else:", indent)
            e("_s = %d" % member, indent + 1)
            return
        partial(member, indent + 2)
    e(rip, indent + 1)
    e("break", indent + 1)
    if multi:
        e("_s = %d" % member, indent)


def _generate_loop(shape: tuple) -> Optional[Tuple[str, tuple]]:
    """Emit source + fault-metadata for one loop shape, or None.

    *shape* is ``("loop", ((rel, block_shape), ...))``: member blocks by
    entry offset from the head (member 0, offset 0).  The function
    ``_cfn(cpu, thread, _base, _budget, _exit)`` runs the head, then
    moves between members through a ``while True`` state dispatch
    (``_s``) until an edge leaves the loop, the remaining ``_budget``
    instructions end inside the next member (which then runs that
    far: a slice that ends mid-member ends inside the loop), an SMC
    store breaks it, or a step faults.  Every exit flushes what the
    per-block loop would have accrued: icount, static and cache-charged
    cycles, one branch per completed member, and ``new_block`` (false
    after a stop between two steps of one block).  Completed members
    are counted per member except the head, whose count follows from
    the retired total.

    Unless ``_exit`` is None, every exit (the fault path before it
    re-raises) also calls ``_exit(thread, _base, members, counts, stop,
    partial)``: *members* holds each member's ``(offset, size)``,
    *counts* its completed runs, and *stop* the member the spin ended
    in -- the one the budget, a break or a fault stopped *partial*
    steps into, else the last one completed (*partial* 0).
    """
    _, loop = shape
    members = {rel: index for index, (rel, _) in enumerate(loop)}
    sizes = [len(block_shape[1]) for _, block_shape in loop]
    firsts = [sum(sizes[:index]) for index in range(len(loop))]
    costs = [_prefix_costs(block_shape[1]) for _, block_shape in loop]
    multi = len(loop) > 1
    totals = []
    meta: List[tuple] = []
    gen = _Gen()
    gen.loop = True
    gen.extra = 2 if multi else 1

    def partial(member: int, indent: int) -> None:
        # The member's steps, each followed by a break once ``_room``
        # have retired (0 < _room < size; the tail then sets RIP and
        # the static cycles from _PRIP/_PPK); flags stay exact at every
        # stop, so no flag write is elided.
        rel, (_, ops, operands, offs) = loop[member]
        outer = gen.extra, gen.fault_base
        gen.extra += indent - 2
        gen.fault_base = firsts[member]
        gen.emit("_pm = %d" % member)
        if multi:
            gen.emit("_s = %d" % member)
        last = len(ops) - 2
        for i in range(last + 1):
            _emit_step(gen, i, ops[i], operands[i], rel + offs[i],
                       costs[member][i + 1], False)
            if i < last:
                gen.emit("if _room == %d:" % (i + 1))
                gen.emit("break", 3)
        gen.emit("break")
        gen.extra, gen.fault_base = outer

    try:
        for index, (rel, (_, ops, operands, offs)) in enumerate(loop):
            n = len(ops)
            prefix = costs[index]
            totals.append(prefix[n])
            skip = _dead_flags(ops)
            if multi:
                gen.emit("if _s == %d:" % index, 1)
            gen.fault_base = len(meta)
            meta.extend((rel + offs[i], i, prefix[i]) for i in range(n))
            for i in range(n - 1):
                _emit_step(gen, i, ops[i], operands[i], rel + offs[i],
                           prefix[i + 1], skip[i])
            gen.emit("_room -= %d" % n)
            if index:
                gen.emit("_c%d += 1" % index)
            last = ops[-1]
            taken = rel + offs[-1] + operands[-1][0]
            if last == int(Op.JMP):
                _loop_edge(gen, taken, 2, members, sizes, partial)
            else:
                gen.emit("if %s:" % _COND[last])
                _loop_edge(gen, taken, 3, members, sizes, partial)
                gen.emit("else:")
                _loop_edge(gen, rel + offs[-1], 3, members, sizes, partial)
        if multi:
            for index, size in enumerate(sizes):
                if size > 1:
                    gen.emit("if _s == %d:" % ~index, 1)
                    partial(index, 2)
    except _Unsupported:
        return None

    counted = range(1, len(loop))
    report = ("if _exit is not None: "
              "_exit(thread, _base, %r, (%s,), %s, _pi)" % (
                  tuple((rel, size) for (rel, _), size in zip(loop, sizes)),
                  ", ".join("_c%d" % i for i in range(len(loop))),
                  "_s" if multi else "0"))
    flush = [
        "_n = _budget - _room",
        "_c0 = (_n%s) // %d" % ("".join(
            " - %d * _c%d" % (sizes[i], i) for i in counted), sizes[0]),
        "thread.icount += _n + _pi",
        "thread.cycles += _cyd + _pk + %s" % " + ".join(
            "%d * _c%d" % (totals[i], i) for i in range(len(loop))),
        "thread.branches += %s" % " + ".join(
            "_c%d" % i for i in range(len(loop))),
        report,
    ]
    init = ["    _room = _budget", "    _pi = 0", "    _pk = 0", "    _pm = -1"]
    if multi:
        init.append("    _s = 0")
        init.extend("    _c%d = 0" % i for i in counted)
    fault = ["        _pi = _m[1]", "        _pk = _m[2]"]
    fault.extend("        " + line for line in flush)
    # A budget stop inside member _pm after _room steps (an SMC break
    # there has set _pi itself).
    tail = ["    if _pm >= 0 and not _pi:",
            "        _pi = _room",
            "        _pk = _PPK[_pm][_room]",
            "        regs.rip = (_base + _PRIP[_pm][_room]) & %s" % _MASK]
    tail.extend("    " + line for line in flush)
    tail.append("    thread.new_block = not _pi")
    tail.append("    return _n + _pi")
    body = ["        while True:"] + gen.lines
    tables = "_PRIP = %r\n_PPK = %r\n" % (
        tuple((0,) + tuple(rel + off for off in block_shape[3][:-1])
              for rel, block_shape in loop),
        tuple(tuple(cost[:-1]) for cost in costs))
    source = tables + _assemble(
        gen, "def _cfn(cpu, thread, _base, _budget, _exit):",
        body, init, fault, tail)
    return source, tuple(meta)


class BlockCompiler:
    """Owns codegen and the shape-keyed compiled-function cache.

    The cache maps block shapes — and loop shapes, tuples of member
    block shapes keyed by their entry offset from the loop head — to
    compiled functions (or ``None`` for shapes that bailed out, so an
    uncompilable shape is analysed once).  Insertion-ordered dict
    doubles as the eviction queue: past the cap the oldest entries are
    dropped — attached ``Block.compiled`` and ``Block.loop`` references
    stay valid, only shape-level reuse is lost.
    """

    def __init__(self) -> None:
        self.cache: Dict[tuple, Optional[object]] = {}
        self.cache_limit = COMPILED_CACHE_LIMIT
        self.evictions = 0

    @staticmethod
    def shape_of(block) -> Optional[tuple]:
        """The reuse key: opcodes, operands, and entry-relative offsets.

        Returns None for degenerate layouts (an offset that wrapped the
        64-bit space would make base-relative RIP math ambiguous).
        """
        entry = block.entry
        offs = []
        last = 0
        for step in block.steps:
            off = step[0] - entry
            if off <= last:
                return None
            offs.append(off)
            last = off
        operands = tuple(step[2] for step in block.steps)
        return (block.ends_branch, block.ops, operands, tuple(offs))

    def compile_block(self, block) -> Optional[object]:
        shape = self.shape_of(block)
        if shape is None:
            return None
        return self._lookup(shape, len(shape[1]))

    def compile_part(self, block) -> Optional[object]:
        """The prefix function of a compiled *block* (see
        :func:`_generate_part`)."""
        shape = self.shape_of(block)
        if shape is None:
            return None
        return self._lookup(("part", shape), len(shape[1]))

    def compile_loop(self, blocks) -> Optional[object]:
        """The loop function for *blocks*, head first (see
        :func:`_generate_loop`); all sit on the head's code page."""
        head = blocks[0].entry
        loop = []
        for block in blocks:
            shape = self.shape_of(block)
            if shape is None:
                return None
            loop.append((block.entry - head, shape))
        return self._lookup(("loop", tuple(loop)),
                            sum(len(shape[1]) for _, shape in loop))

    def _lookup(self, shape: tuple, n: int) -> Optional[object]:
        cache = self.cache
        obs = hooks.OBS
        if shape in cache:
            if obs.enabled:
                obs.count("cpu.compiled.shape_hits")
            return cache[shape]
        with obs.span("compile.codegen", "cpu", n=n):
            fn = _build(shape)
        if len(cache) >= self.cache_limit:
            # pop, not del: machines on other threads share the cache.
            count = max(1, self.cache_limit // 8)
            for key in list(cache)[:count]:
                cache.pop(key, None)
            self.evictions += count
        cache[shape] = fn
        return fn


def _build(shape: tuple) -> Optional[object]:
    """Generate and compile the function for a block, a block prefix
    or a loop shape."""
    generated = (_generate_loop(shape) if shape[0] == "loop"
                 else _generate_part(shape) if shape[0] == "part"
                 else _generate(shape))
    if generated is None:
        return None
    source, meta = generated
    namespace = {
        "DivideError": _cpu().DivideError,
        "InvalidOpcode": _cpu().InvalidOpcode,
        "Flags": Flags,
        "_unpack": struct.unpack,
        "_pack": struct.pack,
        "_INF": float("inf"),
        "_META": meta,
    }
    exec(compile(source, "<px-block>", "exec"), namespace)
    fn = namespace["_cfn"]
    if shape[0] == "loop":
        fn.__px_loop__ = len(shape[1])    # member blocks
    return fn


#: The process-wide compiler every :class:`~repro.machine.cpu.Cpu` uses.
COMPILER = BlockCompiler()


def _cpu():
    from repro.machine import cpu

    return cpu
