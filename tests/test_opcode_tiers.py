"""The per-opcode tier table: every PX opcode on every dispatch tier.

Each opcode runs inside a hot counted loop, so the compiled tier
compiles the block that holds it (or the loop around it), and the run
must retire the state the per-instruction loop retires: registers,
flags, extended state, memory and the timing counters.  A second
variant stops the run at every step index of that block on a hot pass
and then resumes it, so a stop lands before, on and after the opcode:
bare, where the compiled loop runs the cut member's prefix itself, and
under a block tool, where the block's compiled prefix function does.
"""

import pytest

from repro.isa.instructions import OPCODE_TABLE, Op
from repro.machine import Machine, load_elf
from repro.machine import compile as compile_module
from repro.machine.compile import COMPILER
from repro.machine.tool import Tool
from repro.verify.digest import arch_digest, memory_digest
from repro.workloads import build_executable

#: The loop body around each opcode; several need a little set-up in
#: the same body.  Labels are per-case (``{n}``), branches alternate
#: taken and fall-through with the pass count's parity.
_PARITY = """
    mov rdx, rcx
    and rdx, 1
    cmp rdx, 0"""

CASES = {
    Op.NOP: "nop",
    Op.HLT: "nop",              # retired once, after the loop
    Op.SYSCALL: "mov rax, 39\n    syscall\n    add rbx, rax",
    Op.CPUID: "cpuid",
    Op.PAUSE: "pause",
    Op.MARKER: "marker 0x42",
    Op.RDTSC: "rdtsc\n    add rbx, rax",
    Op.MOV_RI: "mov rdx, 0x123456789",
    Op.MOV_RR: "mov rdx, rbx",
    Op.LD: "ld rdx, [r8+8]",
    Op.ST: "st [r8+16], rbx",
    Op.LEA: "lea rdx, [r8+24]",
    Op.LD4: "ld4 rdx, [r8+4]",
    Op.ST4: "st4 [r8+36], rbx",
    Op.LD1: "ld1 rdx, [r8+3]",
    Op.ST1: "st1 [r8+41], rbx",
    Op.ADD_RR: "add rbx, rdx",
    Op.SUB_RR: "sub rbx, rdx",
    Op.IMUL_RR: "imul rbx, rdx",
    Op.DIV_RR: "div rbx, r9",
    Op.AND_RR: "and rdx, rbx",
    Op.OR_RR: "or rbx, rdx",
    Op.XOR_RR: "xor rbx, rdx",
    Op.SHL_RR: "mov rdx, 3\n    shl rbx, rdx",
    Op.SHR_RR: "mov rdx, 2\n    shr rbx, rdx",
    Op.MOD_RR: "mod rdx, r9",
    Op.ADD_RI: "add rbx, 5",
    Op.SUB_RI: "sub rbx, 7",
    Op.IMUL_RI: "imul rbx, 3",
    Op.AND_RI: "and rbx, 0xffff",
    Op.OR_RI: "or rbx, 0x40",
    Op.XOR_RI: "xor rbx, 0x5a",
    Op.SHL_RI: "shl rbx, 3",
    Op.SHR_RI: "shr rbx, 2",
    Op.CMP_RR: "cmp rbx, rdx",
    Op.CMP_RI: "cmp rbx, 77",
    Op.TEST_RR: "test rbx, rdx",
    Op.JMP: "jmp skip{n}\n    add rbx, 100\nskip{n}:",
    Op.JZ: _PARITY + "\n    jz skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JNZ: _PARITY + "\n    jnz skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JL: _PARITY + "\n    jl skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JGE: _PARITY + "\n    jge skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JG: _PARITY + "\n    jg skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JLE: _PARITY + "\n    jle skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JB: _PARITY + "\n    jb skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JAE: _PARITY + "\n    jae skip{n}\n    add rbx, 5\nskip{n}:",
    Op.JMP_R: "mov r10, skip{n}\n    jmp r10\n    add rbx, 100\nskip{n}:",
    Op.JMPABS: "jmpabs skip{n}\n    add rbx, 100\nskip{n}:",
    Op.CALL: "call bump",
    Op.RET: "call bump",
    Op.PUSH: "push rbx\n    pop rdx",
    Op.POP: "push rbx\n    pop rdx",
    Op.CALL_R: "mov r10, bump\n    call r10",
    Op.PUSHF: "cmp rbx, rdx\n    pushf\n    pop rdx",
    Op.POPF: "push rbx\n    popf",
    Op.XADD: "xadd [r8+48], rbx",
    Op.CMPXCHG: "cmpxchg [r8+56], rbx",
    Op.XCHG: "xchg [r8+64], rbx",
    Op.FMOV_XI: "fmov xmm2, 0.75",
    Op.FLD: "fld xmm2, [r8+72]",
    Op.FST: "fst [r8+80], xmm0",
    Op.FADD: "fadd xmm0, xmm1",
    Op.FSUB: "fsub xmm0, xmm1",
    Op.FMUL: "fmul xmm0, xmm1",
    Op.FDIV: "fdiv xmm0, xmm1",
    Op.FCMP: "fcmp xmm0, xmm1",
    Op.CVTSI2SD: "cvtsi2sd xmm2, rcx",
    Op.CVTSD2SI: "cvtsd2si rdx, xmm0",
    Op.FMOV_XX: "fmov xmm3, xmm0",
    Op.XSAVE: "xsave [r8+256]",
    Op.XRSTOR: "xsave [r8+256]\n    xrstor [r8+256]",
    Op.WRFSBASE: "wrfsbase rbx",
    Op.WRGSBASE: "wrgsbase rbx",
    Op.RDFSBASE: "wrfsbase rcx\n    rdfsbase rdx",
    Op.RDGSBASE: "wrgsbase rcx\n    rdgsbase rdx",
}

_PROGRAM = """
_start:
    mov r8, buf
    mov r9, 7
    mov rbx, 11
    mov rdx, 3
    mov rax, 5
    fmov xmm1, 2.5
    mov rcx, 24
loop:
    fmov xmm0, 1.5
    add rbx, 1
    {body}
    add rbx, 2
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    {exit}
bump:
    add rbx, 3
    ret
"""

_EXIT = """mov rdi, rbx
    and rdi, 0xff
    mov rax, 231
    syscall"""

_DATA = """
buf:
    .quad 0x0102030405060708
    .quad 0x3ff8000000000000
    .zero 496
"""

#: Pass of the loop whose first block the cut variant stops inside:
#: past COMPILE_THRESHOLD, so the block and its loop are compiled.
_CUT_PASS = 12


def _image(op):
    body = CASES[op].format(n=int(op))
    return build_executable(
        _PROGRAM.format(body=body, exit="hlt" if op == Op.HLT else _EXIT),
        data_source=_DATA)


def _state(machine, status):
    thread = machine.threads[0]
    return (status.kind, status.signal, status.code, arch_digest(machine),
            memory_digest(machine), thread.icount, thread.cycles,
            thread.branches, thread.llc_misses, thread.spin_pauses)


class _LoopEntries(Tool):
    """Records the icount at every entry of the block at *pc*."""

    wants_instructions = False
    wants_blocks = True

    def __init__(self, pc):
        self.pc = pc
        self.icounts = []

    def on_basic_block(self, machine, thread, pc):
        if pc == self.pc:
            self.icounts.append(thread.icount)


class _BlockTool(Tool):
    """A block tool that keeps loops from spinning: every block runs
    on its own, and a stop inside one runs its compiled prefix."""

    wants_instructions = False
    wants_blocks = True

    def on_basic_block(self, machine, thread, pc):
        pass


def _machine(image, tier, tool=None):
    machine = Machine(seed=1)
    loaded = load_elf(machine, image)
    machine.cpu.set_dispatch(tier)
    if tool is not None:
        machine.attach(tool)
    return machine, loaded.symbols


def _run(image, tier, tool=None, budget=None):
    """``(state at the budget stop or None, final state, machine)``."""
    machine, _ = _machine(image, tier, tool)
    stopped = None
    if budget is not None:
        status = machine.run(max_instructions=budget)
        assert status.kind == "stopped"
        stopped = _state(machine, status)
    return stopped, _state(machine, machine.run()), machine


def test_every_opcode_has_a_case():
    assert set(CASES) == set(OPCODE_TABLE)


@pytest.mark.parametrize("op", sorted(CASES), ids=lambda op: op.name)
def test_opcode_hot_loop_matches_slow(op):
    image = _image(op)
    _, reference, _ = _run(image, "slow")
    assert reference[0] == ("signal" if op == Op.HLT else "exit")
    COMPILER.cache.clear()
    _, state, machine = _run(image, "compiled")
    assert state == reference
    # Codegen emitted the op, in a block or a loop function, unless it
    # is one codegen refuses (its block then stays interpreted); HLT
    # faults on its block's one run.
    emitted = [fn for shape, fn in COMPILER.cache.items()
               if int(op) in _shape_ops(shape)]
    if op == Op.HLT:
        assert not emitted
    elif int(op) in compile_module._UNSUPPORTED:
        assert emitted and not any(emitted)
    else:
        assert any(emitted)


def _shape_ops(shape):
    """Every opcode of a compiled shape: a block, a prefix or a loop."""
    if shape[0] == "part":
        return shape[1][1]
    if shape[0] == "loop":
        return [op for _, member in shape[1] for op in member[1]]
    return shape[1]


@pytest.mark.parametrize("op", sorted(CASES), ids=lambda op: op.name)
def test_opcode_stops_at_every_step_of_its_block(op):
    image = _image(op)
    machine, symbols = _machine(image, "slow")
    entries = _LoopEntries(symbols["loop"])
    machine.attach(entries)
    machine.run()
    start = entries.icounts[_CUT_PASS]
    _, _, compiled = _run(image, "compiled")
    size = compiled.cpu.block_cache[symbols["loop"]].n
    for step in range(size):
        budget = start + step
        reference = _run(image, "slow", budget=budget)[:2]
        assert _run(image, "compiled", budget=budget)[:2] == reference, step
        assert _run(image, "compiled", _BlockTool(),
                    budget=budget)[:2] == reference, step
