"""Instruction model and opcode table for the PX architecture.

Every instruction is an opcode byte followed by a fixed operand layout
determined by the opcode, so instruction length is a function of the
opcode alone.  Operand kinds:

``R``
    General-purpose register, one byte (hardware index 0-15).
``X``
    Extended (xmm) register, one byte.
``I64``
    64-bit little-endian immediate.
``I32``
    32-bit little-endian signed immediate.
``M``
    Memory operand ``[base + disp32]``: one base-register byte followed
    by a signed 32-bit displacement.
``REL32``
    Signed 32-bit branch displacement relative to the address of the
    *next* instruction (like x86 near jumps).
``F64``
    64-bit float immediate (encoded as its IEEE-754 bit pattern).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Operand(enum.Enum):
    """Operand kinds, each with a fixed encoded width."""

    R = "R"
    X = "X"
    I64 = "I64"
    I32 = "I32"
    M = "M"
    REL32 = "REL32"
    F64 = "F64"


#: Encoded size in bytes of each operand kind.
OPERAND_SIZE: Dict[Operand, int] = {
    Operand.R: 1,
    Operand.X: 1,
    Operand.I64: 8,
    Operand.I32: 4,
    Operand.M: 5,
    Operand.REL32: 4,
    Operand.F64: 8,
}


class Op(enum.IntEnum):
    """PX opcodes.  Values are the encoded opcode byte."""

    # System / special
    NOP = 0x00
    HLT = 0x01
    SYSCALL = 0x02
    CPUID = 0x03
    PAUSE = 0x04
    MARKER = 0x05
    RDTSC = 0x06

    # Data movement
    MOV_RI = 0x10
    MOV_RR = 0x11
    LD = 0x12        # 8-byte load
    ST = 0x13        # 8-byte store
    LEA = 0x14
    LD4 = 0x15       # 4-byte zero-extending load
    ST4 = 0x16       # 4-byte store
    LD1 = 0x17       # 1-byte zero-extending load
    ST1 = 0x18       # 1-byte store

    # Integer ALU, register-register
    ADD_RR = 0x20
    SUB_RR = 0x21
    IMUL_RR = 0x22
    DIV_RR = 0x23    # unsigned; divide-by-zero traps
    AND_RR = 0x24
    OR_RR = 0x25
    XOR_RR = 0x26
    SHL_RR = 0x27
    SHR_RR = 0x28
    MOD_RR = 0x29    # unsigned remainder

    # Integer ALU, register-immediate
    ADD_RI = 0x2A
    SUB_RI = 0x2B
    IMUL_RI = 0x2C
    AND_RI = 0x2D
    OR_RI = 0x2E
    XOR_RI = 0x2F
    SHL_RI = 0x48
    SHR_RI = 0x49

    # Compare / test
    CMP_RR = 0x30
    CMP_RI = 0x31
    TEST_RR = 0x32

    # Control flow
    JMP = 0x38
    JZ = 0x39
    JNZ = 0x3A
    JL = 0x3B
    JGE = 0x3C
    JG = 0x3D
    JLE = 0x3E
    JB = 0x45
    JAE = 0x46
    JMP_R = 0x3F
    #: Absolute 64-bit jump.  x86 pinball2elf synthesizes this with a
    #: register-free RIP-relative memory-indirect jump (jmp [rip+off]);
    #: PX provides it directly so thread-entry stubs can transfer to the
    #: captured code without clobbering any restored register (Fig. 6).
    JMPABS = 0x47
    CALL = 0x40
    RET = 0x41
    PUSH = 0x42
    POP = 0x43
    CALL_R = 0x44
    PUSHF = 0x4A
    POPF = 0x4B

    # Atomics (LOCK-prefixed semantics)
    XADD = 0x50
    CMPXCHG = 0x51
    XCHG = 0x52

    # Floating point (extended state)
    FMOV_XI = 0x60
    FLD = 0x61
    FST = 0x62
    FADD = 0x63
    FSUB = 0x64
    FMUL = 0x65
    FDIV = 0x66
    FCMP = 0x67
    CVTSI2SD = 0x68
    CVTSD2SI = 0x69
    FMOV_XX = 0x6A

    # Extended state / segment bases (startup-code support)
    XSAVE = 0x72
    XRSTOR = 0x73
    WRFSBASE = 0x74
    WRGSBASE = 0x75
    RDFSBASE = 0x76
    RDGSBASE = 0x77


#: opcode -> tuple of operand kinds, in encoding order.
OPCODE_TABLE: Dict[Op, Tuple[Operand, ...]] = {
    Op.NOP: (),
    Op.HLT: (),
    Op.SYSCALL: (),
    Op.CPUID: (),
    Op.PAUSE: (),
    Op.MARKER: (Operand.I32,),
    Op.RDTSC: (),
    Op.MOV_RI: (Operand.R, Operand.I64),
    Op.MOV_RR: (Operand.R, Operand.R),
    Op.LD: (Operand.R, Operand.M),
    Op.ST: (Operand.M, Operand.R),
    Op.LEA: (Operand.R, Operand.M),
    Op.LD4: (Operand.R, Operand.M),
    Op.ST4: (Operand.M, Operand.R),
    Op.LD1: (Operand.R, Operand.M),
    Op.ST1: (Operand.M, Operand.R),
    Op.ADD_RR: (Operand.R, Operand.R),
    Op.SUB_RR: (Operand.R, Operand.R),
    Op.IMUL_RR: (Operand.R, Operand.R),
    Op.DIV_RR: (Operand.R, Operand.R),
    Op.AND_RR: (Operand.R, Operand.R),
    Op.OR_RR: (Operand.R, Operand.R),
    Op.XOR_RR: (Operand.R, Operand.R),
    Op.SHL_RR: (Operand.R, Operand.R),
    Op.SHR_RR: (Operand.R, Operand.R),
    Op.MOD_RR: (Operand.R, Operand.R),
    Op.ADD_RI: (Operand.R, Operand.I32),
    Op.SUB_RI: (Operand.R, Operand.I32),
    Op.IMUL_RI: (Operand.R, Operand.I32),
    Op.AND_RI: (Operand.R, Operand.I32),
    Op.OR_RI: (Operand.R, Operand.I32),
    Op.XOR_RI: (Operand.R, Operand.I32),
    Op.SHL_RI: (Operand.R, Operand.I32),
    Op.SHR_RI: (Operand.R, Operand.I32),
    Op.CMP_RR: (Operand.R, Operand.R),
    Op.CMP_RI: (Operand.R, Operand.I32),
    Op.TEST_RR: (Operand.R, Operand.R),
    Op.JMP: (Operand.REL32,),
    Op.JZ: (Operand.REL32,),
    Op.JNZ: (Operand.REL32,),
    Op.JL: (Operand.REL32,),
    Op.JGE: (Operand.REL32,),
    Op.JG: (Operand.REL32,),
    Op.JLE: (Operand.REL32,),
    Op.JB: (Operand.REL32,),
    Op.JAE: (Operand.REL32,),
    Op.JMP_R: (Operand.R,),
    Op.JMPABS: (Operand.I64,),
    Op.CALL: (Operand.REL32,),
    Op.RET: (),
    Op.PUSH: (Operand.R,),
    Op.POP: (Operand.R,),
    Op.CALL_R: (Operand.R,),
    Op.PUSHF: (),
    Op.POPF: (),
    Op.XADD: (Operand.M, Operand.R),
    Op.CMPXCHG: (Operand.M, Operand.R),
    Op.XCHG: (Operand.M, Operand.R),
    Op.FMOV_XI: (Operand.X, Operand.F64),
    Op.FLD: (Operand.X, Operand.M),
    Op.FST: (Operand.M, Operand.X),
    Op.FADD: (Operand.X, Operand.X),
    Op.FSUB: (Operand.X, Operand.X),
    Op.FMUL: (Operand.X, Operand.X),
    Op.FDIV: (Operand.X, Operand.X),
    Op.FCMP: (Operand.X, Operand.X),
    Op.CVTSI2SD: (Operand.X, Operand.R),
    Op.CVTSD2SI: (Operand.R, Operand.X),
    Op.FMOV_XX: (Operand.X, Operand.X),
    Op.XSAVE: (Operand.M,),
    Op.XRSTOR: (Operand.M,),
    Op.WRFSBASE: (Operand.R,),
    Op.WRGSBASE: (Operand.R,),
    Op.RDFSBASE: (Operand.R,),
    Op.RDGSBASE: (Operand.R,),
}

#: opcode -> assembly mnemonic: the PX syntax.  The disassembler prints
#: it; the assembler reads it back, picking among the opcodes that share
#: a mnemonic by the operand kinds in :data:`OPCODE_TABLE`.
MNEMONIC: Dict[Op, str] = {
    Op.NOP: "nop", Op.HLT: "hlt", Op.SYSCALL: "syscall", Op.CPUID: "cpuid",
    Op.PAUSE: "pause", Op.MARKER: "marker", Op.RDTSC: "rdtsc",
    Op.MOV_RI: "mov", Op.MOV_RR: "mov", Op.LD: "ld", Op.ST: "st",
    Op.LEA: "lea", Op.LD4: "ld4", Op.ST4: "st4", Op.LD1: "ld1", Op.ST1: "st1",
    Op.ADD_RR: "add", Op.SUB_RR: "sub", Op.IMUL_RR: "imul", Op.DIV_RR: "div",
    Op.AND_RR: "and", Op.OR_RR: "or", Op.XOR_RR: "xor", Op.SHL_RR: "shl",
    Op.SHR_RR: "shr", Op.MOD_RR: "mod",
    Op.ADD_RI: "add", Op.SUB_RI: "sub", Op.IMUL_RI: "imul", Op.AND_RI: "and",
    Op.OR_RI: "or", Op.XOR_RI: "xor", Op.SHL_RI: "shl", Op.SHR_RI: "shr",
    Op.CMP_RR: "cmp", Op.CMP_RI: "cmp", Op.TEST_RR: "test",
    Op.JMP: "jmp", Op.JZ: "jz", Op.JNZ: "jnz", Op.JL: "jl", Op.JGE: "jge",
    Op.JG: "jg", Op.JLE: "jle", Op.JB: "jb", Op.JAE: "jae", Op.JMP_R: "jmp",
    Op.JMPABS: "jmpabs", Op.CALL: "call", Op.RET: "ret", Op.PUSH: "push",
    Op.POP: "pop", Op.CALL_R: "call", Op.PUSHF: "pushf", Op.POPF: "popf",
    Op.XADD: "xadd", Op.CMPXCHG: "cmpxchg", Op.XCHG: "xchg",
    Op.FMOV_XI: "fmov", Op.FLD: "fld", Op.FST: "fst", Op.FADD: "fadd",
    Op.FSUB: "fsub", Op.FMUL: "fmul", Op.FDIV: "fdiv", Op.FCMP: "fcmp",
    Op.CVTSI2SD: "cvtsi2sd", Op.CVTSD2SI: "cvtsd2si", Op.FMOV_XX: "fmov",
    Op.XSAVE: "xsave", Op.XRSTOR: "xrstor",
    Op.WRFSBASE: "wrfsbase", Op.WRGSBASE: "wrgsbase",
    Op.RDFSBASE: "rdfsbase", Op.RDGSBASE: "rdgsbase",
}

#: Branch opcodes whose operand is a REL32 target.
BRANCH_OPS = frozenset(
    {Op.JMP, Op.JZ, Op.JNZ, Op.JL, Op.JGE, Op.JG, Op.JLE, Op.JB, Op.JAE, Op.CALL}
)

#: Conditional branches only (used by branch-predictor models).
COND_BRANCH_OPS = frozenset(
    {Op.JZ, Op.JNZ, Op.JL, Op.JGE, Op.JG, Op.JLE, Op.JB, Op.JAE}
)


#: Control transfers: every opcode that ends a basic block.
BLOCK_END_OPS = BRANCH_OPS | {Op.JMP_R, Op.CALL_R, Op.RET, Op.JMPABS}

#: opcode -> encoded instruction size in bytes (computed once per opcode).
OP_SIZE: Dict[Op, int] = {
    op: 1 + sum(OPERAND_SIZE[kind] for kind in kinds)
    for op, kinds in OPCODE_TABLE.items()
}

#: Conditional-branch opcode -> its size, i.e. the fall-through offset
#: (timing models resolve "is it a conditional branch, and where does it
#: fall through" with one probe).
COND_BRANCH_SIZE: Dict[Op, int] = {op: OP_SIZE[op] for op in COND_BRANCH_OPS}


def instruction_size(op: Op) -> int:
    """Encoded size in bytes of an instruction with opcode *op*."""
    return OP_SIZE[op]


@dataclass(frozen=True)
class Instruction:
    """A decoded PX instruction.

    ``operands`` holds one value per operand kind in the opcode table:
    ints for R/X/I64/I32/REL32, floats for F64, and ``(base, disp)``
    tuples for M.
    """

    op: Op
    operands: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        expected = OPCODE_TABLE[self.op]
        if len(self.operands) != len(expected):
            raise ValueError(
                "%s expects %d operands, got %d"
                % (self.op.name, len(expected), len(self.operands))
            )

    @property
    def size(self) -> int:
        """Encoded size of this instruction in bytes."""
        return OP_SIZE[self.op]

    @property
    def is_branch(self) -> bool:
        return self.op in BLOCK_END_OPS
