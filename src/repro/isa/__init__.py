"""PX instruction-set architecture.

PX is a 64-bit register machine with x86-named general-purpose registers,
an RFLAGS-style flag register, FS/GS segment bases, and an XSAVE-style
extended floating-point state.  It stands in for x86-64 in this
reproduction: every construct the paper's ELFie startup code needs
(clone loops, XRSTOR context restore, WRFSBASE, marker instructions,
spin loops with PAUSE) is expressible and executable in PX.

The package provides:

- :mod:`repro.isa.registers` -- register names and indices
- :mod:`repro.isa.instructions` -- the instruction model and opcode table
- :mod:`repro.isa.encoding` -- binary encode/decode of instructions
- :mod:`repro.isa.assembler` -- a two-pass assembler with labels
- :mod:`repro.isa.disassembler` -- textual disassembly
"""

from repro.isa.registers import (
    GPR_NAMES,
    GPR_INDEX,
    XMM_COUNT,
    RegisterFile,
    Flags,
)
from repro.isa.instructions import Instruction, Op, OPCODE_TABLE
from repro.isa.encoding import encode, decode, InstructionDecodeError
from repro.isa.assembler import Assembler, AssemblyError, assemble
from repro.isa.disassembler import disassemble

__all__ = [
    "GPR_NAMES",
    "GPR_INDEX",
    "XMM_COUNT",
    "RegisterFile",
    "Flags",
    "Instruction",
    "Op",
    "OPCODE_TABLE",
    "encode",
    "decode",
    "InstructionDecodeError",
    "Assembler",
    "AssemblyError",
    "assemble",
    "disassemble",
]
