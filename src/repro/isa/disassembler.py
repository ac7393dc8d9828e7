"""Textual disassembly of PX machine code.

Used by debugging helpers and by ``pinball2elf --dump-contexts`` style
assembly listings.  Mnemonics come from ``instructions.MNEMONIC``, the
one PX syntax table, which the assembler reads too.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.isa.encoding import decode, InstructionDecodeError
from repro.isa.instructions import Instruction, MNEMONIC, OPCODE_TABLE, Operand
from repro.isa.registers import GPR_NAMES, XMM_NAMES


def _format_operand(kind: Operand, value: object, pc_after: Optional[int]) -> str:
    if kind == Operand.R:
        return GPR_NAMES[int(value)]  # type: ignore[arg-type]
    if kind == Operand.X:
        return XMM_NAMES[int(value)]  # type: ignore[arg-type]
    if kind == Operand.I64:
        return "0x%x" % int(value)  # type: ignore[arg-type]
    if kind == Operand.I32:
        return str(int(value))  # type: ignore[arg-type]
    if kind == Operand.REL32:
        rel = int(value)  # type: ignore[arg-type]
        if pc_after is not None:
            return "0x%x" % (pc_after + rel)
        return ("+%d" % rel) if rel >= 0 else str(rel)
    if kind == Operand.M:
        base, disp = value  # type: ignore[misc]
        if disp == 0:
            return "[%s]" % GPR_NAMES[base]
        sign = "+" if disp > 0 else "-"
        return "[%s%s%d]" % (GPR_NAMES[base], sign, abs(disp))
    if kind == Operand.F64:
        return repr(float(value))  # type: ignore[arg-type]
    raise AssertionError("unknown operand kind %r" % (kind,))


def format_instruction(insn: Instruction, pc: Optional[int] = None) -> str:
    """Render one instruction as assembly text.

    If *pc* (the instruction's address) is given, branch targets are shown
    as absolute addresses, otherwise as signed displacements; the
    assembler reads either form back to the same bytes (at *pc*).
    """
    pc_after = pc + insn.size if pc is not None else None
    mnemonic = MNEMONIC[insn.op]
    rendered = [
        _format_operand(kind, value, pc_after)
        for kind, value in zip(OPCODE_TABLE[insn.op], insn.operands)
    ]
    if rendered:
        return "%s %s" % (mnemonic, ", ".join(rendered))
    return mnemonic


def disassemble(data: bytes, base: int = 0,
                stop_on_error: bool = True) -> Iterator[Tuple[int, str]]:
    """Yield (address, text) for each instruction in *data*.

    With ``stop_on_error=False``, undecodable bytes are rendered as
    ``.byte`` lines and disassembly continues — useful when code and data
    are interleaved (as in ELFie memory images).
    """
    offset = 0
    while offset < len(data):
        address = base + offset
        try:
            insn, next_offset = decode(data, offset)
        except InstructionDecodeError:
            if stop_on_error:
                return
            yield address, ".byte 0x%02x" % data[offset]
            offset += 1
            continue
        yield address, format_instruction(insn, address)
        offset = next_offset
