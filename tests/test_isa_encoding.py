"""Unit and property tests for PX instruction encoding/decoding."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import encode, decode, Instruction, Op, InstructionDecodeError
from repro.isa.instructions import (
    OPCODE_TABLE,
    Operand,
    instruction_size,
    BRANCH_OPS,
    COND_BRANCH_SIZE,
)


def test_nop_encodes_to_single_byte():
    assert encode(Instruction(Op.NOP)) == b"\x00"


def test_mov_ri_encoding_layout():
    insn = Instruction(Op.MOV_RI, (0, 0x1122334455667788))
    data = encode(insn)
    assert data[0] == int(Op.MOV_RI)
    assert data[1] == 0
    assert data[2:] == (0x1122334455667788).to_bytes(8, "little")
    assert len(data) == instruction_size(Op.MOV_RI)


def test_memory_operand_round_trip():
    insn = Instruction(Op.LD, (3, (4, -128)))
    decoded, size = decode(encode(insn))
    assert decoded == insn
    assert size == insn.size


def test_negative_rel32_round_trip():
    insn = Instruction(Op.JMP, (-20,))
    decoded, _ = decode(encode(insn))
    assert decoded.operands == (-20,)


def test_decode_invalid_opcode_raises():
    with pytest.raises(InstructionDecodeError):
        decode(b"\xff")


def test_decode_truncated_raises():
    data = encode(Instruction(Op.MOV_RI, (0, 1)))
    with pytest.raises(InstructionDecodeError):
        decode(data[:-1])


def test_decode_empty_raises():
    with pytest.raises(InstructionDecodeError):
        decode(b"")


def test_operand_count_validation():
    with pytest.raises(ValueError):
        Instruction(Op.MOV_RI, (0,))


def test_register_out_of_range_rejected_on_encode():
    with pytest.raises(ValueError):
        encode(Instruction(Op.PUSH, (16,)))


def test_branch_classification():
    assert Op.JZ in COND_BRANCH_SIZE
    assert Instruction(Op.JMP, (4,)).is_branch
    assert Op.JMP not in COND_BRANCH_SIZE
    assert Instruction(Op.RET).is_branch
    assert not Instruction(Op.ADD_RR, (0, 1)).is_branch


def _operand_strategy(kind):
    if kind in (Operand.R, Operand.X):
        return st.integers(min_value=0, max_value=15)
    if kind == Operand.I64:
        return st.integers(min_value=0, max_value=(1 << 64) - 1)
    if kind in (Operand.I32, Operand.REL32):
        return st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
    if kind == Operand.M:
        return st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        )
    if kind == Operand.F64:
        return st.floats(allow_nan=False, allow_infinity=False)
    raise AssertionError(kind)


@st.composite
def _instructions(draw):
    op = draw(st.sampled_from(sorted(OPCODE_TABLE, key=int)))
    operands = tuple(draw(_operand_strategy(kind)) for kind in OPCODE_TABLE[op])
    return Instruction(op, operands)


@given(_instructions())
def test_encode_decode_round_trip(insn):
    data = encode(insn)
    assert len(data) == insn.size
    decoded, size = decode(data)
    assert size == len(data)
    assert decoded.op == insn.op
    assert decoded.operands == insn.operands


@given(_instructions(), _instructions())
def test_decode_sequences(a, b):
    data = encode(a) + encode(b)
    first, offset = decode(data)
    second, end = decode(data, offset)
    assert first == a
    assert second == b
    assert end == len(data)


def test_all_branch_ops_have_rel32():
    for op in BRANCH_OPS:
        assert OPCODE_TABLE[op] == (Operand.REL32,)
