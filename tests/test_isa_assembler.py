"""Tests for the PX assembler and disassembler."""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions
from repro.isa import assemble, AssemblyError, decode, Op
from repro.isa.assembler import Assembler
from repro.isa.disassembler import disassemble, format_instruction
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction
from repro.pinplay import RegionSpec, log_region
from repro.workloads import (
    MT_APPS,
    SPEC2006_SUBSET,
    SPEC2017_FP_RATE,
    SPEC2017_INT_RATE,
    SPEC2017_OMP_SPEED,
    get_app,
)

#: sha256 over every suite app's image at the ``test`` input and two
#: ELFies (perf-exit, sniper marker) converted from ``log_region``
#: captures.  Every byte here comes out of the assembler, ELFie startup
#: code included, so a change to opcode selection or operand encoding
#: moves it; a deliberate syntax change updates it and says why.
PINNED_GUEST_BYTES = "6928275b4a44399e88c45666175bd64628e075eab5e9c827138f1437efc9aeda"


def test_simple_program_assembles():
    prog = assemble(
        """
        mov rax, 60
        mov rdi, 0
        syscall
        """
    )
    insn, offset = decode(prog.code)
    assert insn.op == Op.MOV_RI
    assert insn.operands == (0, 60)
    insn, offset = decode(prog.code, offset)
    assert insn.op == Op.MOV_RI
    insn, _ = decode(prog.code, offset)
    assert insn.op == Op.SYSCALL


def test_labels_resolve_to_base_relative_addresses():
    prog = assemble(
        """
        start:
            nop
        loop:
            jmp loop
        """,
        base=0x400000,
    )
    assert prog.labels["start"] == 0x400000
    assert prog.labels["loop"] == 0x400001
    # jmp loop is a self-branch: rel32 == -size of jmp (5 bytes)
    insn, _ = decode(prog.code, 1)
    assert insn.op == Op.JMP
    assert insn.operands == (-5,)


def test_backward_and_forward_branches():
    prog = assemble(
        """
        mov rcx, 10
        top:
            sub rcx, 1
            cmp rcx, 0
            jnz top
            jmp done
            nop
        done:
            hlt
        """
    )
    assert prog.labels["done"] == prog.size - 1
    # je/jne are spellings of jz/jnz; the disassembler prints the latter.
    prog = assemble("top:\n    je top\n    jne top\n")
    insn, offset = decode(prog.code)
    assert insn.op == Op.JZ
    insn, _ = decode(prog.code, offset)
    assert insn.op == Op.JNZ
    assert [text for _, text in disassemble(prog.code)] == ["jz 0x0",
                                                            "jnz 0x0"]


def test_label_as_mov_immediate():
    prog = assemble(
        """
        mov rax, target
        hlt
        target:
            nop
        """,
        base=0x1000,
    )
    insn, _ = decode(prog.code)
    assert insn.op == Op.MOV_RI
    assert insn.operands[1] == prog.labels["target"]


def test_quad_directive_with_label():
    prog = assemble(
        """
        entry:
            nop
        table:
            .quad entry
            .quad 0xdeadbeef
        """,
        base=0x2000,
    )
    table = prog.labels["table"] - prog.base
    (first,) = struct.unpack_from("<Q", prog.code, table)
    (second,) = struct.unpack_from("<Q", prog.code, table + 8)
    assert first == 0x2000
    assert second == 0xDEADBEEF


def test_memory_operand_forms():
    prog = assemble(
        """
        ld rax, [rbx]
        ld rax, [rbx+16]
        st [rbp-8], rcx
        lea rsi, [rsp+32]
        """
    )
    insn, offset = decode(prog.code)
    assert insn.operands == (0, (3, 0))
    insn, offset = decode(prog.code, offset)
    assert insn.operands == (0, (3, 16))
    insn, offset = decode(prog.code, offset)
    assert insn.op == Op.ST
    assert insn.operands == ((5, -8), 1)
    insn, _ = decode(prog.code, offset)
    assert insn.op == Op.LEA


def test_alu_immediate_vs_register_selection():
    prog = assemble("add rax, rbx\nadd rax, 5")
    insn, offset = decode(prog.code)
    assert insn.op == Op.ADD_RR
    insn, _ = decode(prog.code, offset)
    assert insn.op == Op.ADD_RI


def test_directives():
    prog = assemble(
        """
        .byte 1, 2, 3
        .align 8
        value:
        .long 0x11223344
        .ascii "hi"
        .asciz "z"
        .zero 4
        .double 1.5
        """
    )
    assert prog.code[:3] == b"\x01\x02\x03"
    assert prog.labels["value"] == 8
    assert prog.code[8:12] == b"\x44\x33\x22\x11"
    assert prog.code[12:14] == b"hi"
    assert prog.code[14:16] == b"z\x00"
    assert prog.code[16:20] == b"\x00" * 4
    assert struct.unpack_from("<d", prog.code, 20)[0] == 1.5


def test_comments_and_blank_lines_ignored():
    prog = assemble("; full comment\n\n  nop ; trailing\n# hash comment\n")
    assert prog.code == b"\x00"


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("a:\nnop\na:\nnop")


def test_undefined_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("jmp nowhere")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblyError):
        assemble("frobnicate rax")


def test_bad_operand_shape_rejected():
    # Labels stand only for 64-bit immediates and branch targets, never
    # for 32-bit immediates; each operand slot takes its own kinds.
    for source in ("push 5", "mov 5, rax", "add rax, lbl", "cmp rax, lbl",
                   "marker lbl", "fld rax, [rbx]", "ld xmm0, [rbx]",
                   "fst [rbx], rax", "div rax, 5", "jmp [rax]", "nop rax",
                   "fmov xmm0, rax"):
        with pytest.raises(AssemblyError, match="bad operands for"):
            assemble("lbl:\n" + source)


def test_float_instructions():
    prog = assemble(
        """
        fmov xmm0, 2.5
        fmov xmm1, xmm0
        fadd xmm1, xmm0
        cvtsd2si rax, xmm1
        """
    )
    insn, offset = decode(prog.code)
    assert insn.op == Op.FMOV_XI
    assert insn.operands == (0, 2.5)
    insn, offset = decode(prog.code, offset)
    assert insn.op == Op.FMOV_XX


def test_programmatic_emit_api():
    asm = Assembler(base=0x100)
    asm.define_label("blob")
    asm.emit_bytes(b"\xaa\xbb")
    asm.emit_quad_label("blob")
    prog = asm.assemble()
    assert prog.code[:2] == b"\xaa\xbb"
    (addr,) = struct.unpack_from("<Q", prog.code, 2)
    assert addr == 0x100


def test_disassemble_round_trip_text():
    source = """
        mov rax, 42
        add rax, 1
        cmp rax, 43
        jnz 0
        syscall
    """
    prog = assemble(source)
    lines = [text for _, text in disassemble(prog.code)]
    assert lines[0] == "mov rax, 0x2a"
    assert lines[1] == "add rax, 1"
    assert lines[-1] == "syscall"


@pytest.mark.parametrize("base", [0, 0x1000, 0x400000])
def test_disassembly_listing_reassembles_at_its_base(base):
    """A listing prints branch targets as absolute addresses; assembled
    at the same base, it gives back the same bytes, for branches in
    both directions (and a zero displacement)."""
    prog = assemble(
        """
        top:
            jz top
            mov rax, 3
        back:
            sub rax, 1
            jnz back
            jmp ahead
            call top
            jl next
        next:
            nop
        ahead:
            jge top
            hlt
        """, base=base)
    listing = list(disassemble(prog.code, base))
    assert listing[0] == (base, "jz 0x%x" % base)
    text = "\n".join(line for _address, line in listing)
    assert assemble(text, base=base).code == prog.code
    # one line at a time, each at its own address
    for address, line in listing:
        size = decode(prog.code, address - base)[1] - (address - base)
        assert assemble(line, base=address).code == \
            prog.code[address - base:address - base + size]
    # signed displacements stay displacements
    assert assemble("jz -5").code == assemble("top: jz top").code


def test_disassemble_skips_or_stops_on_data():
    data = b"\xff\xfe" + encode(Instruction(Op.NOP))
    assert list(disassemble(data)) == []
    entries = list(disassemble(data, stop_on_error=False))
    assert entries[0][1] == ".byte 0xff"
    assert entries[-1][1] == "nop"


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=2**64 - 1))
def test_mov_text_round_trip(reg, imm):
    from repro.isa.registers import GPR_NAMES

    text = "mov %s, %d" % (GPR_NAMES[reg], imm)
    prog = assemble(text)
    insn, _ = decode(prog.code)
    assert insn.operands == (reg, imm)
    rendered = format_instruction(insn)
    reprog = assemble(rendered.replace("0x", "0x"))
    assert reprog.code == prog.code


def test_suite_images_and_elfies_are_pinned():
    digest = hashlib.sha256()
    apps = {}
    for suite in (SPEC2017_INT_RATE, SPEC2017_FP_RATE, SPEC2017_OMP_SPEED,
                  SPEC2006_SUBSET, MT_APPS):
        apps.update(suite)
    assert len(apps) == 46
    for name in sorted(apps):
        digest.update(name.encode("utf-8"))
        digest.update(apps[name].build("test"))
    options = Pinball2ElfOptions(perf_exit=True,
                                 marker=MarkerSpec("sniper", 0x42))
    for name in ("505.mcf_r", "mt.prodcons"):
        pinball = log_region(get_app(name).build("test"),
                             RegionSpec(start=20_000, length=20_000,
                                        warmup=5_000, name=name + ".r0"))
        digest.update(Pinball2Elf(pinball, options).convert().image)
    assert digest.hexdigest() == PINNED_GUEST_BYTES
