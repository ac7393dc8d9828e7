"""Two-pass assembler for PX assembly text.

The syntax is deliberately close to AT&T-free Intel syntax::

    start:
        mov rax, 60          ; register, immediate or label
        ld rbx, [rax+8]      ; 8-byte load
        st [rbx-16], rcx
        add rax, rbx
        cmp rax, 100
        jl start
        syscall
    table:
        .quad start          ; label value as data (thread-entry tables)
        .long 5
        .byte 0xff
        .ascii "hello"
        .zero 16
        .align 8

Labels may be used as 64-bit immediates (``mov rax, label``), as branch
targets, and in ``.quad`` data — exactly what ELFie startup code needs
for its thread-entry tables — but not as 32-bit immediates.  An integer
branch target is an absolute address when unsigned (``jz 0x1000``, as
a disassembly listing prints it) and a displacement from the next
instruction when signed (``jz -5``).

Opcode selection is one dict lookup, ``(mnemonic, operand kinds) -> Op``,
built at import from ``instructions.MNEMONIC`` (the table the
disassembler prints), ``OPCODE_TABLE`` and the kinds each operand
accepts (``_ACCEPTS``).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.encoding import encode
from repro.isa.instructions import (
    Instruction,
    MNEMONIC,
    Op,
    OP_SIZE,
    OPCODE_TABLE,
    OPERAND_SIZE,
    Operand,
)
from repro.isa.registers import GPR_INDEX, XMM_INDEX


class AssemblyError(Exception):
    """Raised on any syntax or semantic error in assembly input."""


@dataclass(frozen=True)
class LabelRef:
    """A symbolic reference resolved during the second pass; an empty
    *name* stands for the absolute address *addend*."""

    name: str
    addend: int = 0


# Internal operand classification produced by the parser.
_REG = "reg"
_XREG = "xreg"
_IMM = "imm"
_FLT = "flt"
_MEM = "mem"
_SYM = "sym"
_MEMABS = "memabs"   # [label] — expanded via the r11 scratch register

#: Register used to expand absolute memory operands ([label]); by
#: convention r11 is a caller-clobbered scratch register (as on x86-64,
#: where the kernel clobbers it on syscall).
SCRATCH_REG = 11


@dataclass
class _Item:
    """One assembled item: an instruction or a data directive blob."""

    kind: str                      # "insn" | "data"
    size: int
    op: Optional[Op] = None
    operands: Tuple[object, ...] = ()
    data: bytes = b""
    sym_quads: List[Tuple[int, LabelRef]] = field(default_factory=list)
    line: int = 0


@dataclass
class AssembledProgram:
    """Result of assembling a source text or emit sequence.

    ``relocs`` lists the byte offsets (relative to ``base``) of every
    8-byte field holding a label's *absolute* address — MOV_RI/JMPABS
    immediates and ``.quad label`` slots.  A loader sliding the image
    (ASLR) must add the slide to each of these; REL32 branches are
    PC-relative and need no fixup.
    """

    base: int
    code: bytes
    labels: Dict[str, int]
    relocs: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.code)


def _unescape(text: str) -> bytes:
    """Process C-style escapes (\\n, \\t, \\0, \\\\, \\") in string literals."""
    return (
        text.encode("utf-8")
        .decode("unicode_escape")
        .encode("latin-1")
    )


def _parse_int(token: str) -> int:
    return int(token, 0)


def _is_int(token: str) -> bool:
    try:
        int(token, 0)
        return True
    except ValueError:
        return False


def _is_float(token: str) -> bool:
    if _is_int(token):
        return False
    try:
        float(token)
        return True
    except ValueError:
        return False


def _split_operands(text: str) -> List[str]:
    """Split an operand string on commas not inside brackets or quotes."""
    parts: List[str] = []
    depth = 0
    in_str = False
    current = []
    for ch in text:
        if ch == '"':
            in_str = not in_str
            current.append(ch)
        elif ch == "[" and not in_str:
            depth += 1
            current.append(ch)
        elif ch == "]" and not in_str:
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0 and not in_str:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _classify(token: str) -> Tuple[str, object]:
    """Classify one operand token into (kind, value)."""
    if token.startswith("["):
        if not token.endswith("]"):
            raise AssemblyError("malformed memory operand %r" % token)
        inner = token[1:-1].strip()
        # forms: reg | reg+imm | reg-imm
        for sep, sign in (("+", 1), ("-", -1)):
            idx = inner.find(sep)
            if idx > 0:
                base_tok = inner[:idx].strip()
                disp_tok = inner[idx + 1 :].strip()
                if base_tok not in GPR_INDEX:
                    raise AssemblyError("unknown base register %r" % base_tok)
                if not _is_int(disp_tok):
                    raise AssemblyError("bad displacement %r" % disp_tok)
                return _MEM, (GPR_INDEX[base_tok], sign * _parse_int(disp_tok))
        if inner not in GPR_INDEX:
            # absolute addressing: [label] or [label+off]
            kind, value = _classify(inner)
            if kind == _SYM or kind == _IMM:
                return _MEMABS, value
            raise AssemblyError("unknown base register %r" % inner)
        return _MEM, (GPR_INDEX[inner], 0)
    if token in GPR_INDEX:
        return _REG, GPR_INDEX[token]
    if token in XMM_INDEX:
        return _XREG, XMM_INDEX[token]
    if _is_int(token):
        return _IMM, _parse_int(token)
    if _is_float(token):
        return _FLT, float(token)
    # label, possibly label+addend
    for sep, sign in (("+", 1), ("-", -1)):
        idx = token.find(sep)
        if idx > 0:
            name = token[:idx].strip()
            off = token[idx + 1 :].strip()
            if _is_int(off) and name.isidentifier():
                return _SYM, LabelRef(name, sign * _parse_int(off))
    if not token.replace(".", "_").replace("$", "_").isidentifier():
        raise AssemblyError("cannot parse operand %r" % token)
    return _SYM, LabelRef(token)


#: Parsed operand kinds each encoded operand kind accepts: a label
#: stands for a 64-bit immediate or a branch target, never for a 32-bit
#: immediate, and an integer is a valid float immediate.
_ACCEPTS: Dict[Operand, Tuple[str, ...]] = {
    Operand.R: (_REG,), Operand.X: (_XREG,), Operand.M: (_MEM,),
    Operand.I32: (_IMM,), Operand.I64: (_IMM, _SYM),
    Operand.REL32: (_IMM, _SYM), Operand.F64: (_FLT, _IMM),
}

#: Extra spellings of existing mnemonics.
_ALIASES = {"je": "jz", "jne": "jnz"}


def _build_syntax() -> Dict[Tuple[str, Tuple[str, ...]], Op]:
    """(mnemonic, parsed operand kinds) -> Op, aliases included."""
    syntax: Dict[Tuple[str, Tuple[str, ...]], Op] = {}
    for op, operands in OPCODE_TABLE.items():
        names = [MNEMONIC[op]] + [alias for alias, name in _ALIASES.items()
                                  if name == MNEMONIC[op]]
        shapes = itertools.product(*(_ACCEPTS[o] for o in operands))
        for key in itertools.product(names, shapes):
            assert key not in syntax, "ambiguous PX syntax %r" % (key,)
            syntax[key] = op
    return syntax


_SYNTAX = _build_syntax()
_KNOWN_MNEMONICS = frozenset(mnemonic for mnemonic, _ in _SYNTAX)
#: op -> index of its REL32 branch-target operand
_REL32_SLOT = {op: operands.index(Operand.REL32)
               for op, operands in OPCODE_TABLE.items()
               if Operand.REL32 in operands}


def _select_op(mnemonic: str, kinds: Sequence[str], line: int) -> Op:
    """Pick the opcode for *mnemonic* given classified operand kinds."""
    op = _SYNTAX.get((mnemonic, tuple(kinds)))
    if op is not None:
        return op
    if mnemonic in _KNOWN_MNEMONICS:
        raise AssemblyError(
            "line %d: bad operands for %r: %s" % (line, mnemonic, list(kinds))
        )
    raise AssemblyError("line %d: unknown mnemonic %r" % (line, mnemonic))


class Assembler:
    """Two-pass PX assembler.

    Use :meth:`add` to feed source text (possibly in several chunks) and
    :meth:`assemble` to produce the final :class:`AssembledProgram`.
    """

    def __init__(self, base: int = 0) -> None:
        self.base = base
        self._items: List[_Item] = []
        self._labels: Dict[str, int] = {}  # label -> offset from base
        self._offset = 0
        self._line_no = 0

    # -- source interface ------------------------------------------------

    def add(self, text: str) -> "Assembler":
        """Parse and append assembly source text.  Returns self."""
        for raw_line in text.splitlines():
            self._line_no += 1
            self._parse_line(raw_line)
        return self

    def define_label(self, name: str) -> None:
        """Define *name* at the current offset."""
        if name in self._labels:
            raise AssemblyError("duplicate label %r" % name)
        self._labels[name] = self._offset

    def emit_bytes(self, data: bytes) -> None:
        """Append raw data bytes at the current offset."""
        self._items.append(_Item(kind="data", size=len(data), data=bytes(data)))
        self._offset += len(data)

    def emit_quad_label(self, ref: Union[str, LabelRef]) -> None:
        """Append an 8-byte slot holding a label's absolute address."""
        if isinstance(ref, str):
            ref = LabelRef(ref)
        item = _Item(kind="data", size=8, data=b"\x00" * 8,
                     sym_quads=[(0, ref)])
        self._items.append(item)
        self._offset += 8

    @property
    def current_offset(self) -> int:
        return self._offset

    # -- parsing ----------------------------------------------------------

    def _parse_line(self, raw_line: str) -> None:
        # strip comments (';' or '#'), respecting string literals
        line = []
        in_str = False
        for ch in raw_line:
            if ch == '"':
                in_str = not in_str
            if ch in ";#" and not in_str:
                break
            line.append(ch)
        text = "".join(line).strip()
        if not text:
            return
        # labels (possibly several on one line)
        while True:
            idx = text.find(":")
            if idx <= 0:
                break
            head = text[:idx].strip()
            if not head.replace(".", "_").replace("$", "_").isidentifier():
                break
            self.define_label(head)
            text = text[idx + 1 :].strip()
        if not text:
            return
        if text.startswith("."):
            self._parse_directive(text)
            return
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        tokens = _split_operands(operand_text)
        classified = [_classify(tok) for tok in tokens]
        kinds = [kind for kind, _ in classified]
        values = [value for _, value in classified]
        # Expand absolute memory operands ([label]) through the scratch
        # register: "ld rax, [flag]" -> "mov r11, flag; ld rax, [r11]".
        abs_indices = [i for i, kind in enumerate(kinds) if kind == _MEMABS]
        if len(abs_indices) > 1:
            raise AssemblyError(
                "line %d: at most one absolute memory operand" % self._line_no
            )
        if abs_indices:
            index = abs_indices[0]
            self._emit_insn(Op.MOV_RI, (SCRATCH_REG, values[index]))
            kinds[index] = _MEM
            values[index] = (SCRATCH_REG, 0)
        # Expand ALU/cmp immediates wider than 32 bits through the
        # scratch register: "imul rbx, BIGCONST" ->
        # "mov r11, BIGCONST; imul rbx, r11".
        if (
            mnemonic != "mov"
            and kinds == [_REG, _IMM]
            and not -(1 << 31) <= int(values[1]) < (1 << 31)
        ):
            if values[0] == SCRATCH_REG:
                raise AssemblyError(
                    "line %d: r11 is the assembler scratch register and "
                    "cannot take a wide immediate" % self._line_no
                )
            self._emit_insn(Op.MOV_RI, (SCRATCH_REG, values[1]))
            kinds[1] = _REG
            values[1] = SCRATCH_REG
        op = _select_op(mnemonic, kinds, self._line_no)
        slot = _REL32_SLOT.get(op)
        if (slot is not None and kinds[slot] == _IMM
                and tokens[slot][0] not in "+-"):
            # an unsigned integer branch target is an absolute address
            values[slot] = LabelRef("", int(values[slot]))
        self._emit_insn(op, tuple(values))

    def _emit_insn(self, op: Op, operands: Tuple[object, ...]) -> None:
        self._items.append(_Item(kind="insn", size=OP_SIZE[op], op=op,
                                 operands=operands, line=self._line_no))
        self._offset += OP_SIZE[op]

    def _parse_directive(self, text: str) -> None:
        parts = text.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name == ".quad":
            for tok in _split_operands(arg):
                if _is_int(tok):
                    self.emit_bytes(struct.pack("<Q", _parse_int(tok) & ((1 << 64) - 1)))
                else:
                    kind, value = _classify(tok)
                    if kind != _SYM:
                        raise AssemblyError(".quad takes ints or labels, got %r" % tok)
                    self.emit_quad_label(value)  # type: ignore[arg-type]
        elif name == ".long":
            for tok in _split_operands(arg):
                self.emit_bytes(struct.pack("<I", _parse_int(tok) & 0xFFFFFFFF))
        elif name == ".byte":
            for tok in _split_operands(arg):
                self.emit_bytes(bytes([_parse_int(tok) & 0xFF]))
        elif name == ".double":
            for tok in _split_operands(arg):
                self.emit_bytes(struct.pack("<d", float(tok)))
        elif name == ".ascii":
            if not (arg.startswith('"') and arg.endswith('"')):
                raise AssemblyError(".ascii requires a quoted string")
            self.emit_bytes(_unescape(arg[1:-1]))
        elif name == ".asciz":
            if not (arg.startswith('"') and arg.endswith('"')):
                raise AssemblyError(".asciz requires a quoted string")
            self.emit_bytes(_unescape(arg[1:-1]) + b"\x00")
        elif name == ".zero":
            self.emit_bytes(b"\x00" * _parse_int(arg))
        elif name == ".align":
            align = _parse_int(arg)
            if align <= 0 or align & (align - 1):
                raise AssemblyError(".align requires a power of two")
            pad = (-self._offset) % align
            if pad:
                self.emit_bytes(b"\x00" * pad)
        else:
            raise AssemblyError("unknown directive %r" % name)

    # -- second pass -------------------------------------------------------

    def _resolve(self, ref: LabelRef) -> int:
        """Absolute address of a label reference."""
        if not ref.name:
            return ref.addend
        if ref.name not in self._labels:
            raise AssemblyError("undefined label %r" % ref.name)
        return self.base + self._labels[ref.name] + ref.addend

    def assemble(self) -> AssembledProgram:
        """Run the second pass and produce the final program bytes."""
        out = bytearray()
        offset = 0
        relocs: List[int] = []
        for item in self._items:
            if item.kind == "data":
                blob = bytearray(item.data)
                for pos, ref in item.sym_quads:
                    addr = self._resolve(ref)
                    struct.pack_into("<Q", blob, pos, addr & ((1 << 64) - 1))
                    relocs.append(offset + pos)
                out += blob
            else:
                assert item.op is not None
                pc_after = self.base + offset + item.size
                resolved = []
                field_offset = offset + 1  # past the opcode byte
                for kind, value in zip(OPCODE_TABLE[item.op], item.operands):
                    # The syntax table admits labels only as REL32 branch
                    # targets and I64 immediates.
                    if isinstance(value, LabelRef):
                        value = self._resolve(value)
                        if kind == Operand.REL32:
                            value -= pc_after
                        else:
                            # Absolute address baked into an 8-byte
                            # immediate (MOV_RI / JMPABS): slid by the
                            # ASLR loader.
                            relocs.append(field_offset)
                    resolved.append(value)
                    field_offset += OPERAND_SIZE[kind]
                out += encode(Instruction(item.op, tuple(resolved)))
            offset += item.size
        labels = {name: self.base + off for name, off in self._labels.items()}
        return AssembledProgram(base=self.base, code=bytes(out), labels=labels,
                                relocs=relocs)


def assemble(text: str, base: int = 0) -> AssembledProgram:
    """Assemble *text* at the given base address."""
    return Assembler(base=base).add(text).assemble()
