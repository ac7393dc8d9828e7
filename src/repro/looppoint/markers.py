"""Loop-marker harvesting: static back-edge discovery over a PX image.

LoopPoint replaces fixed instruction-count slice boundaries with *loop
entry markers*: addresses of loop heads whose dynamic crossing counts
measure global program progress.  Because we control the loader, the
harvester can walk the executable segments of the ELF image directly,
decode the (fixed-size) PX instruction stream linearly, and find every
backward REL32 branch; the branch target is a loop head and becomes a
marker.

Markers are **module+offset-relative**, never absolute: a marker is
``(module identity, offset from the module's text base)``, so the map
survives relocation/ASLR — loading the same module at a different base
yields the same map (see the round-trip test).  ``resolve`` turns the
map into absolute addresses for one concrete load base.

Synchronization code must not count as progress (spinning is not work):
a loop whose body contains a ``pause`` (the builder's active-wait
barrier idiom) or a futex syscall (``mov rax, 202`` + ``syscall``, the
futex wait-loop idiom) is classified as a *sync* marker and excluded
from both the global progress count and the per-slice vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.elf.reader import ElfFile
from repro.elf.structs import PF_X, PT_LOAD
from repro.isa.encoding import InstructionDecodeError, decode
from repro.isa.instructions import BRANCH_OPS, Instruction, Op

#: Bump when the map encoding changes: :meth:`MarkerMap.from_json`
#: reads one layout, without defaults, and rejects a map of another
#: version.
MARKER_MAP_VERSION = 1

#: rax is GPR index 0; futex is syscall 202 (x86-64 numbering).
_RAX = 0
_SYS_FUTEX = 202


def module_id(image: bytes) -> str:
    """Content identity of a loaded module (stable across load bases
    only insofar as the *file* is unchanged; relocation happens at map
    resolution time, not in the identity)."""
    return hashlib.sha256(image).hexdigest()[:16]


@dataclass(frozen=True)
class MarkerPoint:
    """One dynamic region boundary: the *count*-th global crossing of
    the marker at ``module+offset``.

    This is the LoopPoint region-boundary representation: a pair of
    MarkerPoints delimits a region independently of instruction counts
    and of the module's load address.
    """

    module: str
    offset: int
    count: int

    def to_json(self) -> dict:
        return {"module": self.module, "offset": self.offset,
                "count": self.count}

    @classmethod
    def from_json(cls, data: dict) -> "MarkerPoint":
        return cls(module=data["module"], offset=int(data["offset"]),
                   count=int(data["count"]))


@dataclass(frozen=True)
class LoopMarker:
    """A harvested loop head, module+offset-relative."""

    #: Loop-head offset from the module's text base.
    offset: int
    #: Offset of the backward branch that closes the loop.
    backedge: int
    #: "loop" (real work), "spin" (pause idiom), "futex" (wait loop).
    kind: str = "loop"
    #: Nearest preceding symbol, for human-readable reports.
    symbol: str = ""

    @property
    def is_sync(self) -> bool:
        return self.kind != "loop"

    def to_json(self) -> dict:
        return {"offset": self.offset, "backedge": self.backedge,
                "kind": self.kind, "symbol": self.symbol}

    @classmethod
    def from_json(cls, data: dict) -> "LoopMarker":
        return cls(offset=int(data["offset"]),
                   backedge=int(data["backedge"]),
                   kind=data["kind"], symbol=data["symbol"])


@dataclass
class MarkerMap:
    """The harvested marker set for one module.

    Offsets are relative to ``text_base`` — the lowest executable
    segment address the module was *linked* at.  ``resolve(base)``
    produces the absolute-address lookup table for a module *loaded*
    at ``base`` (defaults to the link base; under ASLR the loader
    passes the actual mapping address).
    """

    module: str
    text_base: int
    markers: List[LoopMarker] = field(default_factory=list)
    version: int = MARKER_MAP_VERSION

    @property
    def work_markers(self) -> List[LoopMarker]:
        return [m for m in self.markers if not m.is_sync]

    @property
    def sync_markers(self) -> List[LoopMarker]:
        return [m for m in self.markers if m.is_sync]

    def resolve(self, base: Optional[int] = None) -> Dict[int, LoopMarker]:
        """Absolute loop-head address -> marker, for one load base."""
        if base is None:
            base = self.text_base
        return {base + marker.offset: marker for marker in self.markers}

    def work_addresses(self, base: Optional[int] = None) -> set:
        """Absolute addresses of the work (non-sync) loop heads."""
        if base is None:
            base = self.text_base
        return {base + marker.offset for marker in self.work_markers}

    def point(self, offset: int, count: int) -> MarkerPoint:
        return MarkerPoint(module=self.module, offset=offset, count=count)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "module": self.module,
            "text_base": self.text_base,
            "markers": [marker.to_json() for marker in self.markers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkerMap":
        """The map :meth:`to_json` wrote; a map of another version
        raises ValueError."""
        if data["version"] != MARKER_MAP_VERSION:
            raise ValueError("marker map v%s not supported (expected v%d)"
                             % (data["version"], MARKER_MAP_VERSION))
        return cls(
            module=data["module"],
            text_base=int(data["text_base"]),
            markers=[LoopMarker.from_json(m) for m in data["markers"]],
        )


def _decode_segment(data: bytes, base: int) -> List[Tuple[int, Instruction]]:
    """Linearly decode one executable segment (PX opcodes are fixed
    size, and generated text segments are pure instruction streams)."""
    instructions: List[Tuple[int, Instruction]] = []
    offset = 0
    while offset < len(data):
        try:
            insn, next_offset = decode(data, offset)
        except InstructionDecodeError:
            break  # zero-padding tail / non-code bytes: stop cleanly
        instructions.append((base + offset, insn))
        offset = next_offset
    return instructions


def _classify_body(body: List[Instruction]) -> str:
    """Spin/sync classification of one loop body.

    ``pause`` marks the builder's active-wait barrier idiom; a futex
    syscall (``mov rax, 202`` dominating a ``syscall``) marks a futex
    wait loop.  Either way, iterating the loop is synchronization, not
    forward progress.
    """
    rax_is_futex = False
    for insn in body:
        if insn.op is Op.PAUSE:
            return "spin"
        if insn.op is Op.MOV_RI and insn.operands[0] == _RAX:
            rax_is_futex = insn.operands[1] == _SYS_FUTEX
        elif insn.op is Op.SYSCALL and rax_is_futex:
            return "futex"
    return "loop"


_KIND_RANK = {"loop": 0, "spin": 1, "futex": 2}


def harvest_markers(image: bytes) -> MarkerMap:
    """Walk *image*'s executable segments and emit its marker map."""
    elf = ElfFile(image)
    exec_segments = [s for s in elf.segments
                     if s.p_type == PT_LOAD and s.p_flags & PF_X]
    if not exec_segments:
        raise ValueError("image has no executable segments")
    text_base = min(s.p_vaddr for s in exec_segments)

    # symbol spans, for attaching a human-readable name to each head
    symbols = sorted(
        ((addr, name) for name, addr in elf.symbol_map().items()),
        key=lambda pair: (pair[0], pair[1]))

    def nearest_symbol(addr: int) -> str:
        best = ""
        for sym_addr, name in symbols:
            if sym_addr > addr:
                break
            best = name
        return best

    heads: Dict[int, LoopMarker] = {}
    for segment in exec_segments:
        data = elf.data[segment.p_offset:segment.p_offset + segment.p_filesz]
        instructions = _decode_segment(data, segment.p_vaddr)
        index_of = {addr: i for i, (addr, _) in enumerate(instructions)}
        for i, (addr, insn) in enumerate(instructions):
            if insn.op not in BRANCH_OPS or insn.op is Op.CALL:
                continue
            target = addr + insn.size + insn.operands[0]
            if target > addr or target not in index_of:
                continue  # forward branch, or target outside this segment
            body = [body_insn for _, body_insn
                    in instructions[index_of[target]:i + 1]]
            kind = _classify_body(body)
            marker = LoopMarker(offset=target - text_base,
                                backedge=addr - text_base,
                                kind=kind,
                                symbol=nearest_symbol(target))
            previous = heads.get(target)
            # several back-edges can share a head (continue statements);
            # the most synchronization-like classification wins
            if (previous is None
                    or _KIND_RANK[kind] > _KIND_RANK[previous.kind]):
                heads[target] = marker
    return MarkerMap(
        module=module_id(image),
        text_base=text_base,
        markers=[heads[addr] for addr in sorted(heads)],
    )
