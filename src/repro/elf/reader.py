"""ELF64 file parser.

Parses files produced by :class:`repro.elf.writer.ElfBuilder` (and any
structurally similar ELF64).  Used by the loader (program headers), by
debugging helpers (sections, symbols), and by tests that verify ELFie
structure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.elf.structs import (
    EHDR_SIZE,
    PHDR_SIZE,
    SHDR_SIZE,
    SHT_SYMTAB,
    SYM_SIZE,
    ElfHeader,
    ProgramHeader,
    SectionHeader,
    Symbol,
)


class ElfFormatError(Exception):
    """Raised when a file is not a parseable ELF64 image."""


@dataclass
class ParsedSection:
    """A section with its resolved name and contents."""

    name: str
    header: SectionHeader
    data: bytes

    @property
    def addr(self) -> int:
        return self.header.sh_addr

    @property
    def flags(self) -> int:
        return self.header.sh_flags


class ElfFile:
    """A parsed ELF file."""

    def __init__(self, data: bytes) -> None:
        if len(data) < EHDR_SIZE:
            raise ElfFormatError("file too small for an ELF header")
        try:
            self.header = ElfHeader.unpack(data)
        except ValueError as exc:
            raise ElfFormatError(str(exc)) from exc
        self.data = bytes(data)
        self.segments: List[ProgramHeader] = []
        for i in range(self.header.e_phnum):
            offset = self.header.e_phoff + i * PHDR_SIZE
            if offset + PHDR_SIZE > len(data):
                raise ElfFormatError("program header table out of bounds")
            self.segments.append(ProgramHeader.unpack(data, offset))
        raw_sections: List[SectionHeader] = []
        for i in range(self.header.e_shnum):
            offset = self.header.e_shoff + i * SHDR_SIZE
            if offset + SHDR_SIZE > len(data):
                raise ElfFormatError("section header table out of bounds")
            raw_sections.append(SectionHeader.unpack(data, offset))
        shstrtab = b""
        if raw_sections and self.header.e_shstrndx < len(raw_sections):
            sh = raw_sections[self.header.e_shstrndx]
            shstrtab = data[sh.sh_offset : sh.sh_offset + sh.sh_size]
        self.sections: List[ParsedSection] = []
        for sh in raw_sections:
            name = ""
            if shstrtab and sh.sh_name < len(shstrtab):
                end = shstrtab.index(b"\x00", sh.sh_name)
                name = shstrtab[sh.sh_name:end].decode("utf-8", "replace")
            body = data[sh.sh_offset : sh.sh_offset + sh.sh_size]
            self.sections.append(ParsedSection(name=name, header=sh, data=body))
        self._symbols: Optional[List[Symbol]] = None

    @property
    def entry(self) -> int:
        return self.header.e_entry

    def section(self, name: str) -> ParsedSection:
        """Find a section by name."""
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError("no section named %r" % name)

    def segment_data(self, segment: ProgramHeader) -> bytes:
        """File bytes backing a segment, zero-padded to p_memsz."""
        body = self.data[segment.p_offset : segment.p_offset + segment.p_filesz]
        if segment.p_memsz > segment.p_filesz:
            body += b"\x00" * (segment.p_memsz - segment.p_filesz)
        return body

    @property
    def symbols(self) -> List[Symbol]:
        """Symbols from .symtab (empty if none)."""
        if self._symbols is None:
            self._symbols = []
            for section in self.sections:
                if section.header.sh_type != SHT_SYMTAB:
                    continue
                link = section.header.sh_link
                strtab = b""
                if link < len(self.sections):
                    strtab = self.sections[link].data
                count = len(section.data) // SYM_SIZE
                for i in range(1, count):  # skip the null symbol
                    self._symbols.append(
                        Symbol.unpack(section.data, i * SYM_SIZE, strtab)
                    )
        return self._symbols

    def symbol_map(self) -> Dict[str, int]:
        """Mapping from symbol name to value (later entries win)."""
        return {symbol.name: symbol.value for symbol in self.symbols}

    def relocations(self) -> List[int]:
        """Image-base relocation vaddrs from ``.pxreloc`` (empty if none).

        Each is the link-time virtual address of an 8-byte slot holding
        an absolute in-image address; an ASLR loader adds its slide to
        the slot and to the address stored there.
        """
        for section in self.sections:
            if section.name == ".pxreloc":
                count = len(section.data) // 8
                return list(struct.unpack("<%dQ" % count, section.data[:count * 8]))
        return []
