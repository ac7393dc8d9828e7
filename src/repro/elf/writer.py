"""ELF64 file builder.

Produces executables (with one PT_LOAD program header per allocatable
section) or relocatable objects (sections only, no program headers).
Non-allocatable sections — the trick behind the paper's stack-collision
fix (§II-B3) — are present in the file and visible in the section header
table but get no PT_LOAD entry, so the loader never maps them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

from repro.elf.structs import (
    EHDR_SIZE,
    EM_PX,
    ET_EXEC,
    PHDR_SIZE,
    PT_LOAD,
    SHF_ALLOC,
    SHT_NULL,
    SHT_PROGBITS,
    SHT_STRTAB,
    SHT_SYMTAB,
    SYM_SIZE,
    ElfHeader,
    ProgramHeader,
    SectionHeader,
    StringTable,
    Symbol,
    prot_to_pflags,
)


@dataclass
class Section:
    """A section under construction."""

    name: str
    data: bytes
    addr: int = 0
    flags: int = 0
    sh_type: int = SHT_PROGBITS
    align: int = 1
    #: mmap-style PROT bits used to derive the segment flags.
    prot: int = 5  # PROT_READ | PROT_EXEC default

    @property
    def allocatable(self) -> bool:
        return bool(self.flags & SHF_ALLOC)


class ElfBuilder:
    """Accumulates sections and symbols, then lays out an ELF file."""

    def __init__(self, e_type: int = ET_EXEC, entry: int = 0,
                 machine: int = EM_PX) -> None:
        self.e_type = e_type
        self.entry = entry
        self.machine = machine
        self.sections: List[Section] = []
        self.symbols: List[Symbol] = []
        self._names: Dict[str, int] = {}

    def add_section(self, name: str, data: bytes, addr: int = 0,
                    flags: int = 0, sh_type: int = SHT_PROGBITS,
                    align: int = 1, prot: int = 5) -> Section:
        """Add a section; names must be unique."""
        if name in self._names:
            raise ValueError("duplicate section name %r" % name)
        section = Section(name=name, data=bytes(data), addr=addr,
                          flags=flags, sh_type=sh_type, align=align,
                          prot=prot)
        self._names[name] = len(self.sections)
        self.sections.append(section)
        return section

    def add_symbol(self, name: str, value: int, size: int = 0,
                   sym_type: int = 0) -> None:
        """Add a global symbol with an absolute value."""
        self.symbols.append(
            Symbol(name=name, value=value, size=size, sym_type=sym_type)
        )

    def add_relocations(self, vaddrs: "List[int]") -> None:
        """Record image-base relocations in a non-alloc ``.pxreloc``.

        Each entry is the virtual address (at the link-time base) of an
        8-byte slot holding an absolute in-image address; an ASLR loader
        adds its slide to every slot.  The section is not allocatable,
        so non-randomizing loaders never see it.
        """
        if not vaddrs:
            return
        payload = struct.pack("<%dQ" % len(vaddrs), *sorted(vaddrs))
        self.add_section(".pxreloc", payload, addr=0, flags=0,
                        sh_type=SHT_PROGBITS, align=8, prot=0)

    # -- layout ---------------------------------------------------------------

    def build(self) -> bytes:
        """Lay out and serialize the ELF file."""
        shstrtab = StringTable()
        loadable = [s for s in self.sections if s.allocatable]
        phnum = len(loadable) if self.e_type == ET_EXEC else 0

        # File layout: ehdr | phdrs | section data... | symtab | strtab
        #              | shstrtab | shdrs
        offset = EHDR_SIZE + phnum * PHDR_SIZE
        placements: List[int] = []
        for section in self.sections:
            align = max(section.align, 1)
            offset += (-offset) % align
            placements.append(offset)
            offset += len(section.data)

        # Symbol table (if any symbols).
        strtab = StringTable()
        symtab_data = b""
        if self.symbols:
            records = [Symbol(name="", value=0).pack(0)]  # mandatory null sym
            for symbol in self.symbols:
                records.append(symbol.pack(strtab.add(symbol.name)))
            symtab_data = b"".join(records)
        offset += (-offset) % 8
        symtab_offset = offset
        offset += len(symtab_data)
        strtab_data = strtab.bytes() if self.symbols else b""
        strtab_offset = offset
        offset += len(strtab_data)

        # Section header string table and header table offsets.
        headers: List[SectionHeader] = [SectionHeader(sh_type=SHT_NULL)]
        for section, place in zip(self.sections, placements):
            headers.append(
                SectionHeader(
                    sh_name=shstrtab.add(section.name),
                    sh_type=section.sh_type,
                    sh_flags=section.flags,
                    sh_addr=section.addr,
                    sh_offset=place,
                    sh_size=len(section.data),
                    sh_addralign=max(section.align, 1),
                )
            )
        symtab_index = 0
        if self.symbols:
            symtab_index = len(headers)
            headers.append(
                SectionHeader(
                    sh_name=shstrtab.add(".symtab"),
                    sh_type=SHT_SYMTAB,
                    sh_offset=symtab_offset,
                    sh_size=len(symtab_data),
                    sh_link=symtab_index + 1,
                    sh_info=1,
                    sh_entsize=SYM_SIZE,
                    sh_addralign=8,
                )
            )
            headers.append(
                SectionHeader(
                    sh_name=shstrtab.add(".strtab"),
                    sh_type=SHT_STRTAB,
                    sh_offset=strtab_offset,
                    sh_size=len(strtab_data),
                )
            )
        shstrndx = len(headers)
        shstr_name = shstrtab.add(".shstrtab")
        shstrtab_data = shstrtab.bytes()
        shstrtab_offset = offset
        offset += len(shstrtab_data)
        headers.append(
            SectionHeader(
                sh_name=shstr_name,
                sh_type=SHT_STRTAB,
                sh_offset=shstrtab_offset,
                sh_size=len(shstrtab_data),
            )
        )
        offset += (-offset) % 8
        shoff = offset

        ehdr = ElfHeader(
            e_type=self.e_type,
            e_machine=self.machine,
            e_entry=self.entry,
            e_phoff=EHDR_SIZE if phnum else 0,
            e_shoff=shoff,
            e_phnum=phnum,
            e_shnum=len(headers),
            e_shstrndx=shstrndx,
        )

        # Program headers: one PT_LOAD per allocatable section.
        phdrs: List[ProgramHeader] = []
        if phnum:
            for index, section in enumerate(self.sections):
                if not section.allocatable:
                    continue
                phdrs.append(
                    ProgramHeader(
                        p_type=PT_LOAD,
                        p_flags=prot_to_pflags(section.prot),
                        p_offset=placements[index],
                        p_vaddr=section.addr,
                        p_paddr=section.addr,
                        p_filesz=len(section.data),
                        p_memsz=len(section.data),
                    )
                )

        # Serialize.
        out = bytearray()
        out += ehdr.pack()
        for phdr in phdrs:
            out += phdr.pack()
        for section, place in zip(self.sections, placements):
            out += b"\x00" * (place - len(out))
            out += section.data
        out += b"\x00" * (symtab_offset - len(out))
        out += symtab_data
        out += strtab_data
        out += b"\x00" * (shstrtab_offset - len(out))
        out += shstrtab_data
        out += b"\x00" * (shoff - len(out))
        for header in headers:
            out += header.pack()
        return bytes(out)
