"""Linker-script model for ELFie object linking (paper §II-B5).

When ``pinball2elf`` emits an object file instead of an executable, it
also emits a linker script recording the parent pinball's memory layout
so that a user can link the ELFie object with their own callback object
while preserving every section's virtual address.  This module models
that script: it can be rendered to GNU-ld-like text and used by
:meth:`LinkerScript.link` to combine an ELFie object with a user object
into a final executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.elf.reader import ElfFile
from repro.elf.structs import ET_EXEC, SHF_ALLOC
from repro.elf.writer import ElfBuilder


@dataclass(frozen=True)
class LinkerRegion:
    """One fixed-address output section from the parent pinball."""

    section: str
    address: int
    size: int


@dataclass
class LinkerScript:
    """The memory layout of an ELFie, as a linkable contract."""

    entry_symbol: str
    regions: List[LinkerRegion] = field(default_factory=list)
    #: Address range reserved for user callback code sections.
    user_code_base: int = 0

    def render(self) -> str:
        """Render as GNU-ld-style linker script text."""
        lines = ["/* pinball2elf generated linker script */",
                 "ENTRY(%s)" % self.entry_symbol,
                 "SECTIONS", "{"]
        for region in self.regions:
            lines.append(
                "  %s 0x%x : { *(%s) } /* size 0x%x */"
                % (region.section, region.address, region.section, region.size)
            )
        if self.user_code_base:
            lines.append(
                "  .text.user 0x%x : { *(.text.user) }" % self.user_code_base
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LinkerScript":
        """Parse text produced by :meth:`render`."""
        entry = ""
        regions: List[LinkerRegion] = []
        user_base = 0
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("ENTRY(") and line.endswith(")"):
                entry = line[len("ENTRY("):-1]
            elif line.startswith(".") and " : " in line:
                name, rest = line.split(None, 1)
                addr_text = rest.split(None, 1)[0]
                address = int(addr_text, 16)
                size = 0
                if "size 0x" in line:
                    size = int(line.split("size 0x")[1].split()[0].rstrip("*/ "), 16)
                if name == ".text.user":
                    user_base = address
                else:
                    regions.append(LinkerRegion(name, address, size))
        if not entry:
            raise ValueError("linker script has no ENTRY")
        return cls(entry_symbol=entry, regions=regions,
                   user_code_base=user_base)

    def link(self, elfie_object: ElfFile, user_object: Optional[ElfFile],
             entry: int) -> bytes:
        """Link an ELFie object (plus optional user object) into an
        executable, preserving the pinball memory layout.

        Sections from the user object must not overlap the pinball
        layout; they are placed at their recorded addresses (the user
        object is expected to have been built against this script, i.e.
        its allocatable sections carry their final addresses).
        """
        builder = ElfBuilder(e_type=ET_EXEC, entry=entry)
        claimed: List[LinkerRegion] = []

        def claim(name: str, addr: int, size: int) -> None:
            for region in claimed:
                if addr < region.address + region.size and region.address < addr + size:
                    raise ValueError(
                        "section %s at 0x%x overlaps %s at 0x%x"
                        % (name, addr, region.section, region.address)
                    )
            claimed.append(LinkerRegion(name, addr, size))

        for source in filter(None, [elfie_object, user_object]):
            for section in source.sections:
                if not section.name or not section.flags & SHF_ALLOC:
                    continue
                if not section.addr:
                    continue
                claim(section.name, section.addr, len(section.data))
                prot = 1
                if section.flags & 0x1:  # SHF_WRITE
                    prot |= 2
                if section.flags & 0x4:  # SHF_EXECINSTR
                    prot |= 4
                builder.add_section(
                    section.name, section.data, addr=section.addr,
                    flags=section.flags, prot=prot,
                )
        for source in filter(None, [elfie_object, user_object]):
            for symbol in source.symbols:
                builder.add_symbol(symbol.name, symbol.value, symbol.size,
                                   symbol.sym_type)
        return builder.build()
