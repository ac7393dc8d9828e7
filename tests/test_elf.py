"""Tests for the ELF64 writer/reader and linker script."""

import pytest
from hypothesis import given, strategies as st

from repro.elf import (
    ElfBuilder,
    ElfFile,
    ElfFormatError,
    ET_EXEC,
    ET_REL,
    LinkerScript,
    PF_R,
    PF_X,
    PT_LOAD,
    SHF_ALLOC,
    SHF_EXECINSTR,
    SHF_WRITE,
)
from repro.elf.structs import EM_PX


def _simple_exec():
    builder = ElfBuilder(entry=0x400010)
    builder.add_section(".text", b"\x00" * 64, addr=0x400000,
                        flags=SHF_ALLOC | SHF_EXECINSTR, prot=5)
    builder.add_section(".data", b"DATA", addr=0x600000,
                        flags=SHF_ALLOC | SHF_WRITE, prot=3)
    builder.add_symbol("_start", 0x400010)
    builder.add_symbol("blob", 0x600000, size=4)
    return builder.build()


def test_header_round_trip():
    elf = ElfFile(_simple_exec())
    assert elf.header.e_type == ET_EXEC
    assert elf.header.e_machine == EM_PX
    assert elf.entry == 0x400010


def test_magic_bytes():
    image = _simple_exec()
    assert image[:4] == b"\x7fELF"
    assert image[4] == 2  # ELFCLASS64
    assert image[5] == 1  # little-endian


def test_sections_round_trip():
    elf = ElfFile(_simple_exec())
    names = [section.name for section in elf.sections]
    assert ".text" in names and ".data" in names
    assert elf.section(".data").data == b"DATA"
    assert elf.section(".text").addr == 0x400000


def test_program_headers_cover_alloc_sections_only():
    builder = ElfBuilder(entry=0x400000)
    builder.add_section(".text", b"\x01" * 8, addr=0x400000,
                        flags=SHF_ALLOC | SHF_EXECINSTR, prot=5)
    builder.add_section(".stack.7ffd", b"\x02" * 8, addr=0x7FFD0000,
                        flags=0, prot=3)  # non-allocatable: no segment
    elf = ElfFile(builder.build())
    loads = [s for s in elf.segments if s.p_type == PT_LOAD]
    assert len(loads) == 1
    assert loads[0].p_vaddr == 0x400000
    assert loads[0].p_flags == PF_R | PF_X
    # the section is still in the file
    assert elf.section(".stack.7ffd").data == b"\x02" * 8


def test_segment_data_zero_pads_to_memsz():
    elf = ElfFile(_simple_exec())
    seg = elf.segments[0]
    data = elf.segment_data(seg)
    assert len(data) == seg.p_memsz


def test_symbols_round_trip():
    elf = ElfFile(_simple_exec())
    symbols = elf.symbol_map()
    assert symbols["_start"] == 0x400010
    assert symbols["blob"] == 0x600000
    blob = [s for s in elf.symbols if s.name == "blob"][0]
    assert blob.size == 4


def test_relocatable_object_has_no_segments():
    builder = ElfBuilder(e_type=ET_REL)
    builder.add_section(".text.page1", b"\x00" * 16, addr=0x400000,
                        flags=SHF_ALLOC | SHF_EXECINSTR)
    elf = ElfFile(builder.build())
    assert elf.header.e_type == ET_REL
    assert elf.segments == []
    assert elf.section(".text.page1").addr == 0x400000


def test_duplicate_section_name_rejected():
    builder = ElfBuilder()
    builder.add_section(".text", b"", addr=0)
    with pytest.raises(ValueError):
        builder.add_section(".text", b"", addr=0)


def test_bad_magic_rejected():
    with pytest.raises(ElfFormatError):
        ElfFile(b"MZ" + b"\x00" * 100)
    with pytest.raises(ElfFormatError):
        ElfFile(b"\x7fELF")  # too short


def test_many_sections_round_trip():
    builder = ElfBuilder(entry=0x1000)
    for i in range(50):
        builder.add_section(".data.%x" % (0x10000 + i * 0x1000),
                            bytes([i]) * 32, addr=0x10000 + i * 0x1000,
                            flags=SHF_ALLOC | SHF_WRITE, prot=3)
    elf = ElfFile(builder.build())
    assert len(elf.sections) >= 50
    for i in range(50):
        section = elf.section(".data.%x" % (0x10000 + i * 0x1000))
        assert section.data == bytes([i]) * 32


@given(st.lists(st.binary(min_size=0, max_size=128), min_size=1, max_size=8))
def test_section_contents_round_trip_property(blobs):
    builder = ElfBuilder(entry=0)
    for i, blob in enumerate(blobs):
        builder.add_section(".s%d" % i, blob, addr=0x1000 * (i + 1),
                            flags=SHF_ALLOC, prot=1)
    elf = ElfFile(builder.build())
    for i, blob in enumerate(blobs):
        assert elf.section(".s%d" % i).data == blob


def test_linker_script_render_parse_round_trip():
    from repro.elf.linkscript import LinkerRegion

    script = LinkerScript(entry_symbol="_start")

    script.regions.append(LinkerRegion(".text.400000", 0x400000, 0x2000))
    script.regions.append(LinkerRegion(".data.600000", 0x600000, 0x1000))
    script.user_code_base = 0x10000000
    text = script.render()
    parsed = LinkerScript.parse(text)
    assert parsed.entry_symbol == "_start"
    assert parsed.regions == script.regions
    assert parsed.user_code_base == 0x10000000


def test_linker_script_link_rejects_overlap():
    from repro.elf.linkscript import LinkerRegion

    builder_a = ElfBuilder(e_type=ET_REL)
    builder_a.add_section(".text.a", b"\x00" * 32, addr=0x400000,
                          flags=SHF_ALLOC | SHF_EXECINSTR)
    builder_b = ElfBuilder(e_type=ET_REL)
    builder_b.add_section(".text.user", b"\x00" * 32, addr=0x400010,
                          flags=SHF_ALLOC | SHF_EXECINSTR)
    script = LinkerScript(entry_symbol="_start",
                          regions=[LinkerRegion(".text.a", 0x400000, 32)])
    with pytest.raises(ValueError):
        script.link(ElfFile(builder_a.build()), ElfFile(builder_b.build()),
                    entry=0x400000)


def test_linker_script_link_combines_objects():
    builder_a = ElfBuilder(e_type=ET_REL)
    builder_a.add_section(".text.a", b"\xaa" * 32, addr=0x400000,
                          flags=SHF_ALLOC | SHF_EXECINSTR)
    builder_a.add_symbol("region_start", 0x400000)
    builder_b = ElfBuilder(e_type=ET_REL)
    builder_b.add_section(".text.user", b"\xbb" * 16, addr=0x500000,
                          flags=SHF_ALLOC | SHF_EXECINSTR)
    script = LinkerScript(entry_symbol="_start")
    linked = script.link(ElfFile(builder_a.build()), ElfFile(builder_b.build()),
                         entry=0x500000)
    elf = ElfFile(linked)
    assert elf.entry == 0x500000
    assert elf.section(".text.a").data == b"\xaa" * 32
    assert elf.section(".text.user").data == b"\xbb" * 16
    assert elf.symbol_map()["region_start"] == 0x400000
    assert len([s for s in elf.segments if s.p_type == PT_LOAD]) == 2
