"""Tests for the paged address space."""

import pytest
from hypothesis import given, strategies as st

from repro.machine.memory import (
    PAGE_SIZE,
    PROT_READ,
    PROT_RW,
    PROT_RX,
    AddressSpace,
    MapError,
    PageFault,
    page_align_down,
    page_align_up,
)


def test_page_alignment_helpers():
    assert page_align_down(0x1234) == 0x1000
    assert page_align_up(0x1234) == 0x2000
    assert page_align_up(0x1000) == 0x1000
    assert page_align_down(0) == 0


def test_map_read_write_round_trip():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_RW)
    mem.write(0x1100, b"hello")
    assert mem.read(0x1100, 5) == b"hello"


def test_unmapped_read_faults():
    mem = AddressSpace()
    with pytest.raises(PageFault) as info:
        mem.read(0x5000, 8)
    assert info.value.address == 0x5000
    assert not info.value.mapped


def test_write_to_readonly_faults():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_READ)
    with pytest.raises(PageFault) as info:
        mem.write(0x1000, b"x")
    assert info.value.mapped


def test_exec_requires_exec_permission():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_RW)
    with pytest.raises(PageFault):
        mem.fetch(0x1000)
    mem.protect(0x1000, PAGE_SIZE, PROT_RX)
    assert len(mem.fetch(0x1000)) == 16


def test_page_crossing_read_write():
    mem = AddressSpace()
    mem.map(0x1000, 2 * PAGE_SIZE, PROT_RW)
    data = bytes(range(64))
    mem.write(0x2000 - 32, data)
    assert mem.read(0x2000 - 32, 64) == data


def test_page_crossing_into_unmapped_faults():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_RW)
    with pytest.raises(PageFault):
        mem.write(0x2000 - 4, b"12345678")


def test_unmap_then_access_faults():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_RW)
    mem.unmap(0x1000, PAGE_SIZE)
    with pytest.raises(PageFault):
        mem.read(0x1000, 1)


def test_map_with_initial_data():
    mem = AddressSpace()
    mem.map(0x3000, PAGE_SIZE, PROT_READ, data=b"abc")
    assert mem.read(0x3000, 3) == b"abc"
    assert mem.read(0x3003, 1) == b"\x00"


def test_protect_unmapped_raises():
    mem = AddressSpace()
    with pytest.raises(MapError):
        mem.protect(0x1000, PAGE_SIZE, PROT_READ)


def test_u64_u32_u8_accessors():
    mem = AddressSpace()
    mem.map(0, PAGE_SIZE, PROT_RW)
    mem.write(0x10, (0x1122334455667788).to_bytes(8, "little"))
    assert mem.read(0x10, 8) == bytes.fromhex("8877665544332211")
    mem.write(0x20, bytes.fromhex("efbeadde"))
    assert mem.read_u32(0x20) == 0xDEADBEEF
    mem.write(0x30, b"\xab")
    assert mem.read(0x30, 1)[0] == 0xAB


def test_read_cstring():
    mem = AddressSpace()
    mem.map(0, PAGE_SIZE, PROT_RW)
    mem.write(0x40, b"filename\x00garbage")
    assert mem.read_cstring(0x40) == b"filename"


def test_mapped_ranges_coalescing():
    mem = AddressSpace()
    mem.map(0x1000, 2 * PAGE_SIZE, PROT_RW)
    mem.map(0x4000, PAGE_SIZE, PROT_RX)
    assert mem.mapped_pages() == [1, 2, 4]
    assert mem.snapshot_perms() == {1: PROT_RW, 2: PROT_RW, 4: PROT_RX}


def test_mapped_ranges_split_on_prot_change():
    mem = AddressSpace()
    mem.map(0x1000, 3 * PAGE_SIZE, PROT_RW)
    mem.protect(0x2000, PAGE_SIZE, PROT_READ)
    assert mem.snapshot_perms() == {1: PROT_RW, 2: PROT_READ, 3: PROT_RW}


def test_snapshot_is_a_copy():
    mem = AddressSpace()
    mem.map(0x1000, PAGE_SIZE, PROT_RW)
    mem.write(0x1000, b"before")
    snap = mem.snapshot()
    mem.write(0x1000, b"after!")
    assert snap[1][:6] == b"before"


def test_touch_hook_reports_pages():
    mem = AddressSpace()
    mem.map(0x1000, 2 * PAGE_SIZE, PROT_RW)
    touched = []
    mem.touch_hook = lambda page, is_write: touched.append((page, is_write))
    mem.read(0x1008, 8)
    mem.write(0x2008, b"x")
    assert (1, False) in touched
    assert (2, True) in touched


def test_find_free_range_avoids_mapped_pages():
    mem = AddressSpace()
    base = mem.find_free_range(2 * PAGE_SIZE)
    mem.map(base, 2 * PAGE_SIZE, PROT_RW)
    second = mem.find_free_range(2 * PAGE_SIZE)
    assert second != base
    assert not mem.any_mapped(second, 2 * PAGE_SIZE)


@given(
    st.integers(min_value=0, max_value=2**16),
    st.binary(min_size=1, max_size=300),
)
def test_write_read_round_trip_property(offset, data):
    mem = AddressSpace()
    base = 0x10000
    mem.map(base, page_align_up(offset + len(data)) + PAGE_SIZE, PROT_RW)
    mem.write(base + offset, data)
    assert mem.read(base + offset, len(data)) == data
