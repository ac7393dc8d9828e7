"""Paged virtual address space with permissions and page faults.

Pages are 4 KiB, like Linux on x86-64.  Unmapped or permission-violating
accesses raise :class:`PageFault`, which the kernel turns into a SIGSEGV
process exit — this is the mechanism behind the paper's "graceful exit
challenge": an ELFie that diverges off its captured pages dies here.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1

# Linux mprotect/mmap protection bits.
PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
PROT_RW = PROT_READ | PROT_WRITE
PROT_RX = PROT_READ | PROT_EXEC
PROT_RWX = PROT_READ | PROT_WRITE | PROT_EXEC

_ACCESS_NAME = {PROT_READ: "read", PROT_WRITE: "write", PROT_EXEC: "execute"}


def page_align_down(addr: int) -> int:
    """Round *addr* down to a page boundary."""
    return addr & ~PAGE_MASK


def page_align_up(addr: int) -> int:
    """Round *addr* up to a page boundary."""
    return (addr + PAGE_MASK) & ~PAGE_MASK


class PageFault(Exception):
    """An access to unmapped memory or one violating page permissions."""

    def __init__(self, address: int, access: int, mapped: bool) -> None:
        self.address = address
        self.access = access
        self.mapped = mapped
        kind = "protection violation" if mapped else "unmapped page"
        super().__init__(
            "page fault: %s at 0x%x (%s)"
            % (_ACCESS_NAME.get(access, "access"), address, kind)
        )


class MapError(Exception):
    """Raised on invalid map/unmap/protect requests."""


class AddressSpace:
    """A sparse, paged 64-bit address space.

    ``touch_hook``, when set, is called as ``touch_hook(page_index,
    is_write)`` on the first-level access path; the PinPlay logger uses it
    to discover which pages a region touches.

    ``exec_invalidate_hook``, when set, is called as ``hook(page_index)``
    whenever an *executable* page's contents or mapping may have changed:
    a data write landing on an executable page (self-modifying code), or
    ``map``/``unmap``/``protect`` touching a page that was executable.
    The CPU uses it to drop cached decodes and translated blocks at page
    granularity instead of clearing everything.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._perms: Dict[int, int] = {}
        self._exec_pages: Set[int] = set()
        self.touch_hook: Optional[Callable[[int, bool], None]] = None
        self.exec_invalidate_hook: Optional[Callable[[int], None]] = None

    def _retire_exec_page(self, page: int) -> None:
        """Notify the CPU that an executable page is being changed."""
        hook = self.exec_invalidate_hook
        if hook is not None:
            hook(page)

    # -- mapping ----------------------------------------------------------

    def map(self, addr: int, length: int, prot: int,
            data: Optional[bytes] = None, fixed: bool = True) -> int:
        """Map ``[addr, addr+length)`` with protection *prot*.

        The range is page-aligned outward.  Existing pages in the range
        are replaced (MAP_FIXED semantics).  If *data* is given it is
        copied to the start of the mapping.  Returns the mapped base.
        """
        if length <= 0:
            raise MapError("cannot map %d bytes" % length)
        start = page_align_down(addr)
        end = page_align_up(addr + length)
        if not fixed and self.any_mapped(start, end - start):
            raise MapError("mapping overlaps existing pages at 0x%x" % start)
        exec_pages = self._exec_pages
        for page in range(start >> PAGE_SHIFT, end >> PAGE_SHIFT):
            if page in exec_pages:
                self._retire_exec_page(page)
            self._pages[page] = bytearray(PAGE_SIZE)
            self._perms[page] = prot
            if prot & PROT_EXEC:
                exec_pages.add(page)
            else:
                exec_pages.discard(page)
        if data is not None:
            if addr + len(data) > end:
                raise MapError("data larger than mapping")
            self._write_raw(addr, data)
        return start

    def unmap(self, addr: int, length: int) -> None:
        """Remove any pages overlapping ``[addr, addr+length)``."""
        if length <= 0:
            raise MapError("cannot unmap %d bytes" % length)
        start = page_align_down(addr) >> PAGE_SHIFT
        end = page_align_up(addr + length) >> PAGE_SHIFT
        exec_pages = self._exec_pages
        for page in range(start, end):
            if page in exec_pages:
                self._retire_exec_page(page)
                exec_pages.discard(page)
            self._pages.pop(page, None)
            self._perms.pop(page, None)

    def protect(self, addr: int, length: int, prot: int) -> None:
        """Change protection of mapped pages in the range; faults if any
        page in the range is unmapped (like mprotect returning ENOMEM)."""
        start = page_align_down(addr) >> PAGE_SHIFT
        end = page_align_up(addr + length) >> PAGE_SHIFT
        for page in range(start, end):
            if page not in self._perms:
                raise MapError("mprotect on unmapped page 0x%x" % (page << PAGE_SHIFT))
        exec_pages = self._exec_pages
        for page in range(start, end):
            if page in exec_pages:
                self._retire_exec_page(page)
            self._perms[page] = prot
            if prot & PROT_EXEC:
                exec_pages.add(page)
            else:
                exec_pages.discard(page)

    def protect_mapped(self, addr: int, length: int, prot: int) -> bool:
        """Like :meth:`protect`, but returns False instead of raising
        when any page in the range is unmapped (mprotect's ENOMEM case,
        distinct from caller-side EINVAL argument errors)."""
        start = page_align_down(addr) >> PAGE_SHIFT
        end = page_align_up(addr + length) >> PAGE_SHIFT
        if any(page not in self._perms for page in range(start, end)):
            return False
        self.protect(addr, length, prot)
        return True

    def is_mapped(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._pages

    def any_mapped(self, addr: int, length: int) -> bool:
        start = page_align_down(addr) >> PAGE_SHIFT
        end = page_align_up(addr + length) >> PAGE_SHIFT
        return any(page in self._pages for page in range(start, end))

    def page_prot(self, addr: int) -> int:
        """Protection bits of the page containing *addr* (0 if unmapped)."""
        return self._perms.get(addr >> PAGE_SHIFT, PROT_NONE)

    # -- access -----------------------------------------------------------

    def _check(self, page: int, access: int, addr: int) -> bytearray:
        data = self._pages.get(page)
        if data is None:
            raise PageFault(addr, access, mapped=False)
        if not self._perms[page] & access:
            raise PageFault(addr, access, mapped=True)
        return data

    def read(self, addr: int, n: int, access: int = PROT_READ) -> bytes:
        """Read *n* bytes with the given access requirement."""
        page = addr >> PAGE_SHIFT
        offset = addr & PAGE_MASK
        hook = self.touch_hook
        if offset + n <= PAGE_SIZE:
            data = self._check(page, access, addr)
            if hook is not None:
                hook(page, False)
            return bytes(data[offset : offset + n])
        # slow path: page-crossing read
        out = bytearray()
        remaining = n
        current = addr
        while remaining:
            page = current >> PAGE_SHIFT
            offset = current & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            data = self._check(page, access, current)
            if hook is not None:
                hook(page, False)
            out += data[offset : offset + chunk]
            current += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes, access: int = PROT_WRITE) -> None:
        """Write *data* with the given access requirement."""
        n = len(data)
        page = addr >> PAGE_SHIFT
        offset = addr & PAGE_MASK
        hook = self.touch_hook
        if offset + n <= PAGE_SIZE:
            target = self._check(page, access, addr)
            if hook is not None:
                hook(page, True)
            target[offset : offset + n] = data
            if page in self._exec_pages:
                self._retire_exec_page(page)
            return
        pos = 0
        current = addr
        while pos < n:
            page = current >> PAGE_SHIFT
            offset = current & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, n - pos)
            target = self._check(page, access, current)
            if hook is not None:
                hook(page, True)
            target[offset : offset + chunk] = data[pos : pos + chunk]
            if page in self._exec_pages:
                self._retire_exec_page(page)
            current += chunk
            pos += chunk

    def _write_raw(self, addr: int, data: bytes) -> None:
        """Write ignoring permissions (used when populating mappings)."""
        pos = 0
        n = len(data)
        current = addr
        while pos < n:
            page = current >> PAGE_SHIFT
            offset = current & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, n - pos)
            target = self._pages.get(page)
            if target is None:
                raise PageFault(current, PROT_WRITE, mapped=False)
            target[offset : offset + chunk] = data[pos : pos + chunk]
            current += chunk
            pos += chunk

    def fetch(self, addr: int, n: int = 16) -> bytes:
        """Fetch up to *n* instruction bytes starting at *addr*.

        Requires execute permission on the first page; stops early at an
        unmapped or non-executable page boundary (the decoder will raise
        on truncation, and the fault surfaces on the retry read).
        """
        page = addr >> PAGE_SHIFT
        offset = addr & PAGE_MASK
        data = self._check(page, PROT_EXEC, addr)
        chunk = data[offset : offset + n]
        if len(chunk) >= n:
            return bytes(chunk)
        next_page = self._pages.get(page + 1)
        if next_page is not None and self._perms[page + 1] & PROT_EXEC:
            chunk = bytes(chunk) + bytes(next_page[: n - len(chunk)])
        return bytes(chunk)

    # -- convenience accessors ---------------------------------------------

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def read_u32(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 4), "little")

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u8(self, addr: int) -> int:
        return self.read(addr, 1)[0]

    def write_u8(self, addr: int, value: int) -> None:
        self.write(addr, bytes([value & 0xFF]))

    def read_cstring(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string of at most *limit* bytes."""
        out = bytearray()
        while len(out) < limit:
            byte = self.read(addr + len(out), 1)
            if byte == b"\x00":
                return bytes(out)
            out += byte
        return bytes(out)

    # -- inspection ---------------------------------------------------------

    def mapped_pages(self) -> List[int]:
        """Sorted list of mapped page indices."""
        return sorted(self._pages)

    def page_bytes(self, page: int) -> bytes:
        """Copy of one page's contents."""
        return bytes(self._pages[page])

    def snapshot(self) -> Dict[int, bytes]:
        """Copy of all mapped pages: page index -> contents."""
        return {page: bytes(data) for page, data in self._pages.items()}

    def snapshot_perms(self) -> Dict[int, int]:
        """Copy of page protections: page index -> prot bits."""
        return dict(self._perms)

    def mapped_ranges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield maximal (start_addr, end_addr, prot) runs of mapped pages."""
        pages = self.mapped_pages()
        if not pages:
            return
        run_start = pages[0]
        prev = pages[0]
        prot = self._perms[pages[0]]
        for page in pages[1:]:
            if page == prev + 1 and self._perms[page] == prot:
                prev = page
                continue
            yield run_start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT, prot
            run_start = page
            prev = page
            prot = self._perms[page]
        yield run_start << PAGE_SHIFT, (prev + 1) << PAGE_SHIFT, prot

    def find_free_range(self, length: int, start_hint: int = 0x7F0000000000) -> int:
        """Find an unmapped, page-aligned range of *length* bytes.

        Scans downward from *start_hint*, which mimics Linux's mmap
        top-down allocation policy.
        """
        pages_needed = page_align_up(length) >> PAGE_SHIFT
        candidate = page_align_down(start_hint) >> PAGE_SHIFT
        while candidate > pages_needed:
            if all(candidate + i not in self._pages for i in range(pages_needed)):
                return candidate << PAGE_SHIFT
            candidate -= pages_needed
        raise MapError("address space exhausted")
