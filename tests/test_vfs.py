"""Tests for the in-memory filesystem and descriptor table."""

import pytest

from repro.machine.vfs import (
    EBADF,
    ENOENT,
    FileDescriptorTable,
    FileSystem,
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    VfsError,
)


@pytest.fixture
def fdt():
    fs = FileSystem()
    fs.create("/data/input.txt", b"0123456789")
    return FileDescriptorTable(fs)


def test_open_read_close(fdt):
    fd = fdt.open("/data/input.txt", O_RDONLY)
    assert fd >= 3
    assert fdt.read(fd, 4) == b"0123"
    assert fdt.read(fd, 100) == b"456789"
    assert fdt.read(fd, 10) == b""
    fdt.close(fd)
    with pytest.raises(VfsError):
        fdt.read(fd, 1)


def test_open_missing_file_raises(fdt):
    with pytest.raises(VfsError) as info:
        fdt.open("/no/such", O_RDONLY)
    assert info.value.errno == ENOENT


def test_create_and_write(fdt):
    fd = fdt.open("/out.txt", O_WRONLY | O_CREAT)
    assert fdt.write(fd, b"abc") == 3
    assert fdt.fs.contents("/out.txt") == b"abc"


def test_truncate_on_open(fdt):
    fd = fdt.open("/data/input.txt", O_RDWR | O_TRUNC)
    assert fdt.fs.contents("/data/input.txt") == b""
    fdt.write(fd, b"new")
    assert fdt.fs.contents("/data/input.txt") == b"new"


def test_append_mode(fdt):
    fd = fdt.open("/data/input.txt", O_WRONLY | O_APPEND)
    fdt.write(fd, b"X")
    assert fdt.fs.contents("/data/input.txt") == b"0123456789X"


def test_lseek_whences(fdt):
    fd = fdt.open("/data/input.txt", O_RDONLY)
    assert fdt.lseek(fd, 5, SEEK_SET) == 5
    assert fdt.read(fd, 2) == b"56"
    assert fdt.lseek(fd, -2, SEEK_CUR) == 5
    assert fdt.lseek(fd, -1, SEEK_END) == 9
    assert fdt.read(fd, 5) == b"9"
    with pytest.raises(VfsError):
        fdt.lseek(fd, -100, SEEK_SET)


def test_dup_shares_offset(fdt):
    fd = fdt.open("/data/input.txt", O_RDONLY)
    dup = fdt.dup(fd)
    assert fdt.read(fd, 3) == b"012"
    assert fdt.read(dup, 3) == b"345"


def test_dup2_targets_specific_descriptor(fdt):
    fd = fdt.open("/data/input.txt", O_RDONLY)
    assert fdt.dup2(fd, 7) == 7
    assert fdt.read(7, 2) == b"01"
    assert fdt.entry(7).path == "/data/input.txt"


def test_console_fds(fdt):
    fdt.write(1, b"out")
    fdt.write(2, b"err")
    assert bytes(fdt.stdout) == b"out"
    assert bytes(fdt.stderr) == b"err"
    fdt.stdin += b"typed"
    assert fdt.read(0, 3) == b"typ"


def test_console_fd_cannot_seek(fdt):
    with pytest.raises(VfsError):
        fdt.lseek(1, 0, SEEK_SET)


def test_bad_fd_errors(fdt):
    with pytest.raises(VfsError) as info:
        fdt.read(42, 1)
    assert info.value.errno == EBADF
    with pytest.raises(VfsError):
        fdt.close(42)


def test_chroot_style_root_rebasing():
    fs = FileSystem()
    fs.create("/work/sysstate/input.txt", b"proxy")
    fdt = FileDescriptorTable(fs, root="/work/sysstate")
    fd = fdt.open("/input.txt", O_RDONLY)
    assert fdt.read(fd, 5) == b"proxy"
    fd2 = fdt.open("input.txt", O_RDONLY)
    assert fdt.read(fd2, 5) == b"proxy"


def test_path_normalization():
    fs = FileSystem()
    fs.create("/a/b.txt", b"x")
    assert fs.exists("/a/../a/b.txt")
    assert fs.contents("a/b.txt") == b"x"


def test_copy_from():
    src = FileSystem()
    src.create("/one", b"1")
    src.create("/two", b"2")
    dst = FileSystem()
    dst.copy_from(src)
    assert dst.contents("/one") == b"1"
    assert dst.paths() == ["/one", "/two"]


def test_write_extends_file_with_gap(fdt):
    fd = fdt.open("/sparse", O_RDWR | O_CREAT)
    fdt.lseek(fd, 10, SEEK_SET)
    fdt.write(fd, b"end")
    data = fdt.fs.contents("/sparse")
    assert data == b"\x00" * 10 + b"end"
