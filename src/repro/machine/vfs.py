"""In-memory filesystem and per-process file-descriptor table.

This is the OS-resource substrate behind the paper's "system call
handling challenge": a file opened *before* a captured region exists only
as a file descriptor, which a bare ELFie run cannot reproduce.  The
``pinball_sysstate`` tool reconstructs proxy files (``FD_n``) that a
generic ``elfie_on_start`` callback re-opens and ``dup2``s onto the right
descriptor numbers.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# Linux open(2) flag subset.
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000
O_CLOEXEC = 0o2000000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

# errno values returned as -errno from syscalls.
EBADF = 9
ENOENT = 2
EINVAL = 22
EACCES = 13
EMFILE = 24
ESPIPE = 29

#: Default in-kernel buffer size of a pipe/socket byte stream.
PIPE_CAPACITY = 65536


class VfsError(Exception):
    """Filesystem-level error carrying an errno."""

    def __init__(self, errno: int, message: str) -> None:
        self.errno = errno
        super().__init__(message)


@dataclass
class _Inode:
    """A regular file's contents."""

    data: bytearray = field(default_factory=bytearray)


class FileSystem:
    """A flat, path-keyed in-memory filesystem.

    Paths are normalized POSIX paths.  A ``root`` prefix supports
    chroot-style execution of ELFies inside a sysstate working directory
    (paper §II-C2).
    """

    def __init__(self) -> None:
        self._inodes: Dict[str, _Inode] = {}

    @staticmethod
    def normalize(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        return posixpath.normpath(path)

    def create(self, path: str, data: bytes = b"") -> None:
        """Create (or replace) a file with the given contents."""
        self._inodes[self.normalize(path)] = _Inode(bytearray(data))

    def exists(self, path: str) -> bool:
        return self.normalize(path) in self._inodes

    def contents(self, path: str) -> bytes:
        """Full contents of a file."""
        inode = self._inodes.get(self.normalize(path))
        if inode is None:
            raise VfsError(ENOENT, "no such file: %s" % path)
        return bytes(inode.data)

    def paths(self) -> List[str]:
        return sorted(self._inodes)

    def _inode(self, path: str) -> _Inode:
        inode = self._inodes.get(self.normalize(path))
        if inode is None:
            raise VfsError(ENOENT, "no such file: %s" % path)
        return inode

    def copy_from(self, other: "FileSystem") -> None:
        """Copy every file from *other* into this filesystem."""
        for path in other.paths():
            self.create(path, other.contents(path))


@dataclass
class Channel:
    """One in-kernel unidirectional byte stream.

    A pipe is one channel (read end + write end over the same stream); a
    socketpair / connected socket is two channels cross-wired between the
    endpoints.  ``readers``/``writers`` count *descriptors* (dup'ed fds
    each count) so EOF and EPIPE fall out of descriptor accounting:
    reading an empty channel with no writers returns EOF, writing a
    channel with no readers raises EPIPE.
    """

    cid: int
    capacity: int = PIPE_CAPACITY
    data: bytearray = field(default_factory=bytearray)
    readers: int = 0
    writers: int = 0

    @property
    def space(self) -> int:
        return self.capacity - len(self.data)

    def to_json(self) -> dict:
        """Record fields, shared by pinballs and snapshots (no id)."""
        return {"capacity": self.capacity, "data": bytes(self.data).hex(),
                "readers": self.readers, "writers": self.writers}

    @classmethod
    def from_json(cls, cid: int, record: dict) -> "Channel":
        return cls(cid=cid, capacity=record["capacity"],
                   data=bytearray(bytes.fromhex(record["data"])),
                   readers=record["readers"], writers=record["writers"])


@dataclass
class OpenFile:
    """One open-file description (shared by dup'ed descriptors).

    ``kind`` distinguishes regular files ("file") from channel-backed
    endpoints ("pipe"/"socket"); channel endpoints carry the channels
    they read from / write to and never use ``inode``/``offset``.
    """

    path: str
    flags: int
    offset: int = 0
    inode: Optional[_Inode] = None
    is_console: bool = False
    kind: str = "file"
    read_ch: Optional[Channel] = None
    write_ch: Optional[Channel] = None
    #: Local port a not-yet-connected AF_INET socket was bound to.
    bound_port: Optional[int] = None


class FileDescriptorTable:
    """Per-process descriptor table over a :class:`FileSystem`.

    Descriptors 0/1/2 are wired to console buffers so programs can
    ``write`` observable output.  The ``root`` argument re-bases all
    relative path lookups, mimicking running inside a sysstate workdir
    (or ``chroot``).
    """

    MAX_FDS = 1024

    def __init__(self, fs: FileSystem, root: str = "/") -> None:
        self.fs = fs
        self.root = root
        self._fds: Dict[int, OpenFile] = {}
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.stdin = bytearray()
        self._fds[0] = OpenFile(path="<stdin>", flags=O_RDONLY, is_console=True)
        self._fds[1] = OpenFile(path="<stdout>", flags=O_WRONLY, is_console=True)
        self._fds[2] = OpenFile(path="<stderr>", flags=O_WRONLY, is_console=True)
        #: Called after a descriptor referencing channel endpoints is
        #: dropped (close / dup2 overwrite) so the kernel can wake
        #: blocked peers that must now observe EOF or EPIPE.
        self.channel_release_hook: Optional[Callable[[OpenFile], None]] = None

    def resolve(self, path: str) -> str:
        """Resolve *path* against the table's root directory."""
        if self.root != "/" and not path.startswith("/"):
            return self.fs.normalize(posixpath.join(self.root, path))
        if self.root != "/":
            # chroot semantics: absolute paths are re-based under root
            return self.fs.normalize(self.root + "/" + path.lstrip("/"))
        return self.fs.normalize(path)

    def _alloc_fd(self, lowest: int = 3) -> int:
        for fd in range(lowest, self.MAX_FDS):
            if fd not in self._fds:
                return fd
        raise VfsError(EMFILE, "file descriptor table full")

    # -- channel-endpoint accounting ----------------------------------------

    @staticmethod
    def _account_install(open_file: OpenFile) -> None:
        if open_file.read_ch is not None:
            open_file.read_ch.readers += 1
        if open_file.write_ch is not None:
            open_file.write_ch.writers += 1

    def _account_release(self, open_file: OpenFile) -> None:
        if open_file.read_ch is None and open_file.write_ch is None:
            return
        if open_file.read_ch is not None:
            open_file.read_ch.readers -= 1
        if open_file.write_ch is not None:
            open_file.write_ch.writers -= 1
        if self.channel_release_hook is not None:
            self.channel_release_hook(open_file)

    def install(self, open_file: OpenFile, lowest: int = 3) -> int:
        """Install an open-file description at the lowest free descriptor."""
        fd = self._alloc_fd(lowest)
        self._fds[fd] = open_file
        self._account_install(open_file)
        return fd

    def install_at(self, fd: int, open_file: OpenFile) -> None:
        """Install a description at an explicit descriptor (restore path)."""
        if not 0 <= fd < self.MAX_FDS:
            raise VfsError(EBADF, "bad descriptor %d" % fd)
        previous = self._fds.get(fd)
        if previous is not None:
            self._account_release(previous)
        self._fds[fd] = open_file
        self._account_install(open_file)

    # -- syscall backends ---------------------------------------------------

    def open(self, path: str, flags: int) -> int:
        """open(2): returns a new descriptor or raises VfsError."""
        resolved = self.resolve(path)
        if not self.fs.exists(resolved):
            if not flags & O_CREAT:
                raise VfsError(ENOENT, "no such file: %s" % path)
            self.fs.create(resolved)
        inode = self.fs._inode(resolved)
        if flags & O_TRUNC and flags & (O_WRONLY | O_RDWR):
            del inode.data[:]
        fd = self._alloc_fd()
        offset = len(inode.data) if flags & O_APPEND else 0
        self._fds[fd] = OpenFile(path=resolved, flags=flags, offset=offset,
                                 inode=inode)
        return fd

    def close(self, fd: int) -> None:
        open_file = self._fds.get(fd)
        if open_file is None:
            raise VfsError(EBADF, "bad file descriptor %d" % fd)
        del self._fds[fd]
        self._account_release(open_file)

    def _get(self, fd: int) -> OpenFile:
        open_file = self._fds.get(fd)
        if open_file is None:
            raise VfsError(EBADF, "bad file descriptor %d" % fd)
        return open_file

    def read(self, fd: int, count: int) -> bytes:
        open_file = self._get(fd)
        if open_file.is_console:
            if fd != 0:
                raise VfsError(EBADF, "fd %d not open for reading" % fd)
            data = bytes(self.stdin[:count])
            del self.stdin[:count]
            return data
        if open_file.kind != "file":
            raise VfsError(EBADF, "fd %d is a %s endpoint, not a file"
                           % (fd, open_file.kind))
        if open_file.flags & O_WRONLY:
            raise VfsError(EBADF, "fd %d not open for reading" % fd)
        assert open_file.inode is not None
        data = bytes(open_file.inode.data[open_file.offset : open_file.offset + count])
        open_file.offset += len(data)
        return data

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        """Positional read: like read(2) at *offset*, but never moves the
        open file description's offset (pread(2) semantics; the mmap
        file-backed path must not perturb shared dup'ed offsets)."""
        open_file = self._get(fd)
        if open_file.is_console or open_file.kind != "file":
            raise VfsError(ESPIPE, "fd %d is not seekable" % fd)
        if open_file.flags & O_WRONLY:
            raise VfsError(EBADF, "fd %d not open for reading" % fd)
        if offset < 0:
            raise VfsError(EINVAL, "negative pread offset")
        assert open_file.inode is not None
        return bytes(open_file.inode.data[offset : offset + count])

    def write(self, fd: int, data: bytes) -> int:
        open_file = self._get(fd)
        if open_file.is_console:
            if fd == 2:
                self.stderr += data
            else:
                self.stdout += data
            return len(data)
        if open_file.kind != "file":
            raise VfsError(EBADF, "fd %d is a %s endpoint, not a file"
                           % (fd, open_file.kind))
        if not open_file.flags & (O_WRONLY | O_RDWR):
            raise VfsError(EBADF, "fd %d not open for writing" % fd)
        assert open_file.inode is not None
        inode = open_file.inode
        end = open_file.offset + len(data)
        if end > len(inode.data):
            inode.data.extend(b"\x00" * (end - len(inode.data)))
        inode.data[open_file.offset : end] = data
        open_file.offset = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int) -> int:
        open_file = self._get(fd)
        if open_file.is_console:
            raise VfsError(EINVAL, "cannot seek a console fd")
        if open_file.kind != "file":
            raise VfsError(ESPIPE, "cannot seek a %s fd" % open_file.kind)
        assert open_file.inode is not None
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = open_file.offset + offset
        elif whence == SEEK_END:
            new = len(open_file.inode.data) + offset
        else:
            raise VfsError(EINVAL, "bad whence %d" % whence)
        if new < 0:
            raise VfsError(EINVAL, "negative seek offset")
        open_file.offset = new
        return new

    def dup(self, fd: int) -> int:
        open_file = self._get(fd)
        new_fd = self._alloc_fd()
        self._fds[new_fd] = open_file
        self._account_install(open_file)
        return new_fd

    def dup2(self, fd: int, new_fd: int) -> int:
        open_file = self._get(fd)
        if not 0 <= new_fd < self.MAX_FDS:
            raise VfsError(EBADF, "bad target descriptor %d" % new_fd)
        if new_fd == fd:
            # dup2(fd, fd) is a validity check only: the descriptor must
            # not be closed and re-installed (POSIX).
            return new_fd
        previous = self._fds.get(new_fd)
        if previous is not None:
            self._account_release(previous)
        self._fds[new_fd] = open_file
        self._account_install(open_file)
        return new_fd

    def restore(self, fd: int, path: str, flags: int, offset: int) -> None:
        """Re-open *path* at a specific descriptor number and offset.

        Used when reconstructing a pinball's region-start descriptor
        state: files opened before the captured region began must be
        open — at their recorded offsets — before the first replayed
        syscall runs.
        """
        resolved = self.resolve(path)
        if not self.fs.exists(resolved):
            raise VfsError(ENOENT, "no such file: %s" % path)
        inode = self.fs._inode(resolved)
        self.install_at(fd, OpenFile(path=resolved, flags=flags,
                                     offset=offset, inode=inode))

    def restore_unaccounted(self, fd: int, open_file: OpenFile) -> None:
        """Install a description at *fd* without touching channel
        refcounts.  Pinball restore only: the recorded reader/writer
        counts are authoritative — they already include every
        descriptor (dups) and every queued, unaccepted connection."""
        if not 0 <= fd < self.MAX_FDS:
            raise VfsError(EBADF, "bad descriptor %d" % fd)
        self._fds[fd] = open_file

    def open_fds(self) -> List[int]:
        """Sorted list of open descriptor numbers."""
        return sorted(self._fds)

    def entry(self, fd: int) -> OpenFile:
        """The open-file description behind *fd* (kernel-level access)."""
        return self._get(fd)

    def is_console_fd(self, fd: int) -> bool:
        return self._get(fd).is_console
