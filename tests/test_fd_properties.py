"""Property tests: descriptor sharing follows open-file-description rules.

A dup'ed descriptor is an alias for the same open file description, so
reads and seeks through any alias move one shared offset — and nothing
else (mmap in particular reads the file pread-style and must never
perturb it).  The oracle is a tiny model of fd -> description -> offset
run in lockstep with the kernel over random operation sequences.
"""

from hypothesis import given, settings, strategies as st

from repro.machine import Machine
from repro.machine.kernel import MAP_PRIVATE, NR
from repro.machine.memory import PAGE_SIZE, PROT_RW

FILE_SIZE = 2 * PAGE_SIZE


def _call(machine, thread, number, rdi=0, rsi=0, rdx=0, r10=0, r8=0, r9=0):
    thread.regs.gpr[0] = number
    thread.regs.gpr[7] = rdi
    thread.regs.gpr[6] = rsi
    thread.regs.gpr[2] = rdx
    thread.regs.gpr[10] = r10
    thread.regs.gpr[8] = r8
    thread.regs.gpr[9] = r9
    return machine.kernel.dispatch(thread)


class _Model:
    """Reference semantics: descriptions hold offsets, fds alias them."""

    def __init__(self, root_fd):
        self._next_desc = 0
        self.descs = {0: 0}          # description id -> offset
        self.fds = {root_fd: 0}      # fd -> description id

    def dup(self, fd, new_fd):
        self.fds[new_fd] = self.fds[fd]

    def dup2(self, fd, new_fd):
        if new_fd != fd:
            self.fds[new_fd] = self.fds[fd]

    def read(self, fd, count):
        desc = self.fds[fd]
        offset = self.descs[desc]
        took = max(0, min(count, FILE_SIZE - offset))
        self.descs[desc] = offset + took

    def lseek(self, fd, pos):
        self.descs[self.fds[fd]] = pos

    def offsets(self):
        return {fd: self.descs[desc] for fd, desc in self.fds.items()}


operations = st.lists(
    st.one_of(
        st.tuples(st.just("dup"), st.integers(0, 5)),
        st.tuples(st.just("dup2"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("dup2_self"), st.integers(0, 5)),
        st.tuples(st.just("read"), st.integers(0, 5), st.integers(0, 200)),
        st.tuples(st.just("lseek"), st.integers(0, 5),
                  st.integers(0, FILE_SIZE)),
        st.tuples(st.just("mmap"), st.integers(0, 5), st.integers(0, 2)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_fd_aliases_share_exactly_one_offset(ops):
    machine = Machine(seed=0)
    machine.mem.map(0x1000, 0x10000, PROT_RW)
    thread = machine.create_thread()
    machine.kernel.fs.create("/data", bytes(range(256)) * (FILE_SIZE // 256))
    machine.mem.write(0x1000, b"/data\x00")
    root_fd = _call(machine, thread, NR.OPEN, rdi=0x1000, rsi=0)
    model = _Model(root_fd)
    fd_pool = [root_fd]

    for op in ops:
        kind = op[0]
        fd = fd_pool[op[1] % len(fd_pool)]
        if kind == "dup":
            new_fd = _call(machine, thread, NR.DUP, rdi=fd)
            model.dup(fd, new_fd)
            fd_pool.append(new_fd)
        elif kind == "dup2":
            target = fd_pool[op[2] % len(fd_pool)]
            assert _call(machine, thread, NR.DUP2, rdi=fd,
                         rsi=target) == target
            model.dup2(fd, target)
        elif kind == "dup2_self":
            # dup2(fd, fd): validity probe, must not disturb anything
            assert _call(machine, thread, NR.DUP2, rdi=fd, rsi=fd) == fd
        elif kind == "read":
            _call(machine, thread, NR.READ, rdi=fd, rsi=0x3000, rdx=op[2])
            model.read(fd, op[2])
        elif kind == "lseek":
            assert _call(machine, thread, NR.LSEEK, rdi=fd, rsi=op[2],
                         rdx=0) == op[2]
            model.lseek(fd, op[2])
        elif kind == "mmap":
            offset = op[2] * PAGE_SIZE
            base = _call(machine, thread, NR.MMAP, rdi=0, rsi=PAGE_SIZE,
                         rdx=3, r10=MAP_PRIVATE, r8=fd, r9=offset)
            assert base > 0
            # mapped bytes come from the mmap offset, not the fd offset
            expected = machine.kernel.fs.contents("/data")[offset:offset + 8]
            expected += b"\x00" * (8 - len(expected))  # past-EOF maps zeros
            assert machine.mem.read(base, 8) == expected
        for check_fd, offset in model.offsets().items():
            assert machine.kernel.fdt.entry(check_fd).offset == offset, (
                "fd %d offset diverged after %r" % (check_fd, op))
