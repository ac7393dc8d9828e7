"""pinball2elf: convert a pinball into a stand-alone ELF binary (§II-B).

The conversion follows the paper's mapping (Fig. 3):

- each run of consecutive captured pages becomes an ELF section at its
  original virtual address (``.text.<addr>`` for executable runs,
  ``.data.<addr>`` otherwise),
- the pinball's program-stack pages become **non-allocatable**
  ``.stack.<addr>`` sections, so the system loader never maps them and
  the new process stack can be placed freely (the stack-collision fix,
  Fig. 4); their non-zero span travels in an allocatable staging area
  the startup code copies into the zero-filled remapped range,
- per-thread register contexts are packed into a data section placed in
  an address range the pinball does not use,
- a generated startup-code section at the entry point remaps the stack,
  restores OS state (sysstate), creates threads, restores contexts, and
  jumps to the captured code.

Executable output is statically linked and self-contained.  Object
output (``--object``) emits the pinball sections and symbols only, plus
a linker script preserving the memory layout so users control the final
link against their own callback code (§II-B5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.elf.linkscript import LinkerRegion, LinkerScript
from repro.elf.structs import ET_EXEC, ET_REL, SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE
from repro.elf.writer import ElfBuilder
from repro.isa.assembler import Assembler
from repro.machine.memory import PAGE_SIZE, PROT_EXEC, PROT_RWX
from repro.core.markers import MarkerSpec
from repro.core.startup import StartupGenerator, StartupPlan
from repro.core.symbols import add_elfie_symbols
from repro.pinplay.pinball import Pinball
from repro.pinplay.sysstate import SysState

#: Candidate load addresses for the startup blob; the first that does
#: not overlap any pinball page wins.
_STARTUP_BASES = (0x10000000, 0x20000000, 0x30000000, 0x48000000,
                  0x68000000, 0x200000000)


@dataclass
class Pinball2ElfOptions:
    """Conversion options (the pinball2elf command line)."""

    #: "executable" or "object".
    output: str = "executable"
    #: --roi-start [TYPE:]TAG marker inserted before application code.
    marker: Optional[MarkerSpec] = None
    #: Link libperfle callbacks and arm the graceful-exit counters
    #: (the -t/-p wrapper scripts' common configuration).
    perf_exit: bool = False
    #: Multiplier on each thread's armed instruction budget.  1.0 exits
    #: exactly at the captured per-thread counts; marker-bounded regions
    #: (LoopPoint) use > 1 so a replay under a shifted schedule is not
    #: cut off before its work-marker crossings complete.
    perf_exit_slack: float = 1.0
    #: -e elfie_on_exit: create a monitor thread that watches for
    #: application exit and then runs elfie_on_exit.
    monitor: bool = False
    #: Embedded sysstate (FD_n preopens + brk restore).
    sysstate: Optional[SysState] = None
    #: Extra PX assembly linked into the startup section; may define
    #: elfie_on_start / elfie_on_thread_start / elfie_on_exit.
    user_code: Optional[str] = None
    #: Which callback labels user_code defines.
    user_defines: Tuple[str, ...] = ()
    #: Also produce an assembly listing of initial thread contexts.
    dump_contexts: bool = False
    #: The stack-collision fix (paper §II-B3): mark the pinball's stack
    #: pages non-allocatable and remap them in startup code.  Disabling
    #: this (the ablation) emits the stack as ordinary allocatable
    #: sections, which can collide with the loader's randomized stack
    #: and kill the process before any ELFie code runs (Fig. 4).
    stack_fix: bool = True


@dataclass
class ElfieArtifact:
    """The result of a conversion."""

    image: bytes
    e_type: int
    entry: int
    startup_base: int
    plan: Optional[StartupPlan]
    linker_script: Optional[str] = None
    context_listing: Optional[str] = None
    symbols: List[Tuple[str, int]] = field(default_factory=list)

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.image)
        if self.linker_script is not None:
            with open(path + ".lds", "w") as handle:
                handle.write(self.linker_script)
        if self.context_listing is not None:
            with open(path + ".ctx.s", "w") as handle:
                handle.write(self.context_listing)


class Pinball2Elf:
    """Converter bound to one pinball."""

    def __init__(self, pinball: Pinball,
                 options: Optional[Pinball2ElfOptions] = None) -> None:
        if not pinball.whole_image or not pinball.pages_early:
            # Matching the paper: ELFies are generated from fat pinballs;
            # a lazy pinball lacks pages and produces fragile ELFies.
            # We allow it (for the ablation study) but it is on the user.
            pass
        self.pinball = pinball
        self.options = options or Pinball2ElfOptions()

    # -- page runs -----------------------------------------------------------

    def page_runs(self) -> List[Tuple[int, int, int]]:
        """Maximal (start, end, prot) runs of captured pages."""
        runs: List[Tuple[int, int, int]] = []
        addrs = sorted(self.pinball.pages)
        if not addrs:
            return runs
        run_start = addrs[0]
        prev = addrs[0]
        prot = self.pinball.pages[addrs[0]][0]
        for addr in addrs[1:]:
            page_prot = self.pinball.pages[addr][0]
            if addr == prev + PAGE_SIZE and page_prot == prot:
                prev = addr
                continue
            runs.append((run_start, prev + PAGE_SIZE, prot))
            run_start = addr
            prev = addr
            prot = page_prot
        runs.append((run_start, prev + PAGE_SIZE, prot))
        return runs

    def _run_bytes(self, start: int, end: int) -> bytes:
        out = bytearray()
        addr = start
        while addr < end:
            out += self.pinball.pages[addr][1]
            addr += PAGE_SIZE
        return bytes(out)

    def _section_name(self, start: int, prot: int, is_stack: bool) -> str:
        if is_stack:
            return ".stack.%x" % start
        if prot & PROT_EXEC:
            return ".text.%x" % start
        return ".data.%x" % start

    # -- conversion -----------------------------------------------------------

    def to_object(self) -> ElfieArtifact:
        """Emit a relocatable ELF object plus a linker script (§II-B5)."""
        builder = ElfBuilder(e_type=ET_REL)
        stack_start, stack_end = self.pinball.try_stack_range() or (0, 0)
        regions: List[LinkerRegion] = []
        for start, end, prot in self.page_runs():
            is_stack = stack_start <= start < stack_end
            name = self._section_name(start, prot, is_stack)
            flags = SHF_ALLOC if not is_stack else 0
            if prot & 2:
                flags |= SHF_WRITE
            if prot & PROT_EXEC:
                flags |= SHF_EXECINSTR
            builder.add_section(name, self._run_bytes(start, end),
                                addr=start, flags=flags, prot=prot,
                                align=PAGE_SIZE)
            regions.append(LinkerRegion(name, start, end - start))
        plan = StartupPlan()
        for position, record in enumerate(
                sorted(self.pinball.threads, key=lambda r: r.tid)):
            builder.add_symbol(".t%d.start" % position, record.regs.rip)
        script = LinkerScript(entry_symbol="_elfie_start", regions=regions,
                              user_code_base=self._pick_startup_base(1 << 20))
        listing = self.context_listing() if self.options.dump_contexts else None
        return ElfieArtifact(
            image=builder.build(),
            e_type=ET_REL,
            entry=0,
            startup_base=0,
            plan=plan,
            linker_script=script.render(),
            context_listing=listing,
        )

    def to_executable(self) -> ElfieArtifact:
        """Emit the statically linked, self-contained ELFie executable."""
        options = self.options
        # Items hold label references until assemble(), so the blob is
        # emitted once at base 0, sized, and then placed clear of
        # pinball pages.
        asm = Assembler(base=0)
        plan = StartupGenerator(
            self.pinball,
            marker=options.marker,
            perf_exit=options.perf_exit,
            perf_exit_slack=options.perf_exit_slack,
            with_monitor=options.monitor,
            sysstate=options.sysstate,
            user_code=options.user_code,
            user_defines=options.user_defines,
            remap_stack=options.stack_fix,
        ).emit(asm)
        base = asm.base = self._pick_startup_base(asm.current_offset)
        program = asm.assemble()

        builder = ElfBuilder(e_type=ET_EXEC, entry=program.labels["_elfie_start"])
        stack_start, stack_end = self.pinball.try_stack_range() or (0, 0)
        if not options.stack_fix:
            stack_start, stack_end = 0, 0  # stack emitted as plain data
        for start, end, prot in self.page_runs():
            is_stack = stack_start <= start < stack_end
            name = self._section_name(start, prot, is_stack)
            flags = 0 if is_stack else SHF_ALLOC
            if prot & 2:
                flags |= SHF_WRITE
            if prot & PROT_EXEC:
                flags |= SHF_EXECINSTR
            builder.add_section(name, self._run_bytes(start, end),
                                addr=start, flags=flags, prot=prot,
                                align=PAGE_SIZE)
        builder.add_section(
            ".text.elfie", program.code, addr=base,
            flags=SHF_ALLOC | SHF_WRITE | SHF_EXECINSTR,
            prot=PROT_RWX, align=PAGE_SIZE,
        )
        symbols = add_elfie_symbols(builder, self.pinball, plan,
                                    program.labels)
        listing = self.context_listing() if options.dump_contexts else None
        return ElfieArtifact(
            image=builder.build(),
            e_type=ET_EXEC,
            entry=program.labels["_elfie_start"],
            startup_base=base,
            plan=plan,
            context_listing=listing,
            symbols=symbols,
        )

    def convert(self) -> ElfieArtifact:
        """Run the conversion per ``options.output``."""
        if self.options.output == "object":
            return self.to_object()
        if self.options.output == "executable":
            return self.to_executable()
        raise ValueError("unknown output kind %r" % self.options.output)

    # -- extras ---------------------------------------------------------------

    def context_listing(self) -> str:
        """Assembly listing of initial thread contexts (--dump-contexts)."""
        lines: List[str] = ["; pinball2elf initial thread contexts",
                            "; pinball: %s" % self.pinball.name]
        for position, record in enumerate(
                sorted(self.pinball.threads, key=lambda r: r.tid)):
            regs = record.regs
            lines.append("")
            lines.append(".t%d:" % position)
            for name, value in sorted(regs.to_dict()["gpr"].items()):
                lines.append("    .t%d.%s: .quad 0x%x" % (position, name, value))
            lines.append("    .t%d.rip: .quad 0x%x" % (position, regs.rip))
            lines.append("    .t%d.rflags: .quad 0x%x"
                         % (position, regs.flags.to_word()))
            lines.append("    .t%d.fs_base: .quad 0x%x" % (position, regs.fs_base))
            lines.append("    .t%d.gs_base: .quad 0x%x" % (position, regs.gs_base))
            for index, value in enumerate(regs.xmm):
                lines.append("    .t%d.xmm%d: .double %r" % (position, index, value))
        return "\n".join(lines) + "\n"

    def _pick_startup_base(self, size: int) -> int:
        """First candidate base whose range misses every pinball page."""
        padded = size + 2 * PAGE_SIZE
        for base in _STARTUP_BASES:
            clear = True
            for start, end, _prot in self.page_runs():
                if base < end and start < base + padded:
                    clear = False
                    break
            if clear:
                return base
        raise ValueError("no free address range for the startup section")
