"""ELFies: executable region checkpoints for performance analysis and
simulation — a reproduction of Patil et al., CGO 2021.

The package is organized bottom-up:

- :mod:`repro.isa` — the PX instruction set (the x86-64 stand-in),
- :mod:`repro.machine` — the simulated platform: CPU, memory, kernel,
  scheduler, PMU, ELF loader, Pin-style instrumentation,
- :mod:`repro.elf` — the ELF64 object format,
- :mod:`repro.pinplay` — region capture (pinballs) and constrained
  replay,
- :mod:`repro.core` — **pinball2elf**, the paper's contribution,
- :mod:`repro.simpoint` — SimPoint/PinPoints region selection and its
  validation,
- :mod:`repro.pipeline` — the region-selection pipeline (profile,
  select, capture, convert, validate) both selectors share,
- :mod:`repro.simulators` — the Sniper-like, CoreSim-like and
  gem5-like consumers,
- :mod:`repro.workloads` — SPEC-like synthetic benchmark suites,
- :mod:`repro.analysis` — measurement and reporting helpers.

The typical pipeline (see ``examples/quickstart.py``)::

    from repro.workloads import build_executable
    from repro.pinplay import RegionSpec, log_region
    from repro.core import Pinball2Elf, Pinball2ElfOptions, run_elfie

    image = build_executable(source)
    pinball = log_region(image, RegionSpec(start=..., length=...))
    elfie = Pinball2Elf(pinball, Pinball2ElfOptions(perf_exit=True)).convert()
    run = run_elfie(elfie.image)
"""

__version__ = "1.0.0"

__all__ = [
    "isa",
    "machine",
    "elf",
    "pinplay",
    "core",
    "simpoint",
    "simulators",
    "workloads",
    "analysis",
]
