"""SPEC-like synthetic workload suites.

The paper's evaluation uses SPEC CPU2006 and CPU2017; those suites
cannot ship here, so each app is replaced by a synthetic PX program with
a deterministic, app-specific multi-phase schedule (seeded by the app
name).  What matters for the reproduction is preserved:

- distinct time-varying phase behaviour per app (SimPoint has real
  clusters to find),
- a wide spread of whole-program instruction counts across the suite,
- ``gcc`` configured with many short, diverse phases, making it the
  hardest app to represent (Fig. 9 / Table II),
- OpenMP-speed apps built multi-threaded with active-wait barriers, and
  ``657.xz_s`` kept single-threaded (Fig. 11).

Instruction counts are scaled roughly 1000:1 from the paper (see
DESIGN.md §4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.workloads.builder import PhaseSpec, ProgramBuilder

_INT_POOL = ["compute", "stream", "pointer_chase", "branchy", "divide"]
_FP_POOL = ["fpkernel", "stream", "compute", "pointer_chase"]

#: Multiplier applied to phase iterations for each input set.
INPUT_SCALES = {"test": 0.25, "train": 1.0, "ref": 8.0}


@dataclass(frozen=True)
class SpecApp:
    """One synthetic benchmark application."""

    name: str
    suite: str                      # "2017int" | "2017fp" | "2017omp" | "2006"
    segments: Tuple[Tuple[str, int], ...]  # (kernel, iterations) timeline
    threads: int = 1
    buffer_kb: int = 64
    #: OpenMP-style per-thread trip-count imbalance (fraction of the
    #: iteration count added per thread index).
    thread_skew: float = 0.0

    def phases(self, input_set: str = "train") -> List[PhaseSpec]:
        """Phase schedule scaled for an input set."""
        scale = INPUT_SCALES[input_set]
        return [
            PhaseSpec(kernel=kernel,
                      iterations=max(1, int(iterations * scale)),
                      buffer_kb=self.buffer_kb,
                      skew_iters=int(iterations * scale * self.thread_skew))
            for kernel, iterations in self.segments
        ]

    def builder(self, input_set: str = "train") -> ProgramBuilder:
        return ProgramBuilder(name=self.name,
                              phases=self.phases(input_set),
                              threads=self.threads)

    def build(self, input_set: str = "train") -> bytes:
        """Build the app's ELF executable for an input set."""
        return self.builder(input_set).build()

    def estimated_instructions(self, input_set: str = "train") -> int:
        return self.builder(input_set).estimated_instructions()


def _make_schedule(name: str, pool: List[str], n_behaviours: int,
                   n_segments: int, base_iters: int,
                   spread: float = 0.6) -> Tuple[Tuple[str, int], ...]:
    """Deterministic, app-specific phase timeline.

    Draws *n_behaviours* (kernel, intensity) pairs and arranges
    *n_segments* segments among them with recurring structure (phases
    reappear over time, as real programs' do).
    """
    rng = random.Random(name)
    behaviours = []
    for _ in range(n_behaviours):
        kernel = rng.choice(pool)
        intensity = base_iters * rng.uniform(1.0 - spread, 1.0 + spread)
        behaviours.append((kernel, int(intensity)))
    segments = []
    for index in range(n_segments):
        kernel, intensity = behaviours[index % n_behaviours
                                       if rng.random() < 0.7
                                       else rng.randrange(n_behaviours)]
        jitter = rng.uniform(0.8, 1.2)
        segments.append((kernel, max(100, int(intensity * jitter))))
    return tuple(segments)


def _int_app(name: str, behaviours: int, segments: int,
             base_iters: int, buffer_kb: int = 64) -> SpecApp:
    return SpecApp(name=name, suite="2017int",
                   segments=_make_schedule(name, _INT_POOL, behaviours,
                                           segments, base_iters),
                   buffer_kb=buffer_kb)


def _fp_app(name: str, behaviours: int, segments: int,
            base_iters: int, buffer_kb: int = 64) -> SpecApp:
    return SpecApp(name=name, suite="2017fp",
                   segments=_make_schedule(name, _FP_POOL, behaviours,
                                           segments, base_iters),
                   buffer_kb=buffer_kb)


#: SPEC CPU2017 int rate (the Fig. 9 / Table II / Table III suite).
#: gcc gets many short diverse phases — the paper's hardest app.
SPEC2017_INT_RATE: Dict[str, SpecApp] = {
    app.name: app
    for app in [
        _int_app("500.perlbench_r", 3, 12, 6000),
        SpecApp(
            name="502.gcc_r", suite="2017int",
            segments=_make_schedule("502.gcc_r", _INT_POOL,
                                    n_behaviours=6, n_segments=48,
                                    base_iters=1500, spread=0.9),
            buffer_kb=256,
        ),
        _int_app("505.mcf_r", 2, 10, 9000, buffer_kb=512),
        _int_app("520.omnetpp_r", 3, 14, 5000, buffer_kb=256),
        _int_app("523.xalancbmk_r", 4, 16, 4000),
        _int_app("525.x264_r", 3, 18, 7000),
        _int_app("531.deepsjeng_r", 2, 8, 8000),
        _int_app("541.leela_r", 3, 10, 6500),
        _int_app("548.exchange2_r", 2, 6, 12000),
        _int_app("557.xz_r", 3, 12, 5500),
    ]
}

#: SPEC CPU2017 fp rate subset (joins int rate for the ref study).
SPEC2017_FP_RATE: Dict[str, SpecApp] = {
    app.name: app
    for app in [
        _fp_app("503.bwaves_r", 2, 10, 9000, buffer_kb=256),
        _fp_app("507.cactuBSSN_r", 3, 12, 7000),
        _fp_app("508.namd_r", 2, 8, 10000),
        _fp_app("519.lbm_r", 2, 6, 14000, buffer_kb=512),
        _fp_app("538.imagick_r", 3, 14, 5000),
        _fp_app("544.nab_r", 3, 10, 6000),
    ]
}


def _omp_app(name: str, behaviours: int, segments: int, base_iters: int,
             threads: int = 8) -> SpecApp:
    return SpecApp(name=name, suite="2017omp",
                   segments=_make_schedule(name, _FP_POOL, behaviours,
                                           segments, base_iters),
                   threads=threads, buffer_kb=32, thread_skew=0.04)


#: SPEC CPU2017 OpenMP speed subset, 8 threads (Fig. 11).
#: 657.xz_s runs single-threaded, as in the paper.
SPEC2017_OMP_SPEED: Dict[str, SpecApp] = {
    app.name: app
    for app in [
        _omp_app("603.bwaves_s", 2, 6, 3000),
        _omp_app("619.lbm_s", 2, 5, 4000),
        _omp_app("621.wrf_s", 3, 8, 2500),
        _omp_app("627.cam4_s", 3, 7, 2800),
        _omp_app("628.pop2_s", 2, 6, 3200),
        _omp_app("638.imagick_s", 3, 8, 2600),
        _omp_app("644.nab_s", 2, 6, 3000),
        SpecApp(name="657.xz_s", suite="2017omp",
                segments=_make_schedule("657.xz_s", _INT_POOL, 3, 10, 2400),
                threads=1, buffer_kb=32),
    ]
}


def _app2006(name: str, behaviours: int, segments: int,
             base_iters: int) -> SpecApp:
    pool = _FP_POOL if name.split(".")[1] in {
        "bwaves", "gamess", "milc", "gromacs", "cactusADM", "leslie3d",
        "namd", "soplex", "povray", "lbm",
    } else _INT_POOL
    return SpecApp(name=name, suite="2006",
                   segments=_make_schedule(name, pool, behaviours,
                                           segments, base_iters))


#: The 19 SPEC CPU2006 apps of the gem5 case study (Table V).
SPEC2006_SUBSET: Dict[str, SpecApp] = {
    app.name: app
    for app in [
        _app2006("400.perlbench", 3, 10, 5000),
        _app2006("401.bzip2", 2, 8, 6000),
        _app2006("403.gcc", 5, 24, 2000),
        _app2006("410.bwaves", 2, 8, 8000),
        _app2006("416.gamess", 3, 10, 6000),
        _app2006("429.mcf", 2, 8, 9000),
        _app2006("433.milc", 2, 8, 7000),
        _app2006("435.gromacs", 3, 10, 6000),
        _app2006("436.cactusADM", 2, 6, 9000),
        _app2006("437.leslie3d", 2, 8, 7000),
        _app2006("444.namd", 2, 6, 9000),
        _app2006("445.gobmk", 3, 12, 4000),
        _app2006("450.soplex", 3, 10, 5000),
        _app2006("453.povray", 3, 10, 5000),
        _app2006("456.hmmer", 2, 6, 9000),
        _app2006("458.sjeng", 2, 8, 7000),
        _app2006("462.libquantum", 2, 6, 10000),
        _app2006("464.h264ref", 3, 12, 5000),
        _app2006("470.lbm", 2, 6, 10000),
    ]
}

_ALL_SUITES = (SPEC2017_INT_RATE, SPEC2017_FP_RATE, SPEC2017_OMP_SPEED,
               SPEC2006_SUBSET)


def get_app(name: str):
    """Look up an app in any suite by its full name.

    Covers the SPEC-like suites and the irregular-MT suite
    (:mod:`repro.workloads.mt`); both app kinds expose the same
    ``build(input_set)`` surface and a ``threads`` attribute.
    """
    for suite in _ALL_SUITES:
        if name in suite:
            return suite[name]
    from repro.workloads.mt import MT_APPS  # deferred: mt imports us
    if name in MT_APPS:
        return MT_APPS[name]
    raise KeyError("unknown benchmark %r" % name)
