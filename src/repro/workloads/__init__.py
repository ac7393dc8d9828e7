"""Workload construction: PX program building and SPEC-like suites.

The paper evaluates on SPEC CPU2006/2017, which cannot ship with this
reproduction; instead :mod:`repro.workloads.spec` defines synthetic
multi-phase programs named after the apps used in each experiment, built
from the phase kernels in :mod:`repro.workloads.phases` through the
:class:`~repro.workloads.builder.ProgramBuilder`.
"""

from repro.workloads.compile import build_executable, compile_program, run_program
from repro.workloads.builder import ProgramBuilder, PhaseSpec
from repro.workloads.phases import PHASE_KERNELS, phase_source
from repro.workloads.spec import (
    SpecApp,
    SPEC2017_INT_RATE,
    SPEC2017_FP_RATE,
    SPEC2017_OMP_SPEED,
    SPEC2006_SUBSET,
    get_app,
)
from repro.workloads.mt import MTApp, MT_APPS

__all__ = [
    "build_executable",
    "compile_program",
    "run_program",
    "ProgramBuilder",
    "PhaseSpec",
    "PHASE_KERNELS",
    "phase_source",
    "SpecApp",
    "SPEC2017_INT_RATE",
    "SPEC2017_FP_RATE",
    "SPEC2017_OMP_SPEED",
    "SPEC2006_SUBSET",
    "get_app",
    "MTApp",
    "MT_APPS",
]
