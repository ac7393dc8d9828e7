"""The three x86 simulators the paper drives with ELFies (§III-C, §IV).

All three are cost policies over one timing core,
:mod:`repro.simulators.timing`: a ``TimingCore`` per simulated core and
one ``TimingTool`` that does branch resolution, width and long-op
charging, the warmup snapshot and every stop rule.  Each simulator
supplies only its cores, long-op table and charging rules:

- :mod:`repro.simulators.sniper` -- a Sniper-like multi-core simulator
  built as a Pin tool on the machine's instrumentation hooks; simulates
  ELFies unmodified and replays pinballs in constrained mode (Fig. 11),
- :mod:`repro.simulators.coresim` -- a CoreSim-like detailed simulator
  with two front-ends: SDE-style user-only and Simics-style full-system
  (ring-0 kernel instruction streams, TLBs — Table IV),
- :mod:`repro.simulators.gem5` -- a gem5-like binary-driven SE-mode
  simulator with an out-of-order interval core model and two machine
  configurations (Nehalem-like, Haswell-like — Table V),
- :mod:`repro.simulators.cachesim` / :mod:`repro.simulators.branch` --
  the shared cache/TLB and branch-predictor component models,
- :mod:`repro.simulators.kernelmodel` -- synthetic ring-0 instruction
  streams standing in for OS execution in full-system mode.
"""

from repro.simulators.cachesim import Cache, Tlb
from repro.simulators.branch import BranchPredictor
from repro.simulators.sniper import SniperConfig, SniperResult, SniperSim
from repro.simulators.coresim import (
    CoreSimConfig,
    CoreSimResult,
    CoreSim,
)
from repro.simulators.gem5 import (
    Gem5Config,
    Gem5Result,
    Gem5Sim,
    NEHALEM_LIKE,
    HASWELL_LIKE,
)

__all__ = [
    "Cache",
    "Tlb",
    "BranchPredictor",
    "SniperConfig",
    "SniperResult",
    "SniperSim",
    "CoreSimConfig",
    "CoreSimResult",
    "CoreSim",
    "Gem5Config",
    "Gem5Result",
    "Gem5Sim",
    "NEHALEM_LIKE",
    "HASWELL_LIKE",
]
