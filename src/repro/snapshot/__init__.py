"""repro.snapshot — the self-checkpointing VM.

The paper's ELFies checkpoint a *region's entry state*; this package
checkpoints the *simulator itself*: any run can be suspended at a
quantum boundary, serialized into a content-addressed snapshot, and
resumed bit-identically — in the same process, after a restart, or on
a different worker (migration).

- :mod:`repro.snapshot.state` — capture / restore / digest, with pages
  kept block-pool-friendly for incremental dedup through
  :mod:`repro.farm.codec`.  Each owner saves its own state: the
  machine and kernel in :mod:`repro.machine.snapshot`, and every
  stateful tool (the replayer's syscall injector, the BBV counter, the
  verifier's dirty-page tracker) in its ``save_state`` /
  ``restore_state`` methods,
- :mod:`repro.snapshot.preempt` — the checkpoint-on-SIGTERM handshake
  between workers and cooperative job bodies.
"""

from repro.snapshot.state import (
    FORMAT_VERSION,
    MachineSnapshot,
    capture,
    restore,
    snapshot_digest,
    snapshot_info,
)
from repro.snapshot.preempt import (
    GLOBAL,
    Preempted,
    PreemptionContext,
)

__all__ = [
    "FORMAT_VERSION",
    "GLOBAL",
    "MachineSnapshot",
    "Preempted",
    "PreemptionContext",
    "capture",
    "restore",
    "snapshot_digest",
    "snapshot_info",
]
