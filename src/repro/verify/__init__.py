"""Differential replay-fidelity verification (``repro.verify``).

The paper's value proposition rests on an ELFie executing
*bit-identically* to the region it was checkpointed from.  This package
checks that claim mechanically: it runs the original workload, the
pinball replay, and (where eligible) the converted ELFie in
digest-checkpointed epochs, compares per-epoch architectural-state and
memory digests, and auto-bisects the first mismatching epoch down to the
first divergent instruction with a side-by-side register/memory diff.

``repro.verify.fuzz`` generates randomized PX workloads and drives the
full record -> replay -> elfie round-trip through the verifier; failing
cases are minimized and pinned as regression corpus files under
``tests/corpus/``.
"""

from repro.verify.digest import (
    DirtyPageTracker,
    EpochDigest,
    arch_digest,
    epoch_digest,
    memory_digest,
    thread_state_bytes,
)
from repro.verify.differ import side_by_side
from repro.verify.verifier import (
    ElfieEntryReport,
    FidelityReport,
    NativeCursor,
    ReplayCursor,
    StraightCursor,
    differential_verify,
    verify_elfie_entry,
    verify_pinball,
)
from repro.verify.fuzz import (
    FuzzCase,
    FuzzOutcome,
    FuzzSummary,
    aslr_invariance,
    build_case,
    generate_case,
    run_case,
    fuzz,
    minimize_case,
)
from repro.verify.lockstep import (
    LockstepOutcome,
    LockstepSweep,
    ResumedCursor,
    lockstep_corpus,
    mt_cases,
    run_lockstep_case,
    verify_snapshot_lockstep,
)
from repro.verify.corpus import (
    CorpusCase,
    corpus_paths,
    default_corpus_dir,
    failing,
    format_failure,
    load_corpus_case,
    replay_corpus,
    save_corpus_case,
)

__all__ = [
    "DirtyPageTracker",
    "EpochDigest",
    "arch_digest",
    "epoch_digest",
    "memory_digest",
    "thread_state_bytes",
    "side_by_side",
    "ElfieEntryReport",
    "FidelityReport",
    "NativeCursor",
    "ReplayCursor",
    "differential_verify",
    "verify_elfie_entry",
    "verify_pinball",
    "FuzzCase",
    "FuzzOutcome",
    "FuzzSummary",
    "aslr_invariance",
    "build_case",
    "generate_case",
    "run_case",
    "fuzz",
    "minimize_case",
    "LockstepOutcome",
    "LockstepSweep",
    "ResumedCursor",
    "StraightCursor",
    "lockstep_corpus",
    "mt_cases",
    "run_lockstep_case",
    "verify_snapshot_lockstep",
    "CorpusCase",
    "corpus_paths",
    "default_corpus_dir",
    "failing",
    "format_failure",
    "load_corpus_case",
    "replay_corpus",
    "save_corpus_case",
]
