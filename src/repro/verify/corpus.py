"""The fidelity regression corpus (``tests/corpus/*.json``).

Every divergence class the fuzzer (or a human) has found gets pinned as
a corpus file: the minimized :class:`~repro.verify.fuzz.FuzzCase` that
once exposed it, plus a note naming the bug it regression-tests.
``replay_corpus`` re-runs every file through the full
record -> replay -> ELFie round-trip deterministically; a corpus case
failing again means the bug is back.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.verify.fuzz import FuzzCase, FuzzOutcome, run_case

CORPUS_VERSION = 1


@dataclass
class CorpusCase:
    """One persisted regression seed."""

    name: str
    case: FuzzCase
    #: Which divergence class this seed pins (free-form, for humans).
    bug: str = ""
    check_elfie: bool = True

    def to_json(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "name": self.name,
            "bug": self.bug,
            "check_elfie": self.check_elfie,
            "case": self.case.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CorpusCase":
        """The entry :meth:`to_json` wrote.  Every key is read and none
        is defaulted: a missing key, or a ``version`` other than
        ``CORPUS_VERSION``, raises ValueError naming it."""
        try:
            version = data["version"]
            if version != CORPUS_VERSION:
                raise ValueError("corpus case version %r is not %d"
                                 % (version, CORPUS_VERSION))
            return cls(
                name=data["name"],
                case=FuzzCase.from_json(data["case"]),
                bug=data["bug"],
                check_elfie=data["check_elfie"],
            )
        except KeyError as exc:
            raise ValueError("corpus case lacks key %s" % exc) from None


def corpus_paths(directory: str) -> List[str]:
    """Sorted paths of every corpus file under *directory*."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(".json")
    )


def load_corpus_case(path: str) -> CorpusCase:
    with open(path) as handle:
        return CorpusCase.from_json(json.load(handle))


def save_corpus_case(directory: str, case: FuzzCase, name: str,
                     bug: str = "", check_elfie: bool = True) -> str:
    """Persist a (minimized) failing case; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    entry = CorpusCase(name=name, case=case, bug=bug,
                       check_elfie=check_elfie)
    path = os.path.join(directory, "%s.json" % name)
    with open(path, "w") as handle:
        json.dump(entry.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay_corpus(directory: str,
                  seed: int = 0) -> List[Tuple[CorpusCase, FuzzOutcome]]:
    """Re-verify every corpus case; returns (case, outcome) pairs."""
    results = []
    for path in corpus_paths(directory):
        entry = load_corpus_case(path)
        outcome = run_case(entry.case, seed=seed,
                           check_elfie=entry.check_elfie)
        results.append((entry, outcome))
    return results


def failing(results: List[Tuple[CorpusCase, FuzzOutcome]]
            ) -> List[Tuple[CorpusCase, FuzzOutcome]]:
    return [(entry, outcome) for entry, outcome in results if not outcome.ok]


def format_failure(entry: CorpusCase, outcome: FuzzOutcome) -> str:
    """Human-readable failure report, minimized seed included."""
    lines = [
        "corpus case %r FAILED at stage %r: %s"
        % (entry.name, outcome.stage, outcome.detail),
        "  pinned bug: %s" % (entry.bug or "(unlabelled)"),
        "  minimized seed: %s" % json.dumps(outcome.case.to_json(),
                                            sort_keys=True),
    ]
    if outcome.report is not None and outcome.report.divergence is not None:
        lines.append("  " + str(outcome.report.divergence))
    return "\n".join(lines)


def default_corpus_dir(root: Optional[str] = None) -> str:
    """``tests/corpus`` relative to the repository *root* (or cwd)."""
    base = root or os.getcwd()
    return os.path.join(base, "tests", "corpus")
