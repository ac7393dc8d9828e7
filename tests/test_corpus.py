"""The regression corpus replays green, deterministically.

Every file under ``tests/corpus/`` pins a divergence class that the
fuzzer (or a human) once found in the record -> replay -> ELFie
pipeline.  A failure here means a fixed fidelity bug is back; the
failure report includes the minimized seed so the case can be rerun
standalone.
"""

import json
import os

import pytest

from repro.verify import (
    CorpusCase,
    FuzzCase,
    corpus_paths,
    failing,
    format_failure,
    load_corpus_case,
    replay_corpus,
    run_case,
    save_corpus_case,
)
from repro.verify.corpus import CORPUS_VERSION

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def test_corpus_is_populated():
    # the shipped corpus pins at least the divergence classes fixed by
    # the verifier work; never let it silently shrink to nothing
    assert len(corpus_paths(CORPUS_DIR)) >= 5


def test_corpus_files_are_well_formed():
    for path in corpus_paths(CORPUS_DIR):
        entry = load_corpus_case(path)
        assert entry.name == os.path.splitext(os.path.basename(path))[0]
        assert entry.bug, "%s: corpus cases must name the bug they pin" % path
        assert isinstance(entry.case, FuzzCase)


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR),
    ids=[os.path.splitext(os.path.basename(p))[0]
         for p in corpus_paths(CORPUS_DIR)])
def test_corpus_case_replays_green(path):
    entry = load_corpus_case(path)
    outcome = run_case(entry.case, check_elfie=entry.check_elfie)
    assert outcome.ok, format_failure(entry, outcome)


def test_replay_corpus_end_to_end():
    results = replay_corpus(CORPUS_DIR)
    assert len(results) == len(corpus_paths(CORPUS_DIR))
    bad = failing(results)
    assert not bad, "\n".join(format_failure(e, o) for e, o in bad)


def test_save_and_load_round_trip(tmp_path):
    case = FuzzCase(seed=42, threads=2, iterations=3,
                    features=("arith", "futex"), region_pos=10,
                    region_len_pct=80)
    path = save_corpus_case(str(tmp_path), case, name="round-trip",
                            bug="serialization check", check_elfie=False)
    entry = load_corpus_case(path)
    assert entry.case == case
    assert entry.bug == "serialization check"
    assert not entry.check_elfie
    # the on-disk form is stable, sorted JSON (reviewable diffs)
    with open(path) as handle:
        data = json.load(handle)
    assert data["version"] == 1


@pytest.mark.parametrize("key", ["version", "name", "bug", "check_elfie",
                                 "case"])
def test_corpus_case_missing_a_key_is_rejected(key):
    """A pinned entry is read without defaults: one missing a key is an
    error naming it, not a case replayed with a guessed setting."""
    data = CorpusCase(name="demo", case=FuzzCase(seed=7), bug="demo bug",
                      check_elfie=False).to_json()
    del data[key]
    with pytest.raises(ValueError, match="lacks key '%s'" % key):
        CorpusCase.from_json(data)


def test_corpus_case_of_another_version_is_rejected():
    data = CorpusCase(name="demo", case=FuzzCase(seed=7),
                      bug="demo bug").to_json()
    data["version"] = CORPUS_VERSION + 1
    with pytest.raises(ValueError, match="version %d is not %d"
                       % (CORPUS_VERSION + 1, CORPUS_VERSION)):
        CorpusCase.from_json(data)


def test_format_failure_mentions_seed_and_bug():
    case = FuzzCase(seed=7, features=("arith",))
    entry = CorpusCase(name="demo", case=case, bug="demo bug")
    from repro.verify import FuzzOutcome
    outcome = FuzzOutcome(case=case, ok=False, stage="replay",
                          detail="boom")
    text = format_failure(entry, outcome)
    assert "demo bug" in text
    assert "boom" in text
    assert '"seed": 7' in text
