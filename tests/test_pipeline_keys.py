"""Pinned farm memo keys of both region selectors.

Stores keep artifacts under these keys, so a key that drifts turns
every warm campaign cold.  Each test runs one tiny campaign (jobs=1)
and compares a sha256 of its sorted ``(job, key)`` manifest pairs with
a recorded constant.  A deliberate key change (a selector version
bump) updates the constant and says why.
"""

import hashlib
import json

import pytest

from repro.farm import ArtifactStore, read_manifest
from repro.looppoint import looppoint_validation, run_looppoint_campaign
from repro.simpoint import elfie_validation, run_pinpoints_campaign
from repro.workloads import MT_APPS, get_app

PINPOINTS_KEYS = "4495846187522408b2ad460822912594aa3979de9db8e2ec5b676f5b825fcf02"
LOOPPOINT_KEYS = "79f7d8dfa15c0b09e2b79d1c452a9dea1c013fa05c1d863cdec20d8ecf66cc26"


def _key_digest(manifest_path):
    pairs = sorted((record["job"], record["key"])
                   for record in read_manifest(manifest_path))
    return hashlib.sha256(json.dumps(pairs).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("selector", ["pinpoints", "looppoint"])
def test_campaign_memo_keys_are_pinned(tmp_path, selector):
    store = ArtifactStore(str(tmp_path / "store"))
    manifest = str(tmp_path / "run.jsonl")
    if selector == "pinpoints":
        run_pinpoints_campaign(
            {"505.mcf_r": get_app("505.mcf_r").build("test")}, store,
            jobs=1, manifest_path=manifest, slice_size=10_000,
            warmup=20_000, max_k=4, max_alternates=1,
            validations=[elfie_validation("v", trials=1)])
        expected = PINPOINTS_KEYS
    else:
        run_looppoint_campaign(
            {"mt.prodcons": MT_APPS["mt.prodcons"].build("test")}, store,
            jobs=1, manifest_path=manifest, slice_markers=64, max_k=4,
            max_alternates=1,
            validations=[looppoint_validation("v", trials=1)])
        expected = LOOPPOINT_KEYS
    assert _key_digest(manifest) == expected
