"""Tests of the end-to-end benchmark's metric math and output format.

Run from the repository root::

    python3 -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from campaigns import WORKLOADS  # noqa: E402
from compare import verdict  # noqa: E402
from summary import (  # noqa: E402
    critical_path_s,
    farm_metrics,
    percentile,
    quartiles,
    tail_metrics,
    unattributed_frac,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _record(job, stage, wall, cache="miss", state="ok", attempts=1,
            icount=None):
    return {"job": job, "stage": stage, "wall_s": wall, "cache": cache,
            "state": state, "attempts": attempts, "icount": icount}


MANIFEST = [
    _record("a/profile", "profile", 2.0, icount=4_000_000),
    _record("a/select", "cluster", 0.5),
    _record("a/log0", "log", 1.0, icount=1_000_000),
    _record("a/log1", "log", 3.0, icount=2_000_000, attempts=2),
    _record("a/convert/r0", "convert", 0.25),
    _record("a/convert/r1", "convert", 0.75),
    _record("a/assemble", "assemble", 0.0, cache="none"),
    _record("a/validate/elfie", "validate", 4.0),
    _record("b/profile", "profile", 1.0, cache="hit"),
    _record("b/select", "cluster", 0.0, cache="hit"),
    _record("b/log0", "log", 6.0),
    _record("b/validate/elfie", "validate", 0.0, state="failed"),
]


def test_farm_metrics_from_a_synthetic_manifest():
    metrics = farm_metrics(MANIFEST, campaign_s=10.0, workers=2)
    # busy time counts executed jobs only: no cache hits, no failures
    assert metrics["farm.profile.busy_s"] == 2.0
    assert metrics["farm.log.busy_s"] == 10.0
    assert metrics["farm.convert.busy_s"] == 1.0
    assert metrics["farm.validate.busy_s"] == 4.0
    assert metrics["farm.profile.jobs"] == 2
    assert metrics["farm.validate.jobs"] == 2
    assert metrics["farm.profile.mips"] == pytest.approx(2.0)
    assert metrics["farm.log.mips"] == pytest.approx(0.3)
    # (2 + 0.5 + 10 + 1 + 4) job-seconds over 10 s x 2 workers
    assert metrics["farm.worker_util"] == pytest.approx(17.5 / 20.0)
    # app a: 2 + 0.5 + max(1, 3) + max(.25, .75) + 0 + 4; app b: 6
    assert metrics["farm.critical_path_s"] == pytest.approx(10.25)
    assert critical_path_s(MANIFEST[8:]) == 6.0
    assert metrics["farm.cache_hit_frac"] == pytest.approx(2 / 11)
    assert metrics["farm.retries"] == 1


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile([], 50) is None
    few = tail_metrics("service.submit", [0.001] * 30, 1e3, "_ms")
    assert few == {"service.submit.n": 30.0,
                   "service.submit.p50_ms": pytest.approx(1.0),
                   "service.submit.p90_ms": 0.0}


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def _span(cat, ts, dur, name="x"):
    return {"ph": "X", "cat": cat, "name": name, "ts": ts, "dur": dur}


def test_unattributed_share_of_root_time():
    events = [
        _span("e2e", 0, 100),
        _span("layer", 10, 20),   # 10..30
        _span("layer", 20, 20),   # overlaps: 30..40 is new
        _span("layer", 90, 30),   # clipped to 90..100
        _span("other", 50, 10),   # not a layer span
    ]
    assert unattributed_frac(events) == pytest.approx(0.6)
    assert unattributed_frac([]) == 0.0


@pytest.mark.parametrize("base,new,better,expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "ok"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "higher", "regressed"),
    ([1.0, 2.0, 0.5, 1.5], [1.1, 1.9, 0.6, 1.4], "lower", "unresolved"),
    ([1.0, 2.0, 0.5, 1.5], [0.1, 0.2, 0.1, 0.2], "lower", "ok"),
])
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, better, 0.10)[0] == expected


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_of_benchmark_json_is_reported(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "looppoint_mt", "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.unattributed_frac"]["value"] <= 0.10
        assert (tmp_path / "looppoint_mt-s3-t1.trace.json").exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
