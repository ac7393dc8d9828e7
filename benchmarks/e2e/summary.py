"""Pure metric math: manifests, spans and samples to named numbers.

Nothing here runs the program, so ``test_e2e.py`` checks every rule
on synthetic inputs.
"""

from __future__ import annotations

import math
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Chrome-trace category of layer spans and of the per-repetition root
#: span, and the root span's name.
LAYER_CAT = "layer"
ROOT_CAT = "e2e"
ROOT_SPAN = "rep"

#: Stages whose busy time, job count (and, for the interpreting ones,
#: MIPS) are reported per layer.
BUSY_STAGES = ("profile", "cluster", "log", "convert", "validate")
MIPS_STAGES = ("profile", "log")

#: A percentile is reported only with at least this many samples above it.
TAIL_SAMPLES = 10

MB = float(1 << 20)


def percentile(samples: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank *p*-th percentile, or None when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    if n == 0 or n * (100.0 - p) / 100.0 < TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def dir_bytes(root: str) -> int:
    """Bytes of every regular file under *root*."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            if os.path.isfile(path) and not os.path.islink(path):
                total += os.path.getsize(path)
    return total


# -- farm manifests ---------------------------------------------------------


def _executed(record: Dict[str, Any]) -> bool:
    return record.get("state") == "ok" and record.get("cache") != "hit"


def critical_path_s(records: Iterable[Dict[str, Any]]) -> float:
    """Longest app's stage chain: sum over stages of its slowest job.

    An app's stages run one after another (profile, cluster, log,
    convert, assemble, validate) while jobs within a stage may run in
    parallel, so this bounds the campaign's critical path from below by
    its slowest app; manifests carry no edges finer than the stage.
    """
    slowest: Dict[str, Dict[str, float]] = defaultdict(dict)
    for record in records:
        if not _executed(record):
            continue
        app = record["job"].split("/", 1)[0]
        stage = record.get("stage") or "other"
        wall = float(record.get("wall_s") or 0.0)
        slowest[app][stage] = max(slowest[app].get(stage, 0.0), wall)
    return max((sum(stages.values()) for stages in slowest.values()),
               default=0.0)


def farm_metrics(records: List[Dict[str, Any]], campaign_s: float,
                 workers: int) -> Dict[str, float]:
    """The ``farm.*`` layer metrics of one campaign's manifest records."""
    metrics: Dict[str, float] = {}
    for stage in BUSY_STAGES:
        in_stage = [r for r in records if r.get("stage") == stage]
        ran = [r for r in in_stage if _executed(r)]
        busy = sum(float(r.get("wall_s") or 0.0) for r in ran)
        metrics["farm.%s.busy_s" % stage] = busy
        metrics["farm.%s.jobs" % stage] = float(len(in_stage))
        if stage in MIPS_STAGES:
            icount = sum(r.get("icount") or 0 for r in ran)
            metrics["farm.%s.mips" % stage] = (icount / busy / 1e6
                                               if busy else 0.0)
    busy_wall = sum(float(r.get("wall_s") or 0.0)
                    for r in records if _executed(r))
    metrics["farm.worker_util"] = (busy_wall / (campaign_s * workers)
                                   if campaign_s and workers else 0.0)
    metrics["farm.critical_path_s"] = critical_path_s(records)
    keyed = [r for r in records if r.get("cache") in ("hit", "miss")]
    hits = sum(1 for r in keyed if r.get("cache") == "hit")
    metrics["farm.cache_hit_frac"] = hits / len(keyed) if keyed else 0.0
    metrics["farm.retries"] = float(sum(max(0, (r.get("attempts") or 1) - 1)
                                        for r in records))
    return metrics


def failed_jobs(records: Iterable[Dict[str, Any]]) -> int:
    return sum(1 for r in records if r.get("state") in ("failed", "blocked"))


# -- traces -------------------------------------------------------------------


def span_totals(events: Iterable[Dict[str, Any]]
                ) -> Dict[str, Dict[str, float]]:
    """Per span name (layer and root spans): call count, seconds and
    summed numeric args."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for event in events:
        if event.get("ph") != "X" or \
                event.get("cat") not in (LAYER_CAT, ROOT_CAT):
            continue
        entry = totals[event["name"]]
        entry["calls"] += 1
        entry["s"] += event["dur"] / 1e6
        for key, value in event.get("args", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] += value
    return totals


def _union_us(intervals: List[Tuple[float, float]]) -> float:
    covered, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


def unattributed_frac(events: Iterable[Dict[str, Any]]) -> float:
    """Share of root-span time that no layer span (any thread) covers."""
    events = [e for e in events if e.get("ph") == "X"]
    roots = [(e["ts"], e["ts"] + e["dur"]) for e in events
             if e.get("cat") == ROOT_CAT]
    spans = [(e["ts"], e["ts"] + e["dur"]) for e in events
             if e.get("cat") == LAYER_CAT]
    total = sum(stop - start for start, stop in roots)
    if not total:
        return 0.0
    covered = 0.0
    for root_start, root_stop in roots:
        clipped = [(max(start, root_start), min(stop, root_stop))
                   for start, stop in spans
                   if start < root_stop and stop > root_start]
        covered += _union_us(clipped)
    return max(0.0, 1.0 - covered / total)


def _rate(numerator: float, seconds: float, scale: float) -> float:
    return numerator / seconds / scale if seconds else 0.0


#: Job-level spans whose bodies run the interpreter.
INTERPRETING = ("simpoint.collect_bbv", "simpoint.measure_elfie",
                "looppoint.collect", "looppoint.validate",
                "pinplay.log_regions", "sniper.pass")

#: Per-layer MIPS metric -> the span whose instructions and time it uses.
MIPS_SPANS = {
    "simpoint.collect_bbv_mips": "simpoint.collect_bbv",
    "simpoint.measure_elfie_mips": "simpoint.measure_elfie",
    "looppoint.collect_mips": "looppoint.collect",
    "pinplay.log_mips": "pinplay.log_regions",
    "pinplay.replay_mips": "pinplay.replay",
}

#: Spans whose seconds per traced repetition are reported as ``<span>_s``.
TIMED_SPANS = ("simpoint.collect_bbv", "simpoint.select",
               "simpoint.measure_elfie", "looppoint.collect",
               "looppoint.select", "looppoint.validate",
               "pinplay.log_regions", "core.convert")


def layer_metrics(totals: Dict[str, Dict[str, float]], traced_reps: int,
                  store_stats: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer numbers from :func:`span_totals` of the traced reps.

    Times and counts are per traced repetition; rates are totals over
    totals, so they do not depend on how many repetitions were traced.
    Whole-repetition counters come from the root spans (named
    :data:`ROOT_SPAN`), which never overlap one another.
    """
    reps = max(1, traced_reps)

    def total(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_rep(counter: str) -> float:
        return total(ROOT_SPAN, counter) / reps

    metrics: Dict[str, float] = {}
    interp_s = sum(entry["s"] for name, entry in totals.items()
                   if name in INTERPRETING and entry.get("cpu.instructions"))
    metrics["machine.run_mips"] = _rate(total(ROOT_SPAN, "cpu.instructions"),
                                        interp_s, 1e6)
    hits = total(ROOT_SPAN, "cpu.block_cache.hits")
    misses = total(ROOT_SPAN, "cpu.block_cache.misses")
    metrics["cpu.block_cache.hit_frac"] = (hits / (hits + misses)
                                           if hits + misses else 0.0)
    metrics["cpu.compiled.calls"] = per_rep("cpu.compiled.calls")
    metrics["kernel.syscalls"] = per_rep("kernel.syscalls")
    for metric, name in MIPS_SPANS.items():
        metrics[metric] = _rate(total(name, "cpu.instructions"),
                                total(name), 1e6)
    for name in TIMED_SPANS:
        metrics[name + "_s"] = total(name) / reps
    metrics["pinplay.pages_captured"] = total("pinplay.log_regions",
                                              "logger.pages_captured") / reps
    metrics["core.convert_mb_s"] = _rate(total("core.convert", "bytes"),
                                         total("core.convert"), MB)
    metrics["core.elfie_mb"] = total("core.convert", "bytes") / reps / MB
    for kind in ("elfie", "pinball"):
        name = "sniper.simulate_" + kind
        metrics["sniper.%s_kips" % kind] = _rate(
            total(name, "sim_instructions"), total(name), 1e3)
    metrics["store.put_mb_s"] = _rate(total("store.put", "bytes"),
                                      total("store.put"), MB)
    metrics["store.get_mb_s"] = _rate(total("store.get", "bytes"),
                                      total("store.get"), MB)
    stats = store_stats or {}
    metrics["store.dedup_ratio"] = stats.get("dedup_ratio", 0.0)
    metrics["store.compression_ratio"] = stats.get("compression_ratio", 0.0)
    metrics["service.wait_s"] = total("service.wait") / reps
    metrics["service.download_mb"] = per_rep("service.artifact_bytes_out") / MB
    metrics["service.upload_mb"] = per_rep("service.artifact_bytes_in") / MB
    return metrics


def tail_metrics(prefix: str, samples: Sequence[float], unit_scale: float,
                 suffix: str) -> Dict[str, float]:
    """``<prefix>.p50<suffix>``, ``.p90<suffix>`` and ``.n``.

    A percentile without :data:`TAIL_SAMPLES` samples beyond it reads 0;
    ``.n`` tells the two cases apart.
    """
    metrics = {"%s.n" % prefix: float(len(samples))}
    for p in (50, 90):
        value = percentile(samples, p)
        metrics["%s.p%d%s" % (prefix, p, suffix)] = (
            value * unit_scale if value is not None else 0.0)
    return metrics
