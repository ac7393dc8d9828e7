"""JSON-lines run manifests: one record per job, for observability.

A campaign appends one record per finished job (including cache hits
and failures) to a ``.jsonl`` file.  Records are flat dicts so the file
greps and ``jq``s well::

    {"job": "502.gcc_r/log", "stage": "log", "state": "ok",
     "cache": "miss", "wall_s": 1.84, "worker": 512, "attempts": 1, ...}

``state`` is ``ok`` | ``failed`` | ``blocked`` (an upstream dependency
failed); ``cache`` is ``hit`` | ``miss`` | ``none`` (uncached job).

Appends are crash- and concurrency-safe: each record is written as one
``os.write`` to an ``O_APPEND`` descriptor, so concurrent writers never
interleave bytes within a line, and a killed writer leaves at most one
partial trailing line — which :func:`read_manifest` tolerates.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

Record = Dict[str, Any]


class RunManifest:
    """Appends job records to a JSON-lines file as they complete.

    ``resume`` keeps whatever is already in the file (several writers —
    e.g. service campaign clients — sharing one manifest); the default
    truncates, because one manifest normally describes one campaign run.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "a" if resume else "w"):
            pass

    def append(self, record: Record) -> None:
        record = dict(record)
        record.setdefault("ts", time.time())
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        # One O_APPEND write per record: POSIX appends are atomic with
        # respect to each other, so records from concurrent runners (or
        # a runner killed mid-append) never corrupt earlier lines.
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                # a killed writer left a torn tail: terminate it so this
                # record starts on a fresh line (the reader drops both
                # the torn fragment and any stray blank line)
                os.write(fd, b"\n")
            os.write(fd, line)
        finally:
            os.close(fd)


def read_manifest(path: str) -> List[Record]:
    """Parse a manifest, skipping an unparseable (torn) trailing line."""
    records: List[Record] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                # a writer died mid-append; the torn line carries no
                # completed job, so skipping it loses nothing
                continue
    return records


def summarize_manifest(records: List[Record]) -> Dict[str, Any]:
    """Aggregate counts a campaign prints after a run."""
    summary: Dict[str, Any] = {
        "jobs": len(records),
        "ok": 0, "failed": 0, "blocked": 0,
        "cache_hits": 0, "cache_misses": 0,
        "retries": 0,
        "executed_wall_s": 0.0,
        "executed_icount": 0,
        "interp_wall_s": 0.0,
        "mips": 0.0,
        "workers": set(),
        "stages": {},
    }
    for record in records:
        state = record.get("state", "")
        if state in summary:
            summary[state] += 1
        cache = record.get("cache")
        if cache == "hit":
            summary["cache_hits"] += 1
        elif cache == "miss":
            summary["cache_misses"] += 1
        summary["retries"] += max(0, record.get("attempts", 1) - 1)
        if cache != "hit" and record.get("wall_s"):
            summary["executed_wall_s"] += record["wall_s"]
        if record.get("worker"):
            summary["workers"].add(record["worker"])
        stage = record.get("stage") or "other"
        per_stage = summary["stages"].setdefault(
            stage, {"jobs": 0, "hits": 0, "executed": 0, "wall_s": 0.0,
                    "icount": 0, "mips": 0.0})
        per_stage["jobs"] += 1
        if cache == "hit":
            per_stage["hits"] += 1
        elif state == "ok":
            per_stage["executed"] += 1
        if cache != "hit" and record.get("wall_s"):
            per_stage["wall_s"] += record["wall_s"]
            # Interpreter MIPS: only jobs that report an executed icount
            # contribute, and their wall time is pooled separately so
            # non-interpreting stages don't dilute the rate.
            icount = record.get("icount")
            if icount:
                per_stage["icount"] += icount
                summary["executed_icount"] += icount
                summary["interp_wall_s"] += record["wall_s"]
    # workers are pids on the local path and names on the service path
    summary["workers"] = sorted(summary["workers"], key=str)
    summary["executed_wall_s"] = round(summary["executed_wall_s"], 4)
    summary["interp_wall_s"] = round(summary["interp_wall_s"], 4)
    if summary["interp_wall_s"]:
        summary["mips"] = round(
            summary["executed_icount"] / summary["interp_wall_s"] / 1e6, 3)
    for per_stage in summary["stages"].values():
        per_stage["wall_s"] = round(per_stage["wall_s"], 4)
        if per_stage["icount"] and per_stage["wall_s"]:
            per_stage["mips"] = round(
                per_stage["icount"] / per_stage["wall_s"] / 1e6, 3)
    return summary


def executed_jobs(records: List[Record],
                  stage: Optional[str] = None) -> List[Record]:
    """Records of jobs that actually ran (not cache hits/blocked)."""
    return [record for record in records
            if record.get("state") == "ok" and record.get("cache") != "hit"
            and (stage is None or record.get("stage") == stage)]
