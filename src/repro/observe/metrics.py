"""A registry of counters, gauges and histograms with snapshot export.

Three metric kinds, mirroring the usual telemetry trio:

- :class:`Counter` — monotonically increasing totals (instructions
  executed, syscalls by name, cache hits);
- :class:`Gauge` — last-value-wins measurements (live worker count);
- :class:`Histogram` — sampled distributions with nearest-rank
  p50/p95/p99 summaries (per-job wall times).

The :class:`MetricsRegistry` is thread-safe (one lock guards both
metric creation and mutation — metrics are only touched on the enabled
observability path, where the lock cost is irrelevant) and snapshots to
a plain JSON-able dict, so ``--metrics FILE`` output round-trips
through :func:`load_snapshot`.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Any, Dict, List

#: Cap on retained histogram samples; beyond it every other sample is
#: dropped (keeps memory bounded on million-observation runs while the
#: retained set stays distribution-representative).
MAX_SAMPLES = 65536


class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0


class Gauge:
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    __slots__ = ("name", "count", "total", "_samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._samples.append(value)
        if len(self._samples) > MAX_SAMPLES:
            self._samples = self._samples[::2]

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, float]:
        if not self._samples:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": min(self._samples),
            "max": max(self._samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metrics with get-or-create access and JSON/text snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (("counter", self._counters),
                                  ("gauge", self._gauges),
                                  ("histogram", self._histograms)):
            if other_kind != kind and name in table:
                raise ValueError("metric %r already registered as a %s"
                                 % (name, other_kind))

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, "counter")
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_free(name, "gauge")
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, "histogram")
                metric = self._histograms[name] = Histogram(name)
            return metric

    # -- convenience mutators (the hook layer calls these) -----------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, "counter")
                metric = self._counters[name] = Counter(name)
            metric.value += n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, "histogram")
                metric = self._histograms[name] = Histogram(name)
        metric.observe(value)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": {name: metric.value for name, metric
                             in sorted(self._counters.items())},
                "gauges": {name: metric.value for name, metric
                           in sorted(self._gauges.items())},
                "histograms": {name: metric.summary() for name, metric
                               in sorted(self._histograms.items())},
            }

    def export(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=1, sort_keys=True)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read back a snapshot written by :meth:`MetricsRegistry.export`."""
    with open(path) as handle:
        snapshot = json.load(handle)
    for section in ("counters", "gauges", "histograms"):
        if section not in snapshot:
            raise ValueError("not a metrics snapshot: missing %r" % section)
    return snapshot
