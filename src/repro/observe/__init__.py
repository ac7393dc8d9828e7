"""Observability: tracing and metrics telemetry for the pipeline.

The paper's pipeline (capture -> convert -> replay -> simulate) is
itself a long-running system; this package gives it near-zero-overhead
introspection:

- :mod:`repro.observe.trace` — span tracing with Chrome trace-event
  JSON export (``chrome://tracing`` / Perfetto loadable);
- :mod:`repro.observe.metrics` — counters, gauges and p50/p95/p99
  histograms with JSON/text snapshots;
- :mod:`repro.observe.hooks` — the null-object dispatch point the
  instrumented modules read (``hooks.OBS``), plus ``enable`` /
  ``disable`` / ``observed``.
"""

from repro.observe.hooks import (
    NullObserver,
    Observer,
    disable,
    enable,
    observed,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    load_snapshot,
)
from repro.observe.trace import Span, Tracer

__all__ = [
    "NullObserver",
    "Observer",
    "disable",
    "enable",
    "observed",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "load_snapshot",
    "Span",
    "Tracer",
]
