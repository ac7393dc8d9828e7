"""Null-object observability hooks for the pipeline's hot paths.

Instrumented modules do::

    from repro.observe import hooks
    ...
    obs = hooks.OBS
    if obs.enabled:
        obs.count("kernel.syscalls")

``hooks.OBS`` is a module attribute holding either the shared
:data:`NULL` observer (``enabled`` is ``False`` — the default) or a
live :class:`Observer` wired to a :class:`~repro.observe.trace.Tracer`
and :class:`~repro.observe.metrics.MetricsRegistry`.  With
observability disabled a call site therefore costs one module-attribute
lookup plus a class-attribute test; ``benchmarks/bench_observe_overhead``
holds this to <3% of interpreter throughput on the Table I workloads.

Hot loops must keep the ``if obs.enabled:`` guard and fire at batch
granularity (the interpreter counts instructions once per scheduler
quantum, not per instruction; its superblock translation cache flushes
``cpu.block_cache.{hits,misses,invalidations}`` counter deltas once per
quantum and records a ``cpu.block_cache.block_length`` histogram sample
per block build).  Cold paths may call the no-op methods
unconditionally — on the null observer they do nothing and return a
shared no-op context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import Tracer


class _NullSpan:
    """Context manager that does nothing; shared by every null call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The disabled path: every method is a no-op."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = "", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, name: str, wall_s: float, cat: str = "",
                 **args: Any) -> None:
        pass

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


class Observer(NullObserver):
    """The enabled path: forwards to a tracer and a metrics registry."""

    __slots__ = ("tracer", "metrics")
    enabled = True

    def __init__(self, tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def span(self, name: str, cat: str = "", **args: Any):
        return self.tracer.span(name, cat, **args)

    def complete(self, name: str, wall_s: float, cat: str = "",
                 **args: Any) -> None:
        self.tracer.complete(name, wall_s, cat, **args)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        self.tracer.instant(name, cat, **args)

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)


NULL = NullObserver()

#: The process-wide observer every instrumented call site reads.
OBS: NullObserver = NULL


def enable(tracer: Optional[Tracer] = None,
           metrics: Optional[MetricsRegistry] = None) -> Observer:
    """Install (and return) a live observer as the process-wide hooks."""
    global OBS
    OBS = Observer(tracer=tracer, metrics=metrics)
    return OBS


def disable() -> None:
    """Restore the no-op observer."""
    global OBS
    OBS = NULL


@contextmanager
def observed(tracer: Optional[Tracer] = None,
             metrics: Optional[MetricsRegistry] = None) -> Iterator[Observer]:
    """Scoped enable/restore — the test-friendly entry point."""
    global OBS
    previous = OBS
    obs = enable(tracer=tracer, metrics=metrics)
    try:
        yield obs
    finally:
        OBS = previous
