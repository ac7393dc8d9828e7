"""Span-based structured tracing with Chrome trace-event export.

A :class:`Tracer` collects *events* — completed spans (``ph: "X"``),
instant marks (``ph: "i"``) and metadata (``ph: "M"``) — into a
process-wide, thread-safe list and serializes them in the Chrome
trace-event JSON format, so a ``farm run --trace run.json`` artifact
loads directly into ``chrome://tracing`` or https://ui.perfetto.dev.

Spans nest per thread: each thread keeps its own span stack, so a
``logger.record`` span opened inside a ``campaign.run`` span is
rendered as a child row in the viewer (the format infers nesting from
``ts``/``dur`` within one ``tid``).  Externally-timed work — a farm job
that ran in a worker process, whose wall time the parent learns from
the pool result — is recorded with :meth:`Tracer.complete`, which
back-dates the span start so the duration matches the measured wall
time exactly (this is what lets tests cross-check trace spans against
the JSONL run manifest).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional


class Span:
    """A context manager that emits one complete ("X") event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_us")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start_us: Optional[float] = None

    def set(self, **args: Any) -> "Span":
        """Attach extra args to the span (shown in the viewer)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        self._start_us = self._tracer._now_us()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_us = self._tracer._now_us()
        self._tracer._pop(self)
        if exc_type is not None:
            self.args.setdefault("error", "%s: %s" % (exc_type.__name__, exc))
        self._tracer._emit({
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "X",
            "ts": round(self._start_us, 3),
            "dur": round(end_us - self._start_us, 3),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": self.args,
        })
        return False


class Tracer:
    """Process-wide collector of trace events.

    Thread-safe: events append under a lock, and the span stack used
    for nesting is ``threading.local``.  Timestamps are microseconds
    since tracer creation (``time.perf_counter`` based).
    """

    def __init__(self, process_name: str = "repro") -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._emit({
            "name": "process_name",
            "ph": "M",
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": {"name": process_name},
        })

    # -- clock / stack ------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def depth(self) -> int:
        """Current span-nesting depth of the calling thread."""
        return len(self._stack())

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- event production ---------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, cat: str = "", **args: Any) -> Span:
        """Open a nested span: ``with tracer.span("logger.record"): ...``"""
        return Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record a zero-duration mark (divergence, ROI transition...)."""
        self._emit({
            "name": name,
            "cat": cat or "repro",
            "ph": "i",
            "s": "t",
            "ts": round(self._now_us(), 3),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        })

    def complete(self, name: str, wall_s: float, cat: str = "",
                 **args: Any) -> None:
        """Record an externally-timed span of *wall_s* seconds ending now.

        Used when the timed work ran somewhere the tracer could not see
        (a pool worker process): the caller supplies the measured wall
        time and the span is back-dated so ``dur`` equals it exactly.
        """
        dur_us = wall_s * 1e6
        self._emit({
            "name": name,
            "cat": cat or "repro",
            "ph": "X",
            "ts": round(max(0.0, self._now_us() - dur_us), 3),
            "dur": round(dur_us, 3),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        })

    # -- export -------------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
        }

    def export(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, indent=1, sort_keys=True)
