"""Layer spans measured from outside the program.

Every span here wraps a call into a layer's public interface: a farm
job body, an artifact-store read or write, a service RPC, a simulator
entry point.  Spans go through the program's own observability hooks
(:mod:`repro.observe.hooks`), so they exist only while the benchmark
has installed a live observer and cost one attribute test otherwise;
the untraced runs that produce the end-to-end metrics therefore run
the unmodified code path.

Each span records, as span args, the deltas of a few program counters
(interpreter instructions, block-cache hits and misses, syscalls, pages
captured) over its lifetime, so per-layer rates can be recomputed from
the exported Chrome trace alone (see ``summary.span_totals``).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.farm import ArtifactStore, FarmRunner
from repro.observe import hooks
from repro.service import ServiceClient

from summary import LAYER_CAT

#: Program counters whose deltas every layer span records.
WATCHED = (
    "cpu.instructions",
    "cpu.block_cache.hits",
    "cpu.block_cache.misses",
    "cpu.compiled.calls",
    "kernel.syscalls",
    "logger.pages_captured",
    "service.artifact_bytes_in",
    "service.artifact_bytes_out",
)


class _NoSpan:
    """Stand-in yielded while tracing is off."""

    def set(self, **args: Any) -> "_NoSpan":
        return self


_NO_SPAN = _NoSpan()


def _counters(obs) -> Dict[str, int]:
    return {name: obs.metrics.counter(name).value for name in WATCHED}


@contextmanager
def layer(name: str, cat: str = LAYER_CAT, **args: Any) -> Iterator[Any]:
    """Span one layer call; records counter deltas as span args."""
    obs = hooks.OBS
    if not obs.enabled:
        yield _NO_SPAN
        return
    before = _counters(obs)
    with obs.span(name, cat, **args) as span:
        try:
            yield span
        finally:
            after = _counters(obs)
            span.set(**{counter: after[counter] - before[counter]
                        for counter in WATCHED
                        if after[counter] != before[counter]})


class TimedStore(ArtifactStore):
    """An :class:`ArtifactStore` whose reads and writes are layer spans."""

    def put(self, key: str, obj: Any, kind: str = "") -> str:
        with layer("store.put") as span:
            super().put(key, obj, kind)
            span.set(bytes=self.get_record(key)["logical_bytes"])
        return key

    def get(self, key: str) -> Any:
        with layer("store.get") as span:
            obj = super().get(key)
            span.set(bytes=self.get_record(key)["logical_bytes"])
        return obj

    def contains(self, key: str) -> bool:
        with layer("store.contains"):
            return super().contains(key)


class TimedClient(ServiceClient):
    """A :class:`ServiceClient` that times its campaign-facing RPCs.

    Latencies are kept for every call (two clock reads each), so a run
    accumulates enough samples for tail percentiles; the calls are also
    layer spans while tracing is on.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.latencies: Dict[str, List[float]] = defaultdict(list)

    def _timed(self, verb: str, call, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        with layer("service." + verb):
            result = call(*args, **kwargs)
        self.latencies[verb].append(time.perf_counter() - start)
        return result

    def submit(self, *args: Any, **kwargs: Any) -> dict:
        return self._timed("submit", super().submit, *args, **kwargs)

    def wait(self, *args: Any, **kwargs: Any) -> dict:
        return self._timed("wait", super().wait, *args, **kwargs)

    def get_artifact(self, key: str) -> Any:
        return self._timed("get_artifact", super().get_artifact, key)


class InlineRunner(FarmRunner):
    """A one-process :class:`FarmRunner` that spans every job body.

    ``layer_of(job)`` names the layer a job's body calls into; jobs
    added later by ``expand`` callbacks are wrapped as they are added.
    Memo keys are computed before wrapping, so the store contents match
    a pooled run of the same campaign byte for byte.
    """

    def __init__(self, store: ArtifactStore, layer_of,
                 **kwargs: Any) -> None:
        super().__init__(store, jobs=1, **kwargs)
        self.layer_of = layer_of

    def _wrap(self, job):
        body, name = job.fn, self.layer_of(job)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with layer(name, job=job.name) as span:
                result = body(*args, **kwargs)
                image = getattr(result, "image", None)
                if isinstance(image, bytes):
                    span.set(bytes=len(image))
                return result

        job.fn = traced
        return job

    def run(self, graph, strict: bool = True):
        for job in graph.jobs.values():
            self._wrap(job)
        add = graph.add
        graph.add = lambda job: add(self._wrap(job))
        return super().run(graph, strict=strict)
