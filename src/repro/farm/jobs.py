"""Dependency-ordered job graphs for checkpoint campaigns.

A :class:`Job` is a picklable function plus arguments; arguments may
contain :class:`Ref` placeholders naming earlier jobs, which the runner
replaces with those jobs' results before execution.  Jobs carry an
optional memoization *key*: when the key is already present in the
artifact store, the runner serves the cached result instead of running
the function.

The graph is built in dependency order — a job's ``deps`` must already
be registered when it is added — which makes cycles unrepresentable.
Jobs added later (e.g. by a completed job's ``expand`` callback, the
mechanism the region pipeline uses once clustering has decided how
many regions exist) obey the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Ref:
    """Placeholder for a dependency's result inside ``Job.args``.

    ``select`` optionally post-processes the referenced result in the
    parent process (e.g. pick one pinball out of a logged group) before
    it is shipped to a worker.
    """

    job: str
    select: Optional[Callable[[Any], Any]] = None

    def resolve(self, results: Dict[str, Any]) -> Any:
        value = results[self.job]
        return self.select(value) if self.select is not None else value


def resolve_refs(value: Any, results: Dict[str, Any]) -> Any:
    """Recursively substitute :class:`Ref` placeholders in *value*."""
    if isinstance(value, Ref):
        return value.resolve(results)
    if isinstance(value, tuple):
        return tuple(resolve_refs(item, results) for item in value)
    if isinstance(value, list):
        return [resolve_refs(item, results) for item in value]
    if isinstance(value, dict):
        return {key: resolve_refs(item, results)
                for key, item in value.items()}
    return value


def iter_refs(value: Any) -> Iterator[Ref]:
    if isinstance(value, Ref):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from iter_refs(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_refs(item)


@dataclass
class Job:
    """One unit of campaign work."""

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Store memoization key; empty string disables caching.
    key: str = ""
    #: Codec kind the result is stored under ("" lets the store infer).
    kind: str = ""
    #: Names of jobs that must complete first.
    deps: Tuple[str, ...] = ()
    #: Per-job retry override (None uses the runner default).
    retries: Optional[int] = None
    #: Run in the parent process (for cheap assembly steps whose inputs
    #: are large — avoids shipping them through the pool).
    local: bool = False
    #: Pipeline stage label for the manifest ("profile", "log", ...).
    stage: str = ""
    #: Region-selector identity ("bbv-simpoint/v1", "looppoint/v1") for
    #: the manifest; campaigns also fold it into memo keys so artifacts
    #: from different selectors never collide in the store.
    selector: str = ""
    #: Parent-side callback ``expand(result, graph, results)`` invoked
    #: on completion (cache hits included); may add downstream jobs.
    expand: Optional[Callable[[Any, "JobGraph", Dict[str, Any]], None]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        implied = tuple(ref.job for ref in iter_refs((self.args, self.kwargs))
                        if ref.job not in self.deps)
        if implied:
            self.deps = self.deps + implied


class JobGraph:
    """An append-only DAG of jobs.

    Dependencies must exist when a job is added, so the add order is a
    topological order and the graph can never contain a cycle.
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []

    def add(self, job: Job) -> Job:
        if job.name in self.jobs:
            raise ValueError("duplicate job name %r" % job.name)
        for dep in job.deps:
            if dep not in self.jobs:
                raise ValueError("job %r depends on unknown job %r"
                                 % (job.name, dep))
        self.jobs[job.name] = job
        self._order.append(job.name)
        return job

    def order(self) -> List[str]:
        """Job names in (a) topological order: the insertion order."""
        return list(self._order)
