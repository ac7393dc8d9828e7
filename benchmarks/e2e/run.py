"""End-to-end checkpoint-campaign benchmark.

One run measures one workload for one seed and prints, as the last
line of stdout, one JSON object::

    {"correct": true, "attempted": 312, "failed": 0,
     "metrics": {"campaign_s": {"value": 5.61, "unit": "s"}, ...}}

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload pinpoints_int --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` (or bare ``--trace``)
reports the per-layer metrics: it adds traced repetitions, each paired
with an untraced twin, and writes a Chrome trace next to the result.
Full results go to ``benchmarks/e2e/out/``.  The exit code is 0 only
when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from campaigns import WORKLOADS  # noqa: E402
from repro.observe import MetricsRegistry, Tracer, hooks  # noqa: E402
from summary import (  # noqa: E402
    MB,
    failed_jobs,
    farm_metrics,
    layer_metrics,
    span_totals,
    tail_metrics,
    unattributed_frac,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measurement time (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for full results and traces")
    return parser.parse_args(argv)


def _send(fn, sender) -> None:
    try:
        sender.send((True, fn()))
    except Exception:
        sender.send((False, traceback.format_exc()))
    finally:
        sender.close()


def forked(fn):
    """Run ``fn()`` in a forked child process and return its result.

    Callers fork only while this process holds no threads (servers and
    pools live in the children), which keeps ``fork`` safe.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send, args=(fn, sender))
    child.start()
    sender.close()
    try:
        outcome = receiver.recv()
    except EOFError:
        outcome = None
    finally:
        receiver.close()
        child.join()
    if outcome is None:
        raise RuntimeError("child died with exit code %s" % child.exitcode)
    ok, value = outcome
    if not ok:
        raise RuntimeError(value)
    return value


class Measurement:
    """Drives set-ups and repetitions of one workload.

    Set-ups, and the repetitions that report end-to-end metrics, run in
    forked children: every sample starts from the same lean parent, and
    a repetition's peak RSS is its own.  Traced repetitions run in this
    process, where the tracer lives.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setups: List[float] = []
        self.ctx: Any = None

    def _timed_setup(self) -> Tuple[Any, float]:
        start = time.perf_counter()
        ctx = self.workload.setup()
        return ctx, time.perf_counter() - start

    def prepare(self) -> None:
        if self.workload.setup_per_rep:
            return
        for _ in range(SETUP_REPEATS):
            self.close()
            self.ctx, took = forked(self._timed_setup)
            self.setups.append(took)

    def rep(self, inline: bool = False, observer: Optional[tuple] = None):
        """One repetition here; *observer* = (tracer, registry) traces
        the repetition but not its set-up."""
        ctx = self.ctx
        if self.workload.setup_per_rep:
            ctx, took = self._timed_setup()
            self.setups.append(took)
        try:
            if observer is None:
                return self.workload.rep(ctx, inline=inline)
            with hooks.observed(*observer):
                return self.workload.rep(ctx, inline=inline)
        finally:
            if self.workload.setup_per_rep:
                self.workload.teardown(ctx)

    def isolated_rep(self):
        setups, rep = forked(self._isolated)
        self.setups += setups
        return rep

    def _isolated(self):
        done = len(self.setups)
        rep = self.rep()
        rep.peak_rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return self.setups[done:], rep

    def close(self) -> None:
        if self.ctx is not None:
            self.workload.teardown(self.ctx)
            self.ctx = None


def _time_left(begin: float, seconds: float, walls: List[float]) -> bool:
    """Another repetition of the median length still fits the budget."""
    elapsed = time.perf_counter() - begin
    return elapsed + statistics.median(walls) <= seconds


def measure_untraced(run: Measurement, seconds: float) -> list:
    reps = []
    begin = time.perf_counter()
    while True:
        reps.append(run.isolated_rep())
        if not _time_left(begin, seconds, [r.wall_s for r in reps]):
            return reps


def measure_traced(run: Measurement, seconds: float
                   ) -> Tuple[list, list, list, Tracer]:
    """(ordinary reps, untraced twins, traced reps, tracer).

    Inline-traced workloads first run one ordinary farm repetition for
    the ``farm.*`` numbers; for the others the twins are ordinary
    repetitions.  Pairs alternate which side runs first, so neither
    side always inherits the other's warm caches.
    """
    tracer, registry = Tracer(process_name="benchmarks/e2e"), \
        MetricsRegistry()
    inline = run.workload.inline_trace
    ordinary = [run.rep()] if inline else []
    twins: list = []
    traced: list = []
    begin = time.perf_counter()
    while True:
        for side in ((0, 1) if len(traced) % 2 == 0 else (1, 0)):
            if side:
                traced.append(run.rep(inline, observer=(tracer, registry)))
            else:
                twins.append(run.rep(inline))
        pair_walls = [a.wall_s + b.wall_s for a, b in zip(twins, traced)]
        if not _time_left(begin, seconds, pair_walls):
            return ordinary, twins, traced, tracer


def check(reps: list) -> List[str]:
    """Every repetition's outputs must equal the first one's."""
    problems = [problem for rep in reps for problem in rep.problems]
    for index, rep in enumerate(reps[1:], 1):
        if rep.outcomes != reps[0].outcomes:
            problems.append("repetition %d disagrees with repetition 0 on "
                            "ELFie sha256 or validation numbers" % index)
    return problems


def end_to_end(setups: List[float], reps: list) -> Dict[str, float]:
    last = reps[-1]
    return {
        "campaign_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in reps)
        * 1024 / MB,
        "store_mb": last.store_bytes / MB,
        "pred_error_pct": last.quality["pred_error_pct"],
        "coverage_pct": last.quality["coverage_pct"],
    }


def farm_summary(reps: list) -> Dict[str, float]:
    """Median over repetitions of each ``farm.*`` manifest metric."""
    per_rep = [farm_metrics(r.records, r.wall_s, r.workers) for r in reps]
    return {name: statistics.median(m[name] for m in per_rep)
            for name in per_rep[0]}


def per_layer(ordinary: list, twins: list, traced: list, events: list
              ) -> Dict[str, float]:
    metrics = farm_summary(ordinary or twins)
    metrics.update(layer_metrics(span_totals(events), len(traced),
                                 traced[-1].store_stats))
    everyone = ordinary + twins + traced
    for verb in ("submit", "get_artifact"):
        metrics.update(tail_metrics(
            "service." + verb,
            [s for r in everyone for s in r.rpc_latencies.get(verb, [])],
            1e3, "_ms"))
    metrics.update(tail_metrics(
        "service.lease_latency",
        [s for r in everyone for s in r.lease_latencies], 1.0, "_s"))
    metrics["observe.overhead_pct"] = 100.0 * (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in twins) - 1.0)
    metrics["trace.unattributed_frac"] = unattributed_frac(events)
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    work = os.path.join(HERE, ".work", "%s-s%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    # keep every temp file inside the checkout
    tempfile.tempdir = work
    os.environ["TMPDIR"] = work
    seconds = args.seconds or spec["run_seconds"]
    run = Measurement(WORKLOADS[args.workload](args.seed, work,
                                               bool(args.trace)))
    try:
        run.prepare()
        if args.trace:
            ordinary, twins, traced, tracer = measure_traced(run, seconds)
            reps = ordinary + twins + traced
            farm = ordinary or twins
            metrics = per_layer(ordinary, twins, traced, tracer.events())
            reported = spec["per_layer"]
        else:
            reps = farm = measure_untraced(run, seconds)
            metrics = end_to_end(run.setups, reps)
            reported = spec["end_to_end"]
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    problems = check(reps)
    result = {
        "correct": not problems,
        "attempted": sum(len(r.records) for r in reps),
        "failed": sum(failed_jobs(r.records) for r in reps),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in reported},
    }
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "%s-s%d-t%d"
                        % (args.workload, args.seed, args.trace))
    if args.trace:
        tracer.export(stem + ".trace.json")
    with open(stem + ".json", "w") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       trace=args.trace, seconds=seconds,
                       problems=problems, setups_s=run.setups,
                       reps_s=[r.wall_s for r in reps],
                       all_metrics=metrics, farm=farm_summary(farm)),
                  handle, indent=1, sort_keys=True)
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
