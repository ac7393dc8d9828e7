"""What a pooled campaign pickles: job arguments and results per stage.

A farm worker pool ships every non-local job as the task tuple
``FarmRunner._task`` builds, ``(fn, args, kwargs, resume, store, key,
kind)``, to a worker, which commits the result to the store itself and
sends ``(pid, wall, result)`` back, both through ``ForkingPickler``.
The traced end-to-end run cannot show that cost (its inline runner
never pickles), so this bench runs one cold PinPoints campaign in
process with the e2e ``pinpoints_int`` workload's parameters, keeps
every payload the pool would ship, and then pickles each one exactly
as the pool does: bytes, and dump+load CPU seconds, per pipeline
stage.  The campaign runs without a store, so the task's store field
is ``None`` here (a plain store pickles as its root path and
compression level, about 100 bytes a job, which would make the counts
depend on the host's paths).

Pinballs cross the pool three times (a log result, a convert argument,
and inside the validate job's ``PipelineResult``), so the footer also
reports the pickled size of their schedules per entry.

Byte counts are host-independent (deterministic but for the width of
a worker pid), so CI gates them in smoke mode (``REPRO_BENCH_FAST=1``,
which only cuts the timing repeats): schedules must pickle in at most
:data:`SCHEDULE_BYTES_CEILING` bytes per entry, and the total must not
grow more than :data:`BYTES_TOLERANCE` over the committed
``benchmarks/results/transfer.txt``.  CPU seconds are reported, never
gated.
"""

import os
import pickle
import re
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler

from conftest import FAST, RESULTS_DIR, publish

from repro.analysis import Table
from repro.farm import FarmRunner
from repro.pinplay.pinball import Pinball
from repro.simpoint import elfie_validation, run_pinpoints_campaign
from repro.workloads import SPEC2017_INT_RATE

#: The e2e ``pinpoints_int`` workload (benchmarks/e2e/campaigns.py):
#: the ten int-rate apps on ``test`` input, seed 1, validation seed 101.
PINPOINTS = dict(slice_size=20_000, warmup=80_000, max_k=8, max_alternates=1)
INPUT_SET = "test"
SEED = 1
#: Best-of-N passes over the captured payloads for the CPU column.
REPEATS = 1 if FAST else 3

#: Gates (byte counts only).
SCHEDULE_BYTES_CEILING = 3.0
BYTES_TOLERANCE = 0.05

_BYTES_RE = re.compile(r"^pickle_bytes:\s*([0-9]+)", re.MULTILINE)


class _CapturingRunner(FarmRunner):
    """Runs the graph inline and keeps what a pool would pickle."""

    def __init__(self) -> None:
        super().__init__(store=None, jobs=1)
        #: (stage, "args" | "result", payload)
        self.payloads = []

    def _attempt(self, pending):
        job = pending.job
        if not job.local:
            self.payloads.append((job.stage, "args", self._task(
                job, pending.args, pending.kwargs,
                self._resume_snapshot(job))))
        super()._attempt(pending)

    def _settle(self, job, state, cache="", result=None, wall_s=0.0,
                worker=None, **record):
        if state == "ok" and not job.local:
            self.payloads.append(
                (job.stage, "result", (worker, wall_s, result)))
        super()._settle(job, state, cache, result, wall_s, worker,
                        **record)


def _pinballs(value, seen):
    """Every distinct pinball reachable from a payload."""
    if isinstance(value, Pinball):
        if id(value) not in seen:
            seen[id(value)] = value
    elif isinstance(value, dict):
        for item in value.values():
            _pinballs(item, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _pinballs(item, seen)
    elif hasattr(value, "pinballs"):
        _pinballs(value.pinballs, seen)


def _committed_bytes():
    try:
        with open(os.path.join(RESULTS_DIR, "transfer.txt")) as handle:
            match = _BYTES_RE.search(handle.read())
    except OSError:
        return None
    return int(match.group(1)) if match else None


def run_bench():
    baseline = _committed_bytes()  # read before publish() overwrites it
    images = {name: app.build(INPUT_SET)
              for name, app in SPEC2017_INT_RATE.items()}
    runner = _CapturingRunner()
    run_pinpoints_campaign(
        images, None, runner=runner, seed=SEED,
        validations=[elfie_validation("elfie", seed=SEED + 100, trials=1)],
        **PINPOINTS)

    jobs = defaultdict(int)
    nbytes = defaultdict(int)
    for stage, side, payload in runner.payloads:
        nbytes[stage, side] += len(ForkingPickler.dumps(payload))
        jobs[stage] += side == "args"
    cpu = {stage: float("inf") for stage in jobs}
    for _ in range(REPEATS):
        spent = defaultdict(float)
        for stage, _side, payload in runner.payloads:
            start = time.process_time()
            pickle.loads(ForkingPickler.dumps(payload))
            spent[stage] += time.process_time() - start
        for stage in cpu:
            cpu[stage] = min(cpu[stage], spent[stage])

    seen = {}
    for _stage, _side, payload in runner.payloads:
        _pinballs(payload, seen)
    entries = sum(len(p.schedule) for p in seen.values())
    schedule_bytes = sum(len(ForkingPickler.dumps(p.schedule))
                         for p in seen.values())

    table = Table(
        title="Farm pool transfer: pickled job arguments and results "
              "(cold pinpoints_int campaign, seed %d)" % SEED,
        headers=["stage", "jobs", "args KB", "results KB",
                 "dump+load ms"],
    )
    for stage in jobs:
        table.add_row(stage, str(jobs[stage]),
                      "%.1f" % (nbytes[stage, "args"] / 1024),
                      "%.1f" % (nbytes[stage, "result"] / 1024),
                      "%.1f" % (cpu[stage] * 1e3))
    total = sum(nbytes.values())
    per_entry = schedule_bytes / max(1, entries)
    footer = [
        "pinballs %d, schedule entries %d, pickled schedules %d bytes"
        % (len(seen), entries, schedule_bytes),
        "dump+load CPU is best of %d passes; it is host-dependent, "
        "byte counts are not" % REPEATS,
        "schedule_bytes_per_entry: %.2f" % per_entry,
        "pickle_cpu_s: %.3f" % sum(cpu.values()),
        "pickle_bytes: %d" % total,
    ]
    publish("transfer", table.render() + "\n" + "\n".join(footer))
    return total, per_entry, baseline


def _check(total, per_entry, baseline):
    assert per_entry <= SCHEDULE_BYTES_CEILING, \
        "schedules pickle at %.2f bytes per entry" % per_entry
    if baseline is not None:
        ceiling = baseline * (1.0 + BYTES_TOLERANCE)
        assert total <= ceiling, \
            "pool transfer grew: %d bytes > %d (committed %d + 5%%)" \
            % (total, ceiling, baseline)


def test_bench_transfer():
    _check(*run_bench())


if __name__ == "__main__":
    _check(*run_bench())
