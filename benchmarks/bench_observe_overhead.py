"""Observability overhead: the disabled hook path on Table I workloads.

The contract the ``repro.observe`` null-object design makes: with
observability *disabled* (the default), an instrumented call site costs
one module-attribute lookup plus an ``enabled`` test, and hooks on the
interpreter's hot path fire at scheduler-quantum granularity — never
per instruction.  This bench holds the whole pipeline to <3%
instruction-throughput overhead on the Table I micro workloads.

Methodology: the hook sites that a native run crosses are two guards
per slice the run loop schedules (``Cpu.run_thread`` and the
``sched.*`` slice counters in ``Machine.run``) and one per syscall
(``Kernel.dispatch``).  Slices a lone thread takes without leaving the
fast loop cross no guard, so two per scheduler quantum is an upper
bound.  We measure (a) the real per-guard cost with a
tight loop over the actual disabled-path code, (b) the workload's
native wall time and hook-site count, and report the overhead fraction
``guard_cost x sites / wall``.  An enabled (tracing + metrics) A/B run
is reported alongside for context.
"""

import time

from conftest import publish

from repro.analysis import Table
from repro.machine.scheduler import Scheduler
from repro.observe import hooks
from repro.workloads import PhaseSpec, ProgramBuilder, run_program


def _wall(func, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _program(threads=1):
    return ProgramBuilder(
        name="t1", threads=threads,
        phases=[PhaseSpec("compute", 8000, buffer_kb=16),
                PhaseSpec("stream", 8000, buffer_kb=16)],
    ).build()


def _guard_cost_s(iterations=200_000):
    """Per-site cost of the disabled path: attr lookup + enabled test."""
    assert not hooks.OBS.enabled

    def loop():
        for _ in range(iterations):
            obs = hooks.OBS
            if obs.enabled:
                raise AssertionError("disabled path only")

    def empty():
        for _ in range(iterations):
            pass

    return max(_wall(loop) - _wall(empty), 0.0) / iterations


def test_observe_disabled_overhead(benchmark, bench_params):
    image = _program()

    def experiment():
        machine, status, _ = run_program(image, seed=1)
        assert status.kind == "exit"

        icount = sum(t.icount for t in machine.threads.values())

        def enabled_run():
            with hooks.observed() as obs:
                run_program(image, seed=1)
            return obs.metrics.counter("kernel.syscalls").value

        enabled_s = _wall(enabled_run)
        syscalls = enabled_run()
        # hook sites a native run crosses, at most: two guards per
        # scheduler quantum (Cpu.run_thread, Machine.run), one per
        # syscall in Kernel.dispatch
        quantum = Scheduler().base_quantum
        sites = 2 * icount / quantum + syscalls

        native_s = _wall(lambda: run_program(image, seed=1))
        guard_s = _guard_cost_s()
        overhead_pct = 100.0 * guard_s * sites / native_s
        return (icount, syscalls, sites, native_s, guard_s, overhead_pct,
                enabled_s)

    (icount, syscalls, sites, native_s, guard_s, overhead_pct,
     enabled_s) = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = Table(
        title="Observability overhead (Table I micro workload, ST)",
        headers=["measure", "value"],
    )
    table.add_row("instructions executed", icount)
    table.add_row("syscalls", syscalls)
    table.add_row("hook sites crossed", "%.0f" % sites)
    table.add_row("native wall (s)", "%.4f" % native_s)
    table.add_row("per-site guard cost (ns)", "%.1f" % (guard_s * 1e9))
    table.add_row("disabled overhead (%)", "%.4f" % overhead_pct)
    table.add_row("enabled wall (s)", "%.4f" % enabled_s)
    table.add_row("enabled slowdown", "%.3fx" % (enabled_s / native_s))
    publish("observe_overhead", table.render())

    # the tentpole contract: <3% with observability disabled
    assert overhead_pct < 3.0
    # and even fully enabled, quantum-granularity hooks stay cheap
    assert enabled_s < native_s * 1.5
