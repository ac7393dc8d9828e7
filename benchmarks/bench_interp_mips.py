"""Interpreter throughput: dispatch tiers vs the per-instruction loop.

The perf claim of the interpreter work, measured tier by tier on the
Table I micro workloads:

- ``slow``     — the classic per-instruction dispatch loop (baseline),
- ``compiled`` — the superblock cache with threaded-code compilation of
  hot blocks, self-loop blocks spinning inside the generated code.

Both tiers must produce bit-identical architectural results; the bench
asserts it on every run for both a single-threaded and a two-thread
workload.  Row repeats are interleaved (slow, cold, compiled, slow,
...) so each row's best-of-N samples the same host-noise environment.  The compiled-function cache is process-wide,
so the ``compiled`` row measures steady-state throughput (every shape
already generated, as for all but the first job of a farm worker),
while the ``cold`` row empties that cache before each run and so pays
the codegen a fresh worker process pays.

The published artifact carries a machine-readable ``speedup_ratio:``
footer (compiled/slow on the ST workload); CI reruns this bench in
smoke mode (``REPRO_BENCH_FAST=1``) and fails if the fresh ratio drops
more than 20% below the committed baseline.  The ratio — not raw MIPS —
is the gate, because it is host-machine-independent.
"""

import os
import re
import time

from conftest import FAST, RESULTS_DIR, publish

from repro.analysis import Table
from repro.machine import Machine, load_elf
from repro.machine.compile import COMPILER
from repro.workloads import PhaseSpec, ProgramBuilder

#: Allowed regression of the compiled/slow speedup ratio vs the
#: committed baseline before CI fails the build.
RATIO_TOLERANCE = 0.20

#: Hard floor, independent of the committed baseline: the compiled tier
#: at least quintuples throughput (the round-2 contract).
COMPILED_FLOOR = 5.0

#: Table rows: the dispatch tiers, plus ``cold`` (the compiled tier
#: with the process-wide codegen cache emptied before the run).
ROWS = ("slow", "cold", "compiled")

_RATIO_RE = re.compile(r"^speedup_ratio:\s*([0-9.]+)", re.MULTILINE)


def _program(scale, threads=1):
    return ProgramBuilder(
        name="mips", threads=threads,
        phases=[PhaseSpec("compute", scale, buffer_kb=16),
                PhaseSpec("stream", scale, buffer_kb=16)],
    ).build()


def _arch_state(machine):
    return tuple(sorted(
        (t.tid, t.icount, t.cycles, t.branches, t.llc_misses)
        for t in machine.threads.values()))


def _measure_tiers(image, repeats):
    """Interleaved best-of-N wall time per row of :data:`ROWS`.

    Returns ``(machines, walls)`` dicts keyed by row, after asserting
    every row retired the identical architectural state.
    """
    best = {row: float("inf") for row in ROWS}
    machines = {}
    for _ in range(repeats):
        for row in ROWS:
            candidate = Machine(seed=1)
            load_elf(candidate, image)
            if row == "cold":
                COMPILER.cache.clear()
                candidate.cpu.set_dispatch("compiled")
            else:
                candidate.cpu.set_dispatch(row)
            started = time.perf_counter()
            status = candidate.run()
            wall = time.perf_counter() - started
            assert status.kind == "exit", status
            if wall < best[row]:
                best[row] = wall
                machines[row] = candidate
    reference = _arch_state(machines["slow"])
    for row in ROWS:
        assert _arch_state(machines[row]) == reference, \
            "tier %s diverged from the per-instruction loop" % row
    return machines, best


def _baseline_ratio():
    """Speedup ratio from the committed results file, if present."""
    path = os.path.join(RESULTS_DIR, "interp_mips.txt")
    try:
        with open(path) as handle:
            match = _RATIO_RE.search(handle.read())
    except OSError:
        return None
    return float(match.group(1)) if match else None


def run_bench(repeats=5):
    # Smoke scale stays large enough that best-of-N wall times are not
    # dominated by scheduler jitter on a busy CI host.
    scale = 10_000 if FAST else 20_000
    baseline = _baseline_ratio()  # read before publish() overwrites it

    st_machines, st_walls = _measure_tiers(_program(scale), repeats)
    mt_machines, mt_walls = _measure_tiers(
        _program(scale // 2, threads=2), max(2, repeats - 2))

    st_icount = sum(t.icount for t in st_machines["slow"].threads.values())
    mt_icount = sum(t.icount for t in mt_machines["slow"].threads.values())
    st_mips = {r: st_icount / st_walls[r] / 1e6 for r in ROWS}
    mt_mips = {r: mt_icount / mt_walls[r] / 1e6 for r in ROWS}
    ratios = {r: st_mips[r] / st_mips["slow"] for r in ROWS}
    ratio = ratios["compiled"]
    cpu = st_machines["compiled"].cpu
    hit_rate = cpu.block_hits / max(1, cpu.block_hits + cpu.block_misses)

    table = Table(
        title="Interpreter MIPS by dispatch tier (Table I micro workload)",
        headers=["tier", "ST MIPS", "ST speedup", "MT MIPS", "MT speedup"],
    )
    for row in ROWS:
        table.add_row(
            row,
            "%.3f" % st_mips[row],
            "%.2fx" % ratios[row],
            "%.3f" % mt_mips[row],
            "%.2fx" % (mt_mips[row] / mt_mips["slow"]),
        )
    footer = [
        "ST instructions %d, MT instructions %d" % (st_icount, mt_icount),
        "cold = compiled tier after emptying the process-wide codegen "
        "cache",
        "block entries served from cache %.4f (compiled tier, ST)"
        % hit_rate,
        "compiled blocks %d, compiled calls %d" % (
            cpu.compiled_blocks, cpu.compiled_calls),
        "speedup_ratio: %.3f" % ratio,
    ]
    publish("interp_mips", table.render() + "\n" + "\n".join(footer))
    return ratio, ratios, baseline, st_mips


def _check(ratio, baseline):
    assert ratio >= COMPILED_FLOOR, \
        "compiled tier only %.2fx over the per-instruction loop" % ratio
    if baseline is not None:
        floor = baseline * (1.0 - RATIO_TOLERANCE)
        assert ratio >= floor, \
            "speedup regressed: %.2fx < %.2fx (baseline %.2fx - 20%%)" \
            % (ratio, floor, baseline)


def test_interp_mips(benchmark):
    ratio, _, baseline, _ = benchmark.pedantic(
        run_bench, rounds=1, iterations=1)
    _check(ratio, baseline)


def main():
    ratio, ratios, baseline, st_mips = run_bench()
    print("ST MIPS:", "  ".join(
        "%s %.2f (%.2fx)" % (r, st_mips[r], ratios[r]) for r in ROWS))
    print("baseline %s" % ("%.2fx" % baseline if baseline else "none"))
    try:
        _check(ratio, baseline)
    except AssertionError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    main()
