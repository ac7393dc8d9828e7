"""Interpreter throughput: dispatch tiers vs the per-instruction loop.

The perf claim of the interpreter work, measured tier by tier on the
Table I micro workloads:

- ``slow``     — the classic per-instruction dispatch loop (baseline),
- ``compiled`` — the superblock cache with threaded-code compilation of
  hot blocks, hot loops of up to ``compile.LOOP_BLOCKS`` blocks spinning
  inside one generated function.

Three workloads: single-threaded (compute + stream, 1-block loops),
two-thread MT, and ``branchy`` (the branchy kernel alone: a 3-way
if/else body, so its hot loop spans several blocks).  Both tiers must
produce bit-identical architectural results; the bench asserts it on
every run of every workload.  Row repeats are interleaved (slow, cold,
compiled, slow, ...) so each row's best-of-N samples the same
host-noise environment.  The compiled-function cache is process-wide,
so the ``compiled`` row measures steady-state throughput (every shape
already generated, as for all but the first job of a farm worker),
while the ``cold`` row empties that cache before each run and so pays
the codegen a fresh worker process pays.

The published artifact carries machine-readable ``speedup_ratio:``
(compiled/slow on the ST workload) and ``branchy_speedup_ratio:``
footers; CI reruns this bench in smoke mode (``REPRO_BENCH_FAST=1``)
and fails if either fresh ratio drops more than ``RATIO_TOLERANCE``
below its baseline (``BASELINE_RATIOS``) or under its hard floor.  The
ratios — not raw MIPS — are the gate, because they are
host-machine-independent.  The compiled tier's call counts are gated
exactly (``COMPILED_CALLS``): a loop spinning inside one generated
function is one call however many iterations it runs, so they show
with no noise whether the hot loops spin.  So are two counts of the
MT workload (``MT_COUNTS``): run-loop picks per run and interpreted
spill steps, which show whether slice ends stay inside the fast loop
and whether a slice that ends mid-block runs compiled code.  One more
footer line
gives BBV profiling (``collect_bbv``) against a bare compiled run of
the same program (the two interleaved, best of N each), on the ST and
branchy workloads; both must stay above ``BBV_FLOOR``.  Compiled loops
keep spinning under the BBV counter, which takes each spin's
per-member counts in one call, so profiling runs near bare speed; one
dispatch per block entry reads well under the floor on branchy.
"""

import time

from conftest import FAST, publish

from repro.analysis import Table
from repro.machine import Machine, load_elf
from repro.machine.compile import COMPILER
from repro.observe import hooks
from repro.simpoint.bbv import collect_bbv
from repro.workloads import PhaseSpec, ProgramBuilder

#: Baseline compiled/slow speedup ratios, by footer prefix (``""`` for
#: ST, ``"branchy_"``): the medians of nine full-mode runs on a 2-core
#: VM, which read ST 6.39-11.28x and branchy 8.02-10.77x (six
#: smoke-mode runs: 6.37-8.22x and 9.00-10.15x).
BASELINE_RATIOS = {"": 7.05, "branchy_": 9.66}

#: Allowed fall of a fresh ratio below its baseline before CI fails the
#: build.  The lowest of the fifteen runs above read 0.90 (ST) and 0.83
#: (branchy) of the median, so a fall within this margin is host noise.
RATIO_TOLERANCE = 0.30

#: Hard floor, independent of the baseline: the compiled tier at least
#: 4.5x the per-instruction loop on ST.  With loop compilation disabled
#: the ST ratio read 2.86-3.21x (smoke) and 3.59x (full).
COMPILED_FLOOR = 4.5

#: Hard floor for the branchy workload, whose hot loop spans several
#: blocks: one compiled call per block read 2.44-3.87x (smoke) and
#: 2.99x (full), so 6x holds only while the loop spins inside one
#: generated function.
BRANCHY_FLOOR = 6.0

#: Exact compiled-function calls of the compiled row, per workload, at
#: both scales: each hot loop is entered once and spins inside its
#: generated function.  One call per block entry reads 29,986 (ST) and
#: 64,899 (branchy) in smoke mode, 59,986 and 129,849 in full mode.
COMPILED_CALLS = {"ST": 3, "branchy": 1}

#: Exact counts of one compiled-tier run of the MT workload, by scale:
#: run-loop picks (``sched.slices`` minus the slices picked in place
#: inside the fast loop) and instructions stepped one handler at a time
#: where a slice ended inside a block (``cpu.spill_steps``).  With
#: every slice end its own run-loop pick and every mid-block spill
#: interpreted, they read 3,161 picks and 11,293 steps (smoke) and
#: 6,293 and 22,718 (full).  Picks now follow syscalls, the only
#: events that change the runnable set; spills step only cold blocks.
MT_COUNTS = {"smoke": {"picks": 3, "spill_steps": 5},
             "full": {"picks": 2, "spill_steps": 7}}

#: BBV slice size for the collect_bbv/bare line.
BBV_SLICE = 10_000

#: Hard floor of collect_bbv MIPS over bare compiled MIPS, on both the
#: ST and the branchy workload.  In smoke mode on a 2-core VM, BBV
#: profiling with compiled loops spinning read 0.96-1.03 (ST) and
#: 0.90-1.28 (branchy); one dispatch per block entry under the BBV
#: counter read 0.43-0.58 and 0.23-0.33.
BBV_FLOOR = 0.75

#: Table rows: the dispatch tiers, plus ``cold`` (the compiled tier
#: with the process-wide codegen cache emptied before the run).
ROWS = ("slow", "cold", "compiled")


def _program(scale, threads=1):
    return ProgramBuilder(
        name="mips", threads=threads,
        phases=[PhaseSpec("compute", scale, buffer_kb=16),
                PhaseSpec("stream", scale, buffer_kb=16)],
    ).build()


def _branchy_program(scale):
    return ProgramBuilder(
        name="mips-branchy",
        phases=[PhaseSpec("branchy", 2 * scale, buffer_kb=16)],
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


def _mt_counts(image):
    """:data:`MT_COUNTS`' counts for one compiled run of *image*."""
    with hooks.observed() as obs:
        machine = Machine(seed=1)
        load_elf(machine, image)
        machine.cpu.set_dispatch("compiled")
        machine.run()
    counters = obs.metrics.snapshot()["counters"]
    return {"picks": counters["sched.slices"]
            - counters.get("sched.slices_extended", 0),
            "spill_steps": counters.get("cpu.spill_steps", 0)}


def _bbv_ratio(image, repeats):
    """collect_bbv MIPS over bare compiled MIPS on *image*: best of
    *repeats* interleaved runs each, both from a fresh machine, which
    must retire the same count."""
    bare = bbv = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        machine = Machine(seed=1)
        load_elf(machine, image)
        machine.cpu.set_dispatch("compiled")
        machine.run()
        bare = min(bare, time.perf_counter() - started)
        started = time.perf_counter()
        profile = collect_bbv(image, BBV_SLICE, seed=1)
        bbv = min(bbv, time.perf_counter() - started)
        assert profile.total_icount == machine.total_icount()
    return bare / bbv


def run_bench(repeats=5):
    # Smoke scale stays large enough that best-of-N wall times are not
    # dominated by scheduler jitter on a busy CI host.
    scale = 10_000 if FAST else 20_000
    st_image = _program(scale)
    branchy_image = _branchy_program(scale)
    st_machines, st_walls = _measure_tiers(st_image, repeats)
    mt_image = _program(scale // 2, threads=2)
    mt_machines, mt_walls = _measure_tiers(mt_image, max(2, repeats - 2))
    mt_counts = _mt_counts(mt_image)
    br_machines, br_walls = _measure_tiers(branchy_image, repeats)

    def mips(machines, walls):
        icount = sum(t.icount for t in machines["slow"].threads.values())
        return icount, {r: icount / walls[r] / 1e6 for r in ROWS}

    st_icount, st_mips = mips(st_machines, st_walls)
    mt_icount, mt_mips = mips(mt_machines, mt_walls)
    br_icount, br_mips = mips(br_machines, br_walls)
    ratios = {r: st_mips[r] / st_mips["slow"] for r in ROWS}
    ratio = ratios["compiled"]
    branchy_ratio = br_mips["compiled"] / br_mips["slow"]
    # Twice the repeats: the runs are short and the floor is absolute.
    bbv = {"ST": _bbv_ratio(st_image, 2 * repeats),
           "branchy": _bbv_ratio(branchy_image, 2 * repeats)}
    cpu = st_machines["compiled"].cpu
    hit_rate = cpu.block_hits / max(1, cpu.block_hits + cpu.block_misses)
    br_cpu = br_machines["compiled"].cpu

    table = Table(
        title="Interpreter MIPS by dispatch tier (Table I micro workload)",
        headers=["tier", "ST MIPS", "ST speedup", "MT MIPS", "MT speedup",
                 "branchy MIPS", "branchy speedup"],
    )
    for row in ROWS:
        table.add_row(
            row,
            "%.3f" % st_mips[row],
            "%.2fx" % ratios[row],
            "%.3f" % mt_mips[row],
            "%.2fx" % (mt_mips[row] / mt_mips["slow"]),
            "%.3f" % br_mips[row],
            "%.2fx" % (br_mips[row] / br_mips["slow"]),
        )
    footer = [
        "ST instructions %d, MT instructions %d, branchy instructions %d"
        % (st_icount, mt_icount, br_icount),
        "cold = compiled tier after emptying the process-wide codegen "
        "cache",
        "block entries served from cache %.4f (compiled tier, ST)"
        % hit_rate,
        "compiled blocks %d, compiled calls %d (ST); compiled calls %d "
        "(branchy)" % (cpu.compiled_blocks, cpu.compiled_calls,
                       br_cpu.compiled_calls),
        "MT run-loop picks per run %d, interpreted spill steps %d "
        "(compiled tier)" % (mt_counts["picks"], mt_counts["spill_steps"]),
        "collect_bbv / bare compiled MIPS: ST %.3f, branchy %.3f"
        % (bbv["ST"], bbv["branchy"]),
        "speedup_ratio: %.3f" % ratio,
        "branchy_speedup_ratio: %.3f" % branchy_ratio,
    ]
    publish("interp_mips", table.render() + "\n" + "\n".join(footer))
    calls = {"ST": cpu.compiled_calls, "branchy": br_cpu.compiled_calls}
    return ({"": ratio, "branchy_": branchy_ratio}, ratios, calls,
            st_mips, bbv, mt_counts)


#: Hard floor per gated ratio, by footer prefix.
_FLOORS = {"": COMPILED_FLOOR, "branchy_": BRANCHY_FLOOR}


def _check(gated, calls, bbv, mt_counts):
    assert calls == COMPILED_CALLS, \
        "compiled calls %s, expected %s: hot loops no longer spin inside " \
        "one generated function" % (calls, COMPILED_CALLS)
    expected = MT_COUNTS["smoke" if FAST else "full"]
    assert mt_counts == expected, \
        "MT counts %s, expected %s: slice ends left the fast loop or " \
        "spilled on the interpreted path" % (mt_counts, expected)
    for workload, ratio in bbv.items():
        assert ratio >= BBV_FLOOR, \
            "collect_bbv runs at only %.2fx of bare compiled MIPS (%s)" \
            % (ratio, workload)
    for prefix, ratio in gated.items():
        name = prefix + "speedup_ratio"
        assert ratio >= _FLOORS[prefix], \
            "%s: compiled tier only %.2fx over the per-instruction loop" \
            % (name, ratio)
        floor = BASELINE_RATIOS[prefix] * (1.0 - RATIO_TOLERANCE)
        assert ratio >= floor, \
            "%s regressed: %.2fx < %.2fx (baseline %.2fx - %d%%)" \
            % (name, ratio, floor, BASELINE_RATIOS[prefix],
               round(100 * RATIO_TOLERANCE))


def test_interp_mips(benchmark):
    gated, _, calls, _, bbv, mt_counts = benchmark.pedantic(
        run_bench, rounds=1, iterations=1)
    _check(gated, calls, bbv, mt_counts)


def main():
    gated, ratios, calls, st_mips, bbv, mt_counts = run_bench()
    print("ST MIPS:", "  ".join(
        "%s %.2f (%.2fx)" % (r, st_mips[r], ratios[r]) for r in ROWS))
    print("branchy %.2fx" % gated["branchy_"])
    print("collect_bbv / bare: %s" % ", ".join(
        "%s %.2f" % item for item in sorted(bbv.items())))
    print("compiled calls: %s" % ", ".join(
        "%s %d" % item for item in sorted(calls.items())))
    print("MT counts: %s" % ", ".join(
        "%s %d" % item for item in sorted(mt_counts.items())))
    try:
        _check(gated, calls, bbv, mt_counts)
    except AssertionError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    main()
