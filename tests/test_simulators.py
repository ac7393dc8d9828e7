"""Tests for the Sniper-like, CoreSim-like and gem5-like simulators."""

import dataclasses
from collections import deque

import pytest

from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions
from repro.core.elfie import prepare_elfie_machine, run_to_marker, \
    simulate_roi
from repro.isa.encoding import decode
from repro.isa.instructions import Op
from repro.machine import Machine, load_elf
from repro.machine import cpu as cpu_module
from repro.machine.tool import Tool
from repro.observe import Tracer, hooks
from repro.pinplay import RegionSpec, log_region
from repro.pinplay.replayer import ReplaySession
from repro.simulators import (
    BranchPredictor,
    Cache,
    CoreSim,
    CoreSimConfig,
    Gem5Sim,
    HASWELL_LIKE,
    NEHALEM_LIKE,
    SniperConfig,
    SniperSim,
    Tlb,
)
from repro.simulators import sniper, timing
from repro.simulators.sniper import find_end_condition, profile_end_condition
from repro.workloads import MT_APPS, PhaseSpec, ProgramBuilder, \
    build_executable


# -- component models ---------------------------------------------------------


def test_cache_hit_after_miss():
    cache = Cache("L1", size_kb=4, assoc=2, latency=2)
    first = cache.access(0x1000)
    second = cache.access(0x1000)
    assert first > second == 2
    assert cache.misses == 1
    assert cache.accesses == 2


def test_cache_lru_eviction():
    cache = Cache("tiny", size_kb=4, assoc=2, latency=1)
    sets = cache.sets
    way_stride = sets * 64
    cache.access(0x0)
    cache.access(way_stride)       # same set, second way
    cache.access(2 * way_stride)   # evicts 0x0
    cache.access(way_stride)       # still resident
    assert cache.misses == 3
    cache.access(0x0)              # must miss again
    assert cache.misses == 4


def test_cache_miss_chains_to_parent():
    llc = Cache("LLC", size_kb=64, assoc=4, latency=30)
    l1 = Cache("L1", size_kb=4, assoc=2, latency=2, parent=llc)
    cycles = l1.access(0x4000)
    assert cycles >= 2 + 30  # L1 + LLC (+ memory behind it)
    assert llc.accesses == 1
    # second L1 access does not touch the LLC
    l1.access(0x4000)
    assert llc.accesses == 1


def test_cache_footprint_counts_distinct_lines():
    cache = Cache("L1", size_kb=4, assoc=2, latency=1)
    for addr in (0x0, 0x40, 0x40, 0x80):
        cache.access(addr)
    assert cache.footprint_bytes() == 3 * 64


def test_tlb_hit_miss():
    tlb = Tlb("DTLB", entries=2, miss_penalty=30)
    assert tlb.access(0x1000) == 30
    assert tlb.access(0x1008) == 0      # same page
    assert tlb.access(0x2000) == 30
    assert tlb.access(0x3000) == 30     # evicts page 1
    assert tlb.access(0x1000) == 30


def test_branch_predictor_learns_loop():
    predictor = BranchPredictor(mispredict_penalty=10)
    penalties = [predictor.predict_and_update(0x400, True)
                 for _ in range(10)]
    # after warm-up, a always-taken branch predicts correctly
    assert penalties[-1] == 0
    assert predictor.mispredict_rate < 0.5


def test_branch_predictor_random_pattern_worse_than_biased():
    import random

    rng = random.Random(7)
    biased = BranchPredictor()
    noisy = BranchPredictor()
    for _ in range(400):
        biased.predict_and_update(0x10, rng.random() < 0.95)
        noisy.predict_and_update(0x20, rng.random() < 0.5)
    assert biased.mispredict_rate < noisy.mispredict_rate


# -- end-to-end simulator fixtures -------------------------------------------


@pytest.fixture(scope="module")
def st_pinball_and_elfie():
    image = build_executable(
        """
        _start:
            mov rcx, 40000
        loop:
            ld rax, [buf]
            add rax, rcx
            st [buf], rax
            imul rax, 3
            sub rcx, 1
            cmp rcx, 0
            jnz loop
            mov rax, 231
            mov rdi, 0
            syscall
        """,
        data_source="buf:\n.quad 0\n",
    )
    pinball = log_region(image, RegionSpec(start=30000, length=60000,
                                           name="st.r0"))
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 3))).convert()
    return pinball, artifact


@pytest.fixture(scope="module")
def mt_pinball_and_elfie():
    builder = ProgramBuilder(
        name="mt", threads=4,
        phases=[PhaseSpec("compute", 4000, buffer_kb=16),
                PhaseSpec("stream", 4000, buffer_kb=16)],
    )
    image = builder.build()
    pinball = log_region(image, RegionSpec(start=20000, length=60000,
                                           name="mt.r0"), seed=2)
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=False, marker=MarkerSpec("sniper", 4))).convert()
    return pinball, artifact


# -- Sniper -------------------------------------------------------------------


def test_sniper_elfie_skips_startup(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    result = SniperSim().simulate_elfie(artifact.image,
                                        roi_budget=pinball.region_icount)
    # only ROI instructions counted — no startup inflation
    assert result.instructions == pinball.region_icount
    assert result.runtime_cycles > 0
    assert 0 < result.ipc <= SniperConfig().dispatch_width


def test_sniper_pinball_matches_recorded_icount(st_pinball_and_elfie):
    pinball, _ = st_pinball_and_elfie
    result = SniperSim().simulate_pinball(pinball)
    assert result.constrained
    assert result.instructions == pinball.region_icount


def test_sniper_st_elfie_and_pinball_icounts_match(st_pinball_and_elfie):
    """Fig. 11: for single-threaded apps, unconstrained ELFie simulation
    retires the same instruction count as constrained pinball replay."""
    pinball, artifact = st_pinball_and_elfie
    elfie = SniperSim().simulate_elfie(artifact.image,
                                       roi_budget=pinball.region_icount)
    replay = SniperSim().simulate_pinball(pinball)
    assert elfie.instructions == replay.instructions


def test_sniper_mt_elfie_retires_more_than_pinball(mt_pinball_and_elfie):
    """Fig. 11: multi-threaded ELFie simulation retires more
    instructions than the pinball recorded, because spin loops run
    unconstrained."""
    pinball, artifact = mt_pinball_and_elfie
    end_pc, end_count = _mt_end_condition(pinball)
    elfie = SniperSim().simulate_elfie(artifact.image, end_pc=end_pc,
                                       end_count=end_count, seed=11)
    replay = SniperSim().simulate_pinball(pinball)
    assert replay.instructions == pinball.region_icount
    assert elfie.instructions > replay.instructions


def _mt_end_condition(pinball):
    """Pick a work-loop PC (max executions, not a spin PAUSE loop)."""
    from repro.machine.tool import Tool
    from repro.pinplay.replayer import _InjectionTool, _reconstruct
    from repro.isa.instructions import Op

    class Histogram(Tool):
        wants_instructions = True

        def __init__(self):
            self.counts = {}
            self.pause_near = set()

        def on_instruction(self, machine, thread, pc, insn):
            self.counts[pc] = self.counts.get(pc, 0) + 1
            if insn.op is Op.PAUSE:
                for delta in range(-64, 65):
                    self.pause_near.add(pc + delta)

    machine = _reconstruct(pinball, seed=0, fs=None)
    injector = _InjectionTool(pinball)
    histogram = Histogram()
    machine.attach(injector)
    machine.attach(histogram)
    machine.scheduler.replay(pinball.schedule)
    budget = sum(s.quantum for s in pinball.schedule)
    machine.run(max_instructions=budget)
    work = {pc: n for pc, n in histogram.counts.items()
            if pc not in histogram.pause_near}
    end_pc = max(work, key=work.get)
    return end_pc, work[end_pc]


def test_sniper_profile_end_condition(st_pinball_and_elfie):
    pinball, _ = st_pinball_and_elfie
    rip = pinball.threads[0].regs.rip
    end_pc, count = profile_end_condition(pinball, rip)
    assert end_pc == rip
    assert count > 0


def test_sniper_end_condition_stops_simulation(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    rip = pinball.threads[0].regs.rip
    _, count = profile_end_condition(pinball, rip)
    result = SniperSim().simulate_elfie(artifact.image, end_pc=rip,
                                        end_count=count // 2)
    assert result.status.detail == "sniper end condition"
    assert result.instructions < pinball.region_icount


class _ReferenceProfiler(Tool):
    """The end-condition profiler spelled out: every executed PC within
    +-radius bytes of an executed PAUSE goes into one spin set."""

    wants_instructions = True

    def __init__(self, radius):
        self.radius = radius
        self.counts = {}
        self.spin = set()
        self.pauses = set()
        self.recent = deque(maxlen=512)

    def on_instruction(self, machine, thread, pc, insn):
        self.counts[pc] = self.counts.get(pc, 0) + 1
        self.recent.append(pc)
        if insn.op is Op.PAUSE:
            self.pauses.add(pc)
            self.spin.update(range(pc - self.radius, pc + self.radius + 1))


def _reference_end_condition(pinball, seed=0, spin_radius=64):
    session = ReplaySession(pinball, injection=True, seed=seed, fs=None,
                            instrument=False)
    reference = _ReferenceProfiler(spin_radius)
    session.machine.attach(reference)
    session.run()
    for pc in reversed(reference.recent):
        if pc not in reference.spin:
            return (pc, reference.counts[pc]), reference
    pc = max(reference.counts, key=reference.counts.get)
    return (pc, reference.counts[pc]), reference


@pytest.fixture(scope="module")
def barrier_pinball():
    """A window of an MT app whose threads spin on PAUSE at barriers."""
    return log_region(MT_APPS["mt.barrier"].build("test"),
                      RegionSpec(start=20000, length=20000, name="barrier"),
                      seed=1)


@pytest.mark.parametrize("spin_radius", [0, 16, 64, 300])
def test_find_end_condition_matches_spin_set_reference(
        st_pinball_and_elfie, mt_pinball_and_elfie, barrier_pinball,
        spin_radius):
    for pinball, seed in ((st_pinball_and_elfie[0], 0),
                          (mt_pinball_and_elfie[0], 0),
                          (barrier_pinball, 0),
                          (barrier_pinball, 5)):
        expected, _ = _reference_end_condition(pinball, seed, spin_radius)
        assert find_end_condition(pinball, seed, spin_radius) == expected
    _, reference = _reference_end_condition(barrier_pinball)
    assert len(reference.pauses) > 1
    assert any(pc in reference.spin for pc in reference.recent)


#: One loop iteration of the PAUSE-edge program: 70 one-byte NOPs, the
#: PAUSE, 70 more NOPs, then ``sub`` and ``jnz``; NOP k sits k bytes
#: from the PAUSE, so the region's last PC can be put at any distance.
_EDGE_BODY = 70 + 1 + 70 + 2


@pytest.fixture(scope="module")
def pause_edge_image():
    nops = "\n".join(["    nop"] * 70)
    return build_executable(
        "_start:\n    mov rcx, 1000\nloop:\n" + nops + "\n    pause\n"
        + nops + "\n    sub rcx, 1\n    jnz loop\n"
        "    mov rax, 231\n    mov rdi, 0\n    syscall\n")


@pytest.mark.parametrize("last, chosen", [
    (+65, +65),   # just outside the window: the last PC itself
    (+64, -65),   # the window's edge is spin code on both sides
    (-64, -65),
    (-65, -65),
])
def test_find_end_condition_at_the_spin_window_edges(pause_edge_image,
                                                     last, chosen):
    # The region starts at an iteration head and ends on the NOP *last*
    # bytes from the PAUSE (70 is the PAUSE's slot in the body).
    start = 1 + 10 * _EDGE_BODY
    length = 3 * _EDGE_BODY + 70 + last + 1
    pinball = log_region(pause_edge_image,
                         RegionSpec(start=start, length=length, name="edge"))
    expected, reference = _reference_end_condition(pinball)
    (pause,) = reference.pauses
    assert reference.recent[-1] == pause + last
    assert expected[0] == pause + chosen
    assert find_end_condition(pinball) == expected


def test_find_end_condition_falls_back_to_the_busiest_pc():
    image = build_executable("""
        _start:
            mov rcx, 1000
        loop:
            pause
            sub rcx, 1
            jnz loop
            mov rax, 231
            mov rdi, 0
            syscall
        """)
    pinball = log_region(image, RegionSpec(start=100, length=900,
                                           name="spin"))
    expected, reference = _reference_end_condition(pinball)
    # every recent PC is spin code, so the busiest PC is chosen
    assert all(pc in reference.spin for pc in reference.recent)
    assert expected[1] == max(reference.counts.values())
    assert find_end_condition(pinball) == expected


def test_profile_end_condition_counts_match_the_reference(
        mt_pinball_and_elfie):
    pinball, _ = mt_pinball_and_elfie
    _, reference = _reference_end_condition(pinball)
    for pc in sorted(reference.counts)[:: max(1, len(reference.counts) // 8)]:
        assert profile_end_condition(pinball, pc) == (
            pc, reference.counts[pc])
    assert profile_end_condition(pinball, 0x10) == (0x10, 0)


# -- CoreSim ------------------------------------------------------------------


def test_coresim_user_vs_fullsystem(st_pinball_and_elfie):
    """Table IV: full-system simulation executes extra ring-0
    instructions, runs longer, and touches a larger data footprint."""
    pinball, artifact = st_pinball_and_elfie
    budget = pinball.region_icount
    user = CoreSim(CoreSimConfig(frontend="sde")).simulate_elfie(
        artifact.image, roi_budget=budget)
    full = CoreSim(CoreSimConfig(frontend="simics")).simulate_elfie(
        artifact.image, roi_budget=budget)
    assert user.instructions_ring0 == 0
    assert full.instructions_ring0 > 0
    # user-space instruction counts are equal in both modes
    assert user.instructions_ring3 == full.instructions_ring3
    assert full.runtime_cycles > user.runtime_cycles
    assert full.data_footprint_bytes > user.data_footprint_bytes
    assert full.dtlb_misses >= user.dtlb_misses
    # the kernel share is small but its effect is disproportionate
    ring0_share = full.instructions_ring0 / full.instructions_ring3
    runtime_delta = (full.runtime_cycles - user.runtime_cycles) / user.runtime_cycles
    assert ring0_share < 0.10
    assert runtime_delta > ring0_share


def test_coresim_whole_program_mode():
    image = build_executable(
        """
        _start:
            mov rcx, 5000
        loop:
            sub rcx, 1
            cmp rcx, 0
            jnz loop
            mov rax, 231
            mov rdi, 0
            syscall
        """
    )
    result = CoreSim().simulate_program(image)
    assert result.status.kind == "exit"
    assert result.instructions_ring3 > 15000
    assert result.cpi > 0


def test_coresim_config_rejects_an_unknown_frontend():
    for frontend in ("Simics", "sde ", "full", ""):
        with pytest.raises(ValueError, match="frontend"):
            CoreSimConfig(frontend=frontend)


def test_coresim_result_properties(st_pinball_and_elfie):
    pinball, artifact = st_pinball_and_elfie
    result = CoreSim().simulate_elfie(artifact.image, roi_budget=10_000)
    assert result.instructions_total == (result.instructions_ring3
                                         + result.instructions_ring0)
    assert result.ipc == pytest.approx(1.0 / result.cpi)


# -- gem5 ---------------------------------------------------------------------


def test_gem5_haswell_beats_nehalem_on_memory_bound_code():
    builder = ProgramBuilder(
        name="memory", threads=1,
        phases=[PhaseSpec("pointer_chase", 20000, buffer_kb=512)],
    )
    image = builder.build()
    pinball = log_region(image, RegionSpec(start=30000, length=60000,
                                           name="mem.r0"))
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 5))).convert()
    nehalem = Gem5Sim(NEHALEM_LIKE).simulate_elfie(artifact.image,
                                                   roi_budget=40_000)
    haswell = Gem5Sim(HASWELL_LIKE).simulate_elfie(artifact.image,
                                                   roi_budget=40_000)
    assert nehalem.instructions == haswell.instructions == 40_000
    # bigger ROB/LSQ hide more miss latency
    assert haswell.ipc > nehalem.ipc


def test_gem5_ipc_bounded_by_width(st_pinball_and_elfie):
    _, artifact = st_pinball_and_elfie
    result = Gem5Sim(NEHALEM_LIKE).simulate_elfie(artifact.image,
                                                  roi_budget=20_000)
    assert 0 < result.ipc <= NEHALEM_LIKE.width


def test_gem5_config_window_properties():
    assert HASWELL_LIKE.effective_window > NEHALEM_LIKE.effective_window
    assert HASWELL_LIKE.mlp > NEHALEM_LIKE.mlp
    assert HASWELL_LIKE.hidden_latency > NEHALEM_LIKE.hidden_latency


# -- ROI fast-forward ---------------------------------------------------------


def _pinned_runs(st, mt):
    """Every field of a set of simulator runs over the fixture ELFies."""
    st_pinball, st_artifact = st
    mt_pinball, mt_artifact = mt
    end_pc, end_count = _mt_end_condition(mt_pinball)
    budget = st_pinball.region_icount
    runs = {
        "sniper-mt-end": SniperSim().simulate_elfie(
            mt_artifact.image, end_pc=end_pc, end_count=end_count, seed=11),
        "sniper-mt-budget": SniperSim().simulate_elfie(
            mt_artifact.image, roi_budget=30_000, seed=3,
            timing_driven=False),
        "sniper-st-budget": SniperSim().simulate_elfie(
            st_artifact.image, roi_budget=budget),
        "gem5-warmup": Gem5Sim(NEHALEM_LIKE).simulate_elfie(
            st_artifact.image, roi_budget=20_000, warmup_budget=5_000),
    }
    for frontend in ("sde", "simics"):
        runs["coresim-" + frontend] = CoreSim(
            CoreSimConfig(frontend=frontend)).simulate_elfie(
                st_artifact.image, roi_budget=budget, warmup_budget=5_000)
    return {name: dataclasses.asdict(result)
            for name, result in runs.items()}


def _status(kind, detail):
    return dict(kind=kind, code=0, signal=0, detail=detail,
                fault_address=None)


#: ``_pinned_runs`` as recorded when the timing tools were attached at
#: load and gated themselves on the first MARKER, then re-recorded when
#: the startup began copying only the live stack span.  That moves the
#: two MT Sniper runs (threads reach the marker after fewer scheduler
#: slices, so the ROI interleaving differs) and both CoreSim runs (they
#: run to exit, and the libperfle exit handler prints counters that
#: include the shorter startup: one digit fewer each, so 16 fewer ring-3
#: instructions and 2 fewer conditional branches).
PINNED = {
    "sniper-mt-end": dict(
        config_name="gainestown-8", constrained=False, instructions=60086,
        core_instructions=[16062, 14712, 14656, 14656, 0, 0, 0, 0],
        core_cycles=[7269.5, 7282.0, 7258.0, 7258.0, 0.0, 0.0, 0.0, 0.0],
        status=_status("stopped", "sniper end condition"), llc_misses=17,
        branch_mispredict_rate=0.0007332722273143905),
    "sniper-mt-budget": dict(
        config_name="gainestown-8", constrained=False, instructions=30000,
        core_instructions=[7617, 7368, 7291, 7724, 0, 0, 0, 0],
        core_cycles=[3710.25, 3516.0, 4076.75, 4265.0, 0.0, 0.0, 0.0, 0.0],
        status=_status("stopped", "sniper instruction budget"),
        llc_misses=14, branch_mispredict_rate=0.0014695077149155032),
    "sniper-st-budget": dict(
        config_name="gainestown-8", constrained=False, instructions=60000,
        core_instructions=[60000, 0, 0, 0, 0, 0, 0, 0],
        core_cycles=[55332.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        status=_status("stopped", "sniper instruction budget"),
        llc_misses=2, branch_mispredict_rate=0.00015001500150015003),
    "gem5-warmup": dict(
        config_name="nehalem-like", status=_status("stopped", "gem5 budget"),
        instructions=20000, cycles=6111.5, llc_misses=2,
        branch_mispredict_rate=0.00036010082823190496),
    "coresim-sde": dict(
        config_name="skylake", frontend="sde",
        status=_status("exit", "last thread exited"),
        instructions_ring3=60123, instructions_ring0=0,
        runtime_cycles=71160.75, llc_misses=10, dtlb_misses=3,
        itlb_misses=2, data_footprint_bytes=640, prefetch_lines=3,
        branch_mispredict_rate=0.0005991611743559018,
        measured_instructions=55123, measured_cycles=65074.75),
    "coresim-simics": dict(
        config_name="skylake", frontend="simics",
        status=_status("exit", "last thread exited"),
        instructions_ring3=60123, instructions_ring0=5940,
        runtime_cycles=198771.75, llc_misses=728, dtlb_misses=255,
        itlb_misses=9, data_footprint_bytes=46592, prefetch_lines=3,
        branch_mispredict_rate=0.0005991611743559018,
        measured_instructions=55123, measured_cycles=192685.75),
}


def test_simulator_numbers_are_pinned(st_pinball_and_elfie,
                                      mt_pinball_and_elfie):
    """Starting the timing tool at the ROI marker instead of at load
    moves no field of any simulator result."""
    assert _pinned_runs(st_pinball_and_elfie, mt_pinball_and_elfie) \
        == PINNED


#: A whole program for ``CoreSim.simulate_program``: 42k instructions of
#: loads and stores (one simics timer interrupt) and two syscalls.
_PROGRAM_SOURCE = """
    _start:
        mov rcx, 6000
    loop:
        ld rax, [buf]
        add rax, rcx
        st [buf], rax
        sub rcx, 1
        jnz loop
        mov rax, 1
        mov rdi, 1
        mov rsi, buf
        mov rdx, 8
        syscall
        mov rax, 231
        mov rdi, 0
        syscall
    """


def _pinned_path_runs(st, mt, program):
    """The simulator paths ``_pinned_runs`` leaves out: constrained
    pinball replay, gem5 without warmup, and whole-program CoreSim."""
    runs = {
        "sniper-st-pinball": SniperSim().simulate_pinball(st[0]),
        "sniper-mt-pinball": SniperSim().simulate_pinball(mt[0]),
        "gem5-haswell": Gem5Sim(HASWELL_LIKE).simulate_elfie(
            st[1].image, roi_budget=20_000),
    }
    for frontend in ("sde", "simics"):
        runs["coresim-program-" + frontend] = CoreSim(
            CoreSimConfig(frontend=frontend)).simulate_program(program)
    return {name: dataclasses.asdict(result)
            for name, result in runs.items()}


#: ``_pinned_path_runs`` as recorded before the three simulators shared
#: one timing tool.
PINNED_PATHS = {
    "sniper-st-pinball": dict(
        config_name="gainestown-8", constrained=True, instructions=60000,
        core_instructions=[60000, 0, 0, 0, 0, 0, 0, 0],
        core_cycles=[55332.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        status=_status("stopped", "instruction budget exhausted"),
        llc_misses=2, branch_mispredict_rate=0.00015001500150015003),
    "sniper-mt-pinball": dict(
        config_name="gainestown-8", constrained=True, instructions=60000,
        core_instructions=[15273, 14817, 15461, 14449, 0, 0, 0, 0],
        core_cycles=[6688.25, 6732.25, 6769.25, 6334.25,
                     0.0, 0.0, 0.0, 0.0],
        status=_status("stopped", "instruction budget exhausted"),
        llc_misses=2, branch_mispredict_rate=0.0007334066740007334),
    "gem5-haswell": dict(
        config_name="haswell-like", status=_status("stopped", "gem5 budget"),
        instructions=20000, cycles=6149.0, llc_misses=2,
        branch_mispredict_rate=0.00045004500450045),
    "coresim-program-sde": dict(
        config_name="skylake", frontend="sde",
        status=_status("exit", "exit_group"),
        instructions_ring3=42009, instructions_ring0=0,
        runtime_cycles=47212.25, llc_misses=3, dtlb_misses=1,
        itlb_misses=1, data_footprint_bytes=192, prefetch_lines=1,
        branch_mispredict_rate=0.0003333333333333333,
        measured_instructions=0, measured_cycles=0.0),
    "coresim-program-simics": dict(
        config_name="skylake", frontend="simics",
        status=_status("exit", "exit_group"),
        instructions_ring3=42009, instructions_ring0=2620,
        runtime_cycles=131539.25, llc_misses=495, dtlb_misses=109,
        itlb_misses=7, data_footprint_bytes=31680, prefetch_lines=1,
        branch_mispredict_rate=0.0003333333333333333,
        measured_instructions=0, measured_cycles=0.0),
}


def test_simulator_paths_are_pinned(st_pinball_and_elfie,
                                    mt_pinball_and_elfie):
    """Constrained replay, gem5 without warmup and whole-program CoreSim
    give the numbers they gave before the simulators shared one core."""
    program = build_executable(_PROGRAM_SOURCE,
                               data_source="buf:\n.quad 0\n")
    assert _pinned_path_runs(st_pinball_and_elfie, mt_pinball_and_elfie,
                             program) == PINNED_PATHS


def test_sniper_tool_runs_only_inside_the_roi(mt_pinball_and_elfie,
                                              monkeypatch):
    """Startup runs compiled with no tool attached; the timing tool
    then sees exactly the instructions it reports as ROI."""
    tools = []

    class CountingTool(timing.TimingTool):
        def on_attach(self, machine):
            self.compiled_calls = machine.cpu.compiled_calls
            self.calls = 0
            tools.append(self)

        def on_instruction(self, machine, thread, pc, insn):
            self.calls += 1
            super().on_instruction(machine, thread, pc, insn)

    monkeypatch.setattr(cpu_module, "_default_dispatch", "compiled")
    monkeypatch.setattr(sniper, "TimingTool", CountingTool)
    pinball, artifact = mt_pinball_and_elfie
    end_pc, end_count = _mt_end_condition(pinball)
    result = SniperSim().simulate_elfie(artifact.image, end_pc=end_pc,
                                        end_count=end_count, seed=11)
    (tool,) = tools
    assert tool.compiled_calls > 0
    assert tool.calls == result.instructions > 0


def test_fast_forward_reports_marker_thread_and_pc(st_pinball_and_elfie):
    """One ``elfie.fast_forward`` span names the startup's instruction
    count and the marker's thread and address; Sniper's ROI-entry
    instant carries the same thread and address."""
    pinball, artifact = st_pinball_and_elfie
    tracer = Tracer()
    with hooks.observed(tracer=tracer):
        SniperSim().simulate_elfie(artifact.image, roi_budget=1000)
    (forward,) = [e for e in tracer.events()
                  if e["name"] == "elfie.fast_forward"]
    (enter,) = [e for e in tracer.events()
                if e["name"] == "sniper.roi_enter"]
    args = forward["args"]
    machine, _ = prepare_elfie_machine(artifact.image)
    insn, _ = decode(machine.mem.fetch(args["pc"]))
    assert insn.op is Op.MARKER
    before, _ = run_to_marker(machine, 10**6)
    assert args["instructions"] == before[0] + 1
    assert (enter["args"]["tid"], enter["args"]["pc"]) \
        == (args["tid"], args["pc"]) == (0, args["pc"])
    # the span closes before the ROI-entry instant fires
    assert forward["ts"] + forward["dur"] <= enter["ts"]


def test_simulate_roi_without_marker_never_attaches_the_tool():
    class Never(Tool):
        def on_attach(self, machine):
            raise AssertionError("attached without a ROI marker")

    image = build_executable("""
        _start:
            mov rax, 231
            mov rdi, 3
            syscall
        """)
    status, reached = simulate_roi(image, Never(), max_instructions=1000)
    assert not reached
    assert (status.kind, status.code) == ("exit", 3)


def test_timing_driven_stepped_run_matches_straight_run():
    """A budget stop parks the rest of the cut slice, and the pick
    finishes it before the timing-driven choice, so stepping neither
    changes the interleaving nor leaves the machine mid-slice (which
    would defer signal delivery for good)."""
    image = ProgramBuilder(
        name="td", threads=3,
        phases=[PhaseSpec("compute", 300, buffer_kb=4),
                PhaseSpec("stream", 300, buffer_kb=4)],
    ).build()

    def run(step):
        machine = Machine(seed=0)
        load_elf(machine, image)
        tool = SniperSim()._tool()
        machine.scheduler = sniper._TimingDrivenScheduler(tool)
        machine.attach(tool)
        budget = step
        while True:
            status = machine.run(max_instructions=budget)
            if status.kind != "stopped":
                break
            budget += step
        threads = sorted((t.tid, t.icount, t.cycles)
                         for t in machine.threads.values())
        return machine, (status, threads,
                         [core.cycles for core in tool.cores])

    straight, want = run(None)
    stepped, got = run(777)
    assert got == want
    assert stepped.executed_total > 10 * 777
    assert not stepped.scheduler.mid_slice
