"""Tests for the differential replay-fidelity verifier (repro.verify)."""

import copy
import importlib
import sys
from types import SimpleNamespace

import pytest

from repro.core.pinball2elf import Pinball2Elf, Pinball2ElfOptions
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.machine.tool import Tool
from repro.observe import observed
from repro.pinplay import LogOptions, RegionSpec, extract_sysstate, log_region
from repro.verify import (
    FuzzCase,
    arch_digest,
    epoch_digest,
    generate_case,
    memory_digest,
    minimize_case,
    run_case,
    side_by_side,
    verify_elfie_entry,
    verify_pinball,
)
from repro.verify.fuzz import (
    FuzzOutcome,
    aslr_invariance,
    build_case,
    fuzz,
)
from repro.workloads import build_executable

#: the module itself: the package re-exports its ``fuzz`` function under
#: the module's name
fuzz_module = sys.modules["repro.verify.fuzz"]

# A deterministic workload with a non-native syscall (getpid) mid-region:
# the replayer injects its recorded result, so corrupting that record is
# an exact, localizable register-restore bug.
GETPID_PROGRAM = """
_start:
    mov rbx, 1
    mov rcx, 20
loop:
    add rbx, rcx
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 39         ; getpid, mid-region
    syscall
    add rbx, rax
    mov rcx, 20
loop2:
    add rbx, 1
    sub rcx, 1
    cmp rcx, 0
    jnz loop2
    mov rax, 231
    mov rdi, 0
    syscall
"""


@pytest.fixture(scope="module")
def getpid_image():
    return build_executable(GETPID_PROGRAM)


@pytest.fixture(scope="module")
def getpid_pinball(getpid_image):
    # region starts inside the first loop and spans the getpid call
    return log_region(getpid_image,
                      RegionSpec(start=10, length=100, warmup=0,
                                 name="getpid"),
                      options=LogOptions(name="getpid"))


class _SyscallIndex(Tool):
    """Records the region-relative icount just after a syscall retires.

    ``thread.icount`` inside the hook is the 0-based index of the
    syscall instruction itself; the first architectural state that can
    differ is one instruction later.
    """

    def __init__(self, number, base):
        self.number = number
        self.base = base
        self.at = None

    def on_syscall_after(self, machine, thread, number, result):
        if number == self.number and self.at is None:
            self.at = thread.icount - self.base + 1


def _relative_syscall_icount(image, pinball, number):
    """Instructions from region start to just after *number* completes."""
    machine = Machine(seed=0)
    load_elf(machine, image)
    start = pinball.region.warmup_start
    machine.run(max_instructions=start)
    tool = _SyscallIndex(number, base=start)
    machine.attach(tool)
    machine.run(max_instructions=start + pinball.region_icount)
    assert tool.at is not None
    return tool.at


def test_clean_pinball_verifies(getpid_image, getpid_pinball):
    report = verify_pinball(getpid_image, getpid_pinball)
    assert report.ok
    assert report.divergence is None
    assert len(report.epochs) >= 2
    # epoch 0 is the reconstruction check at region entry
    assert report.epochs[0].icount == 0


def test_bisect_localizes_register_restore_bug(getpid_image, getpid_pinball):
    # A corrupted initial register is visible the moment the replay
    # machine is reconstructed: epoch 0, instruction 0.
    bad = copy.deepcopy(getpid_pinball)
    bad.threads[0].regs.gpr[3] += 1  # rbx
    report = verify_pinball(getpid_image, bad)
    assert not report.ok
    assert report.first_bad_epoch == 0
    assert report.divergence is not None
    assert report.divergence.epoch == 0
    assert report.divergence.icount == 0
    assert "rbx" in report.divergence.diff


def test_bisect_localizes_syscall_result_bug(getpid_image, getpid_pinball):
    # Corrupt the recorded getpid result: replay injects the bad value,
    # so the first divergent state is exactly the instruction after the
    # syscall retires.
    bad = copy.deepcopy(getpid_pinball)
    records = [r for r in bad.syscalls if r.number == 39]
    assert len(records) == 1
    records[0].result += 7
    expected = _relative_syscall_icount(getpid_image, getpid_pinball, 39)

    report = verify_pinball(getpid_image, bad)
    assert not report.ok
    assert report.divergence is not None
    assert report.divergence.icount == expected
    assert report.divergence.tid == 0
    assert report.divergence.epoch == report.first_bad_epoch
    assert "rax" in report.divergence.diff


def test_no_bisect_still_reports_bad_epoch(getpid_image, getpid_pinball):
    bad = copy.deepcopy(getpid_pinball)
    bad.threads[0].regs.gpr[1] += 1
    report = verify_pinball(getpid_image, bad, bisect=False)
    assert not report.ok
    assert report.first_bad_epoch == 0
    # without bisection the divergence names the epoch but is not
    # localized to a thread/instruction
    assert report.divergence.epoch == 0
    assert report.divergence.tid == -1


# -- XSAVE / FS / GS round-trip (replay and ELFie paths) -------------------

XSTATE_PROGRAM = """
_start:
    mov rax, 158        ; arch_prctl(ARCH_SET_FS, 0x7100)
    mov rdi, 0x1002
    mov rsi, 0x7100
    syscall
    mov rax, 158        ; arch_prctl(ARCH_SET_GS, 0x7200)
    mov rdi, 0x1001
    mov rsi, 0x7200
    syscall
    fld xmm3, [pi]
    fld xmm7, [e]
    mov rcx, 20
delay:
    sub rcx, 1
    cmp rcx, 0
    jnz delay
    fadd xmm3, xmm7     ; in-region FP state mutation
    fst [out], xmm3
    mov rcx, 40
work:
    sub rcx, 1
    cmp rcx, 0
    jnz work
    mov rax, 231
    mov rdi, 0
    syscall
"""

XSTATE_DATA = """
pi:
.quad 0x400921fb54442d18
e:
.quad 0x4005bf0a8b145769
out:
.quad 0
"""


@pytest.fixture(scope="module")
def xstate_setup():
    image = build_executable(XSTATE_PROGRAM, data_source=XSTATE_DATA)
    # region starts inside the delay loop: FS/GS and xmm3/xmm7 are part
    # of the captured entry state, the fadd/fst happen in-region
    pinball = log_region(image,
                         RegionSpec(start=15, length=80, warmup=0,
                                    name="xstate"),
                         options=LogOptions(name="xstate"))
    return image, pinball


def test_xstate_is_captured(xstate_setup):
    _image, pinball = xstate_setup
    record = pinball.threads[0]
    assert record.regs.fs_base == 0x7100
    assert record.regs.gs_base == 0x7200
    assert record.regs.xmm[3] != 0.0
    assert record.regs.xmm[7] != 0.0


def test_xstate_replay_round_trip(xstate_setup):
    image, pinball = xstate_setup
    report = verify_pinball(image, pinball)
    assert report.ok, report.summary()


def test_xstate_replay_detects_corruption(xstate_setup):
    image, pinball = xstate_setup
    bad = copy.deepcopy(pinball)
    bad.threads[0].regs.fs_base = 0x9999
    with observed() as obs:
        report = verify_pinball(image, bad)
    assert not report.ok
    assert "fs_base" in report.divergence.diff
    # a traced run marks the divergence with both sides' digests
    assert obs.metrics.snapshot()["counters"]["verify.divergences"] == 1
    (instant,) = [event for event in obs.tracer.events()
                  if event["name"] == "verify.divergence"]
    assert instant["args"]["report"] == report.name
    bad_epoch = report.epochs[-1]
    assert instant["args"]["digest_a"] == "%s:%s" % (bad_epoch.a.arch,
                                                     bad_epoch.a.mem)
    assert instant["args"]["digest_a"] != instant["args"]["digest_b"]

    bad = copy.deepcopy(pinball)
    bad.threads[0].regs.xmm[3] += 1.0
    report = verify_pinball(image, bad)
    assert not report.ok
    assert "xmm" in report.divergence.diff


def test_xstate_elfie_entry_round_trip(xstate_setup):
    _image, pinball = xstate_setup
    state = extract_sysstate(pinball)
    from repro.machine.vfs import FileSystem
    fs = FileSystem()
    workdir = state.write_to(fs)
    artifact = Pinball2Elf(pinball,
                           Pinball2ElfOptions(sysstate=state)).convert()
    report = verify_elfie_entry(artifact.image, pinball, fs=fs,
                                workdir=workdir)
    assert report.ok, report.summary()
    assert report.memory_checked
    assert not report.bad_pages


def test_elfie_entry_detects_corruption(xstate_setup):
    _image, pinball = xstate_setup
    bad = copy.deepcopy(pinball)
    bad.threads[0].regs.gpr[3] += 3  # rbx at entry
    state = extract_sysstate(bad)
    from repro.machine.vfs import FileSystem
    fs = FileSystem()
    workdir = state.write_to(fs)
    artifact = Pinball2Elf(bad, Pinball2ElfOptions(sysstate=state)).convert()
    # verify against the TRUE capture: the ELFie restores the corrupted
    # registers, so the entry check must flag rbx
    report = verify_elfie_entry(artifact.image, pinball, fs=fs,
                                workdir=workdir)
    assert not report.ok
    assert report.summary().startswith("elfie entry FAIL: ")
    mismatches = report.register_mismatches[pinball.threads[0].tid]
    assert any("rbx" in row for row in mismatches)


# -- PMU trap capture across the region boundary ---------------------------

PMU_PROGRAM = """
_start:
    mov rbx, 0
    mov rax, 298        ; perf_event_open(INSTRUCTIONS, 60, handler)
    mov rdi, 0
    mov rsi, 60
    mov rdx, handler
    syscall
spin:
    add rbx, 1
    add rbx, 1
    add rbx, 1
    jmp spin
handler:
    mov rax, 231
    mov rdi, 0
    syscall
"""


def test_pmu_trap_survives_region_boundary():
    image = build_executable(PMU_PROGRAM)
    # the trap arms at icount ~5 and fires ~60 instructions later; start
    # the region between the two so the armed counter must be carried
    pinball = log_region(image,
                         RegionSpec(start=20, length=120, warmup=0,
                                    name="pmu"),
                         options=LogOptions(name="pmu"))
    record = pinball.threads[0]
    assert record.pmu_remaining is not None
    assert record.pmu_remaining > 0
    assert record.pmu_handler is not None
    report = verify_pinball(image, pinball)
    assert report.ok, report.summary()


def test_pmu_fields_survive_pinball_serialization(tmp_path):
    image = build_executable(PMU_PROGRAM)
    pinball = log_region(image,
                         RegionSpec(start=20, length=120, warmup=0,
                                    name="pmu"),
                         options=LogOptions(name="pmu"))
    from repro.pinplay.pinball import Pinball
    pinball.save(str(tmp_path))
    loaded = Pinball.load(str(tmp_path), "pmu")
    assert loaded.threads[0].pmu_remaining == \
        pinball.threads[0].pmu_remaining
    assert loaded.threads[0].pmu_handler == pinball.threads[0].pmu_handler


# -- clone-in-region tid allocation ----------------------------------------

CLONE_PROGRAM = """
_start:
    mov rbx, 0
    mov rcx, 30
warm:
    sub rcx, 1
    cmp rcx, 0
    jnz warm
    mov rax, 56         ; clone, INSIDE the region
    mov rdi, 0x100
    mov rsi, wstack_top
    mov rdx, worker
    syscall
    mov rcx, 60
main_work:
    add rbx, 1
    sub rcx, 1
    cmp rcx, 0
    jnz main_work
    mov rax, 231
    mov rdi, 0
    syscall
worker:
    mov rcx, 20
wloop:
    sub rcx, 1
    cmp rcx, 0
    jnz wloop
    mov rax, 60
    mov rdi, 0
    syscall
"""

CLONE_DATA = """
wstack:
.zero 2048
wstack_top:
.quad 0
"""


def test_clone_in_region_reallocates_recorded_tids():
    image = build_executable(CLONE_PROGRAM, data_source=CLONE_DATA)
    pinball = log_region(image,
                         RegionSpec(start=10, length=130, warmup=0,
                                    name="clone"),
                         options=LogOptions(name="clone"))
    # the clone happened inside the window: next_tid must be the
    # region-start value, not the post-clone one
    assert pinball.next_tid == 1
    report = verify_pinball(image, pinball)
    assert report.ok, report.summary()


# -- digests and the differ ------------------------------------------------

def test_digests_change_with_state():
    image = build_executable(GETPID_PROGRAM)
    machine = Machine(seed=0)
    load_elf(machine, image)
    d0 = epoch_digest(machine, index=0, icount=0)
    machine.run(max_instructions=5)
    d1 = epoch_digest(machine, index=0, icount=5)
    assert d0.arch != d1.arch
    assert not d0.matches(d1)
    assert arch_digest(machine) == arch_digest(machine)
    assert memory_digest(machine) == memory_digest(machine)


def test_side_by_side_reports_register_and_memory_rows():
    image = build_executable(GETPID_PROGRAM)
    a = Machine(seed=0)
    load_elf(a, image)
    b = Machine(seed=0)
    load_elf(b, image)
    assert "(no differences)" in side_by_side(a, b)
    b.threads[0].regs.gpr[0] = 0x1234
    b.mem.map(0x900000, 4096, 3)  # page mapped on one side only
    text = side_by_side(a, b)
    assert "rax" in text
    assert "0x900000" in text


# -- fuzzing ---------------------------------------------------------------

def test_generated_cases_round_trip():
    # a few deterministic seeds through the whole pipeline
    for seed in (1, 2, 4):
        case = generate_case(seed)
        outcome = run_case(case)
        assert outcome.ok, "seed %d: %s: %s" % (seed, outcome.stage,
                                                outcome.detail)


def test_fuzz_case_json_round_trip():
    case = generate_case(11)
    assert FuzzCase.from_json(case.to_json()) == case


@pytest.mark.parametrize("key", sorted(generate_case(11).to_json()))
def test_fuzz_case_missing_a_key_is_rejected(key):
    """A pinned case is read without defaults: one missing a key is an
    error naming it, not a different case silently replayed."""
    data = generate_case(11).to_json()
    del data[key]
    with pytest.raises(ValueError, match="lacks key '%s'" % key):
        FuzzCase.from_json(data)


def test_minimize_preserves_failure():
    # minimization needs a failing case; fake one by checking that a
    # passing case minimizes to itself (no reduction keeps a failure)
    case = generate_case(1)
    reduced = minimize_case(case)
    assert reduced == case


def _fails_with_pipes(case, seed=0, check_elfie=True, dispatch=None):
    """A stand-in round-trip whose replay diverges whenever the case
    has pipes, and only then."""
    if "pipes" in case.features:
        return FuzzOutcome(case=case, ok=False, stage="replay",
                           detail="injected divergence")
    return FuzzOutcome(case=case, ok=True)


def test_minimize_shrinks_a_failing_case_to_its_cause(monkeypatch):
    monkeypatch.setattr(fuzz_module, "run_case", _fails_with_pipes)
    case = FuzzCase(seed=9, threads=3, iterations=4,
                    features=("arith", "futex", "pipes", "mmap"),
                    region_pos=30, region_len_pct=60, region_marker=True)
    reduced = minimize_case(case)
    assert reduced == FuzzCase(seed=9, threads=1, iterations=1,
                               features=("arith", "pipes"), region_pos=0,
                               region_len_pct=100, region_marker=False)


def test_fuzz_records_and_checkpoints_minimized_failures(monkeypatch,
                                                         tmp_path):
    monkeypatch.setattr(fuzz_module, "run_case", _fails_with_pipes)
    seed = next(seed for seed in range(40)
                if "pipes" in generate_case(seed).features)
    checkpoint = str(tmp_path / "fuzz.json")
    summary = fuzz(time_budget=60.0, start_seed=seed, max_cases=1,
                   checkpoint_path=checkpoint)
    assert (summary.cases_run, summary.invalid, summary.ok) == (1, 0, False)
    (failure,) = summary.failures
    assert failure.stage == "replay"
    assert "pipes" in summary.minimized[seed].features
    assert summary.minimized[seed].iterations == 1
    # a resumed campaign starts from the checkpointed failure
    resumed = fuzz(time_budget=60.0, max_cases=1,
                   checkpoint_path=checkpoint)
    assert resumed.cases_run == 1 and len(resumed.failures) == 1
    assert resumed.minimized == summary.minimized


def test_build_case_produces_runnable_image():
    case = FuzzCase(seed=5, features=("arith", "files"), iterations=2)
    image, fs = build_case(case)
    machine = Machine(seed=0, fs=fs)
    load_elf(machine, image)
    status = machine.run(max_instructions=2_000_000)
    assert status.kind == "exit"


# -- fuzz stage failures ------------------------------------------------------


def _raise(message):
    def fail(*args, **kwargs):
        raise RuntimeError(message)
    return fail


def _returns(value):
    return lambda *args, **kwargs: value


# (``repro.verify.fuzz`` the attribute is the fuzz() function)
fuzz_module = importlib.import_module("repro.verify.fuzz")

_FAILED_REPORT = SimpleNamespace(ok=False, divergence="forced divergence")

#: failure -> (stage, the fuzz-module callee to replace, its replacement,
#: the detail)
_RUN_CASE_FAILURES = {
    "build-raises": ("build", "build_case", _raise("bad asm"), "bad asm"),
    "build-no-exit": ("build", "_measure", _returns(None),
                      "native run did not exit gracefully"),
    "build-too-short": ("build", "_pick_region", _returns(None),
                        "program too short"),
    "record": ("record", "log_region", _raise("capture failed"),
               "capture failed"),
    "replay": ("replay", "verify_pinball", _returns(_FAILED_REPORT),
               "forced divergence"),
    "elfie": ("elfie", "verify_elfie_entry",
              _returns(SimpleNamespace(ok=False, detail="bad entry")),
              "bad entry"),
}


@pytest.mark.parametrize("failure", sorted(_RUN_CASE_FAILURES))
def test_run_case_reports_the_failing_stage(failure, monkeypatch):
    stage, callee, replacement, detail = _RUN_CASE_FAILURES[failure]
    monkeypatch.setattr(fuzz_module, callee, replacement)
    outcome = run_case(FuzzCase(seed=3))
    assert (outcome.ok, outcome.stage) == (False, stage)
    assert detail in outcome.detail


def test_run_case_reports_a_marker_case_without_a_boundary(monkeypatch):
    monkeypatch.setattr(fuzz_module, "_pick_marker_region", _returns(None))
    outcome = run_case(FuzzCase(seed=3, region_marker=True))
    assert (outcome.ok, outcome.stage) == (False, "build")
    assert "no interior work-marker boundary" in outcome.detail


def test_run_case_on_a_tier_reports_build_and_dispatch(monkeypatch):
    monkeypatch.setattr(fuzz_module, "_dispatch_divergence",
                        _returns("tiers disagree"))
    outcome = run_case(FuzzCase(seed=3), dispatch="compiled")
    assert (outcome.stage, outcome.detail) == ("dispatch", "tiers disagree")
    monkeypatch.setattr(fuzz_module, "build_case", _raise("bad asm"))
    outcome = run_case(FuzzCase(seed=3), dispatch="compiled")
    assert (outcome.stage, outcome.detail) == ("build", "bad asm")


def _capture(rip=0x1000, icount=100, tids=(0,), calls=((0, 1),)):
    """A stand-in for a pinball: what aslr_invariance compares."""
    return SimpleNamespace(
        threads=[SimpleNamespace(tid=tid, region_icount=icount,
                                 regs=SimpleNamespace(rip=rip))
                 for tid in tids],
        syscalls=[SimpleNamespace(tid=tid, number=number)
                  for tid, number in calls])


_SLIDE = 0x10000

#: failure -> (the slid capture, the detail)
_ASLR_MISMATCHES = {
    "threads": (_capture(rip=0x1000 + _SLIDE, tids=(0, 1)),
                "captured thread sets differ"),
    "icount": (_capture(rip=0x1000 + _SLIDE, icount=99),
               "tid 0 region icount differs"),
    "rip": (_capture(rip=0x1000), "tid 0 entry rip not displaced"),
    "syscalls": (_capture(rip=0x1000 + _SLIDE, calls=((0, 2),)),
                 "in-region syscall sequence differs"),
}


@pytest.mark.parametrize("failure", sorted(_ASLR_MISMATCHES))
def test_aslr_invariance_reports_each_mismatch(failure, monkeypatch):
    import repro.machine.loader
    import repro.pinplay.replayer

    slid, detail = _ASLR_MISMATCHES[failure]
    captures = iter([_capture(), slid])
    monkeypatch.setattr(fuzz_module, "_measure", _returns(1000))
    monkeypatch.setattr(fuzz_module, "log_region",
                        lambda *args, **kwargs: next(captures))
    monkeypatch.setattr(repro.pinplay.replayer, "replay",
                        _returns(SimpleNamespace(diverged=None)))
    monkeypatch.setattr(fuzz_module, "verify_pinball",
                        _returns(SimpleNamespace(ok=True)))
    monkeypatch.setattr(repro.machine.loader, "aslr_slide",
                        _returns(_SLIDE))
    outcome = aslr_invariance(FuzzCase(seed=3), aslr_seed=1)
    assert (outcome.ok, outcome.stage) == (False, "aslr")
    assert detail in outcome.detail


def test_aslr_invariance_reports_the_failing_stage(monkeypatch):
    import repro.pinplay.replayer

    case = FuzzCase(seed=3)
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "build_case", _raise("bad asm"))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert (outcome.stage, outcome.detail) == ("build", "bad asm")
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "_measure", _returns(None))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert (outcome.stage, outcome.detail) == (
        "build", "native run did not exit gracefully")
    totals = iter([1000, 1001])
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "_measure",
                      lambda *args, **kwargs: next(totals))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert outcome.stage == "aslr"
    assert "whole-run icount not slide-invariant" in outcome.detail
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "_pick_region", _returns(None))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert outcome.stage == "build"
    assert "program too short" in outcome.detail
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "log_region", _raise("capture failed"))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert (outcome.stage, outcome.detail) == ("record", "capture failed")
    with monkeypatch.context() as patch:
        patch.setattr(repro.pinplay.replayer, "replay",
                      _returns(SimpleNamespace(diverged="replay diverged")))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert (outcome.stage, outcome.detail) == ("replay", "replay diverged")
    with monkeypatch.context() as patch:
        patch.setattr(fuzz_module, "verify_pinball",
                      _returns(_FAILED_REPORT))
        outcome = aslr_invariance(case, aslr_seed=1)
    assert (outcome.stage, outcome.detail) == ("replay", "forced divergence")
