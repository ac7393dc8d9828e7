"""Whole-machine snapshots: capture/restore bit-identity, dedup, CLI.

The subsystem's claim mirrors the ELFie's: a run that is suspended,
serialized through the canonical snapshot encoding, and resumed on a
fresh machine must be *bit-identical* to one that never stopped — same
instruction stream, same schedule, same syscall results, same epoch
digests.  These tests check the claim directly (digests), through the
lockstep verifier (corpus + multithreaded fuzzer workloads), and
through the store codec (incremental snapshots share page blocks).
"""

import json

import pytest

from repro.core.cli import main
from repro.farm import ArtifactStore
from repro.farm.codec import encode
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.pinplay.logger import LogOptions, log_region
from repro.pinplay.regions import RegionSpec
from repro.pinplay.replayer import ReplaySession
from repro.simpoint.bbv import _BlockCounter, _text_base
from repro.snapshot import (
    FORMAT_VERSION,
    MachineSnapshot,
    capture,
    restore,
    snapshot_digest,
    snapshot_info,
)
from repro.verify import lockstep_corpus, run_lockstep_case
from repro.verify.digest import DirtyPageTracker
from repro.verify.lockstep import mt_cases
from repro.workloads import MT_APPS, build_executable, get_app

CORPUS = "tests/corpus"


@pytest.fixture(scope="module")
def mcf_image():
    return get_app("505.mcf_r").build("test")


def boot(image, seed=0):
    machine = Machine(seed=seed)
    load_elf(machine, image)
    return machine


def wire_roundtrip(snapshot):
    """Round-trip through the canonical bytes, as a store/migration
    would — no shared-object shortcuts."""
    return MachineSnapshot.from_state_bytes(
        {addr: (prot, bytes(data))
         for addr, (prot, data) in snapshot.pages.items()},
        snapshot.state_bytes())


def test_capture_restore_recapture_same_digest(mcf_image):
    machine = boot(mcf_image)
    status = machine.run(max_instructions=40_000)
    assert status.kind == "stopped"
    first = capture(machine)
    resumed = restore(wire_roundtrip(first))
    assert resumed.executed_total == machine.executed_total
    second = capture(resumed)
    assert snapshot_digest(second) == snapshot_digest(first)


def test_resumed_run_finishes_bit_identically(mcf_image):
    straight = boot(mcf_image)
    done = straight.run()
    assert done.kind == "exit"

    interrupted = boot(mcf_image)
    assert interrupted.run(max_instructions=40_000).kind == "stopped"
    resumed = restore(wire_roundtrip(capture(interrupted)))
    status = resumed.run()
    assert status.kind == "exit"
    assert status.code == done.code
    assert resumed.executed_total == straight.executed_total
    assert resumed.mem.snapshot() == straight.mem.snapshot()


def test_schedule_rng_travels_with_the_snapshot(mcf_image):
    """The jitter RNG's Mersenne state is part of the snapshot: a
    resumed machine draws the same quantum sequence, so a nonzero seed
    produces the same interleaving as the uninterrupted run."""
    straight = boot(mcf_image, seed=7)
    straight.run()

    interrupted = boot(mcf_image, seed=7)
    machine = interrupted
    for stop_at in (10_000, 60_000, 110_000):
        status = machine.run(max_instructions=stop_at)
        if status.kind != "stopped":
            break
        machine = restore(wire_roundtrip(capture(machine)))
    status = machine.run()
    assert status.kind == "exit"
    assert machine.executed_total == straight.executed_total
    assert machine.mem.snapshot() == straight.mem.snapshot()


def test_capture_refuses_exited_machine(mcf_image):
    machine = boot(mcf_image)
    machine.run()
    with pytest.raises(ValueError):
        capture(machine)


def test_snapshot_version_gate(mcf_image):
    machine = boot(mcf_image)
    machine.run(max_instructions=10_000)
    snapshot = capture(machine)
    snapshot.version += 1
    with pytest.raises(ValueError):
        restore(snapshot)


def test_snapshot_of_another_format_version_is_rejected(mcf_image):
    """One layout per version: a state blob of v1 (the layout that still
    carried the CPU telemetry counters) is refused on decode, and a
    snapshot naming another version is refused by restore."""
    machine = boot(mcf_image)
    machine.run(max_instructions=10_000)
    snapshot = capture(machine)
    assert snapshot.version == FORMAT_VERSION == 2
    payload = json.loads(snapshot.state_bytes())
    payload["version"] = 1
    with pytest.raises(ValueError, match="v1 not supported"):
        MachineSnapshot.from_state_bytes(
            snapshot.pages, json.dumps(payload).encode("utf-8"))
    snapshot.version = 1
    with pytest.raises(ValueError, match="v1 not supported"):
        restore(snapshot)


def test_snapshot_holds_only_restore_state(mcf_image):
    """No observer state travels: the CPU's telemetry counters, the
    kernel's per-dispatch effects and its syscall names stay behind,
    and a restored CPU counts from zero while the run stays
    bit-identical."""
    machine = boot(mcf_image)
    machine.run(max_instructions=25_000)
    assert machine.cpu.block_hits
    snapshot = capture(machine)
    assert set(snapshot.state["machine"]["cpu"]) == {"hw_l1", "hw_llc"}
    assert not {"trace", "last_effects"} & set(snapshot.state["kernel"])
    resumed = restore(wire_roundtrip(snapshot))
    assert resumed.cpu.block_hits == resumed.cpu.compiled_calls == 0
    assert resumed.kernel.last_effects == []
    assert snapshot_digest(capture(resumed)) == snapshot_digest(snapshot)


def test_snapshot_info_summary(mcf_image):
    machine = boot(mcf_image)
    machine.run(max_instructions=25_000)
    info = snapshot_info(capture(machine, extra={"kind": "test"}))
    assert info["executed_total"] == 25_000
    assert info["pages"] > 0
    assert info["memory_bytes"] == info["pages"] * 4096
    assert "machine" in info["plugins"] and "kernel" in info["plugins"]
    assert info["extra_keys"] == ["kind"]
    assert len(info["digest"]) == 64
    assert info["threads"] and info["threads"][0]["alive"]


def test_lockstep_corpus_and_mt_cases():
    """The assurance gate: every pinned corpus seed plus two generated
    multithreaded (futex) workloads hold digest lockstep between the
    straight run and the suspend/resume run."""
    sweep = lockstep_corpus(CORPUS, hops=2, mt_count=2)
    assert len(sweep.outcomes) >= 8  # 6 corpus seeds + 2 MT cases
    assert sweep.ok, [outcome.summary() for _, outcome in sweep.failures]


def test_lockstep_mt_case_with_many_hops():
    case = mt_cases(count=1)[0]
    assert case.threads >= 2
    outcome = run_lockstep_case(case, hops=4, hop_seed=3)
    assert outcome.ok, outcome.detail


def test_incremental_snapshots_share_page_blocks(mcf_image):
    """Two checkpoints of one run taken a few quanta apart dedupe
    through the content-addressed block pool: >90% of the later
    snapshot's page blocks already exist in the earlier one."""
    machine = boot(mcf_image)
    assert machine.run(max_instructions=60_000).kind == "stopped"
    early = capture(machine)
    assert machine.run(max_instructions=70_000).kind == "stopped"
    late = capture(machine)

    _, early_meta, _ = encode(early, kind="snapshot")
    _, late_meta, _ = encode(late, kind="snapshot")
    early_blocks = {digest for _, _, digest in early_meta["pages"]}
    late_blocks = [digest for _, _, digest in late_meta["pages"]]
    shared = sum(1 for digest in late_blocks if digest in early_blocks)
    assert shared > 0.9 * len(late_blocks)


def test_store_roundtrip_preserves_digest(tmp_path, mcf_image):
    machine = boot(mcf_image)
    machine.run(max_instructions=30_000)
    snapshot = capture(machine, extra={"kind": "test", "index": 3})
    store = ArtifactStore(str(tmp_path))
    store.put("ck", snapshot, kind="snapshot")
    fetched = store.get("ck")
    assert store.kind_of("ck") == "snapshot"
    assert snapshot_digest(fetched) == snapshot_digest(snapshot)
    assert fetched.extra == snapshot.extra

    # both snapshots of the same machine share the block pool
    store.put("ck2", capture(machine), kind="snapshot")
    stats = store.stats()
    assert stats.blocks < 2 * (len(snapshot.pages) + 1)


def test_snapshot_cli_save_info_resume(tmp_path, mcf_image, capsys):
    binary = tmp_path / "mcf.elf"
    binary.write_bytes(mcf_image)
    store = str(tmp_path / "store")

    assert main(["snapshot", "save", "--binary", str(binary),
                 "--at", "50000", "--key", "ck", "--store", store]) == 0
    saved = capsys.readouterr().out
    assert "saved ck at 50000 instructions" in saved

    assert main(["snapshot", "info", "--key", "ck", "--store", store]) == 0
    import json
    info = json.loads(capsys.readouterr().out)
    assert info["executed_total"] == 50_000

    straight = boot(mcf_image)
    done = straight.run()
    assert main(["snapshot", "resume", "--key", "ck",
                 "--store", store]) == done.code
    out = capsys.readouterr().out
    assert "resumed ck from 50000" in out
    assert "instructions: %d" % straight.executed_total in out

    # bounded resume stops at the budget instead of completing
    assert main(["snapshot", "resume", "--key", "ck", "--store", store,
                 "--steps", "1000"]) == 0
    assert "(+1000 since resume)" in capsys.readouterr().out

    assert main(["snapshot", "info", "--key", "missing",
                 "--store", store]) == 1


# -- tool cursors ------------------------------------------------------------


def test_block_counter_cursor_round_trips(mcf_image):
    """A BBV counter stopped mid-slice (accumulated counts and open
    blocks) re-captures identically on a fresh counter and finishes the
    slice with the counts of a run that never stopped."""
    base = _text_base(mcf_image)
    straight = boot(mcf_image)
    straight_counter = _BlockCounter(module_base=base)
    straight.attach(straight_counter)
    straight.run(max_instructions=20_000)

    machine = boot(mcf_image)
    machine.attach(_BlockCounter(module_base=base))
    assert machine.run(max_instructions=12_345).kind == "stopped"
    first = capture(machine)
    (name, state), = first.state["observe"]["tools"]
    assert name == "_BlockCounter"
    assert state["current"] and state["open_block"]
    counter = _BlockCounter(module_base=base)
    resumed = restore(wire_roundtrip(first), tools=[counter])
    assert snapshot_digest(capture(resumed)) == snapshot_digest(first)
    resumed.run(max_instructions=20_000)
    assert counter.take(resumed) == straight_counter.take(straight)


def test_dirty_trackers_round_trip_in_attachment_order():
    """Two dirty-page trackers, one with a non-empty dirty set and one
    attached just now: each saved set goes back to the tracker in the
    same attachment position."""
    machine = boot(MT_APPS["mt.prodcons"].build("test"))
    early = DirtyPageTracker()
    machine.attach(early)
    assert machine.run(max_instructions=20_000).kind == "stopped"
    late = DirtyPageTracker()
    machine.attach(late)
    assert early.dirty and not late.dirty
    first = capture(machine)
    fresh = [DirtyPageTracker(), DirtyPageTracker()]
    resumed = restore(wire_roundtrip(first), tools=fresh)
    assert [tool.dirty for tool in fresh] == [early.dirty, late.dirty]
    assert snapshot_digest(capture(resumed)) == snapshot_digest(first)


#: Two threads, each calling getpid (an injected syscall under
#: constrained replay) in a loop.
MT_GETPID_PROGRAM = """
_start:
    mov rax, 56
    mov rdi, 0x100
    mov rsi, wstack_top
    mov rdx, worker
    syscall
    mov r12, 40
main_loop:
    mov rax, 39
    syscall
    add rbx, rax
    mov rcx, 7
main_spin:
    sub rcx, 1
    cmp rcx, 0
    jnz main_spin
    sub r12, 1
    cmp r12, 0
    jnz main_loop
    mov rax, 231
    mov rdi, 0
    syscall
worker:
    mov r12, 40
worker_loop:
    mov rax, 39
    syscall
    add rbx, rax
    mov rcx, 5
worker_spin:
    sub rcx, 1
    cmp rcx, 0
    jnz worker_spin
    sub r12, 1
    cmp r12, 0
    jnz worker_loop
    mov rax, 60
    mov rdi, 0
    syscall
"""

MT_GETPID_DATA = """
wstack:
.zero 2048
wstack_top:
.quad 0
"""


def test_injection_cursor_round_trips_mid_mt_replay():
    """A constrained replay of a two-thread pinball, suspended between
    injected syscalls, resumes from its serialized snapshot and ends
    exactly like the replay that never stopped."""
    image = build_executable(MT_GETPID_PROGRAM, data_source=MT_GETPID_DATA)
    pinball = log_region(image, RegionSpec(start=50, length=600, warmup=0,
                                           name="mt"),
                         options=LogOptions(name="mt"))
    assert len(pinball.threads) == 2
    straight = ReplaySession(pinball)
    straight.run()
    expected = straight.result()
    assert expected.diverged is None and expected.injected_syscalls > 10

    session = ReplaySession(pinball)
    session.step(300)
    assert 0 < session.tool.injected < expected.injected_syscalls
    first = session.checkpoint()
    (name, state), = first.state["pinplay"]["tools"]
    assert name == "_InjectionTool" and any(q for _, q in state["queues"])
    resumed = ReplaySession.resume(pinball, wire_roundtrip(first))
    assert snapshot_digest(resumed.checkpoint()) == snapshot_digest(first)
    resumed.run()
    result = resumed.result()
    assert result.diverged is None
    assert result.thread_icounts == expected.thread_icounts
    assert result.injected_syscalls == expected.injected_syscalls
    assert resumed.machine.mem.snapshot() == straight.machine.mem.snapshot()
