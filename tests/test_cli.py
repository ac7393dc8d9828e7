"""Tests for the pinball2elf command-line front-end."""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.pinplay import Pinball
from repro.workloads import build_executable

PROGRAM = """
_start:
    mov rcx, 30000
loop:
    ld rax, [slot]
    add rax, rcx
    st [slot], rax
    sub rcx, 1
    cmp rcx, 0
    jnz loop
    mov rax, 231
    mov rdi, 0
    syscall
"""


@pytest.fixture(scope="module")
def binary(tmp_path_factory):
    path = tmp_path_factory.mktemp("bin") / "prog.elf"
    path.write_bytes(build_executable(PROGRAM,
                                      data_source="slot:\n.quad 0\n"))
    return str(path)


@pytest.fixture(scope="module")
def pinball_prefix(binary, tmp_path_factory):
    out = tmp_path_factory.mktemp("pb")
    code = main(["logger", "--binary", binary, "--start", "20000",
                 "--length", "40000", "--name", "cli", "--out", str(out)])
    assert code == 0
    return str(out / "cli")


def test_logger_writes_pinball_files(pinball_prefix, capsys):
    pinball = Pinball.load(*pinball_prefix.rsplit("/", 1))
    assert pinball.region_icount == 40000
    assert pinball.fat


def test_pinball2elf_executable(pinball_prefix, tmp_path, capsys):
    out = str(tmp_path / "x.elfie")
    code = main(["pinball2elf", "--pinball", pinball_prefix,
                 "--out", out, "--roi-start", "sniper:0x7",
                 "--perf-exit"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured
    from repro.elf import ElfFile, ET_EXEC

    elf = ElfFile(Path(out).read_bytes())
    assert elf.header.e_type == ET_EXEC


def test_pinball2elf_object_mode(pinball_prefix, tmp_path, capsys):
    out = str(tmp_path / "x.o")
    code = main(["pinball2elf", "--pinball", pinball_prefix,
                 "--out", out, "--object", "--dump-contexts"])
    assert code == 0
    from repro.elf import ElfFile, ET_REL

    assert ElfFile(Path(out).read_bytes()).header.e_type == ET_REL
    assert (tmp_path / "x.o.lds").exists()
    assert (tmp_path / "x.o.ctx.s").exists()


def test_replay_command(pinball_prefix, capsys):
    code = main(["replay", "--pinball", pinball_prefix])
    assert code == 0
    out = capsys.readouterr().out
    assert "matches recording: True" in out


def test_replay_injectionless(pinball_prefix, capsys):
    code = main(["replay", "--pinball", pinball_prefix, "--injection", "0"])
    assert code == 0


def test_sysstate_report(pinball_prefix, capsys):
    code = main(["sysstate", "--pinball", pinball_prefix])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pinball"] == "cli"
    assert "first_brk" in report


def test_run_command(pinball_prefix, tmp_path, capsys):
    elfie = str(tmp_path / "r.elfie")
    main(["pinball2elf", "--pinball", pinball_prefix, "--out", elfie,
          "--perf-exit"])
    capsys.readouterr()
    code = main(["run", elfie, "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "status: exit" in out


def test_verify_aslr_invariance_gate(capsys):
    code = main(["verify", "aslr", "--cases", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "aslr invariance: 2 cases, 0 failing" in out


# -- verify and farm verbs end to end -----------------------------------------


@pytest.fixture(scope="module")
def one_case_corpus(tmp_path_factory):
    """A corpus directory holding one pinned regression case."""
    directory = tmp_path_factory.mktemp("corpus")
    case = Path(__file__).parent / "corpus" / "fd-offset-restore.json"
    shutil.copy(case, directory)
    return str(directory)


def test_verify_run_writes_json_report(pinball_prefix, binary, tmp_path,
                                       capsys):
    report = tmp_path / "fidelity.json"
    code = main(["verify", "run", "--pinball", pinball_prefix,
                 "--binary", binary, "--epochs", "4", "--json", str(report),
                 "--dispatch", "compiled"])
    assert code == 0
    written = json.loads(report.read_text())
    assert written["ok"] is True and written["divergence"] is None
    assert "OK" in capsys.readouterr().out


def test_verify_run_reports_a_corrupted_register(pinball_prefix, binary,
                                                tmp_path, capsys):
    pinball = Pinball.load(*pinball_prefix.rsplit("/", 1))
    pinball.threads[0].regs.gpr[3] += 1  # rbx
    prefix = pinball.save(str(tmp_path / "bad"))
    report = tmp_path / "fidelity.json"
    code = main(["verify", "run", "--pinball", prefix, "--binary", binary,
                 "--epochs", "4", "--json", str(report)])
    assert code == 1
    out = capsys.readouterr().out
    assert "fidelity FAIL: cli, divergence at epoch 0, instruction 0" in out
    assert "rbx" in out
    divergence = json.loads(report.read_text())["divergence"]
    assert (divergence["epoch"], divergence["icount"]) == (0, 0)
    assert "rbx" in divergence["diff"]


def test_verify_corpus_replays_the_corpus(one_case_corpus, capsys):
    code = main(["verify", "corpus", "--corpus", one_case_corpus])
    assert code == 0
    assert "corpus: 1 cases, 0 failing" in capsys.readouterr().out


def test_verify_corpus_defaults_to_tests_corpus_under_cwd(
        one_case_corpus, tmp_path, monkeypatch, capsys):
    shutil.copytree(one_case_corpus, tmp_path / "tests" / "corpus")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "corpus"]) == 0
    assert "corpus: 1 cases, 0 failing" in capsys.readouterr().out


def test_verify_lockstep_over_the_corpus(one_case_corpus, capsys):
    code = main(["verify", "lockstep", "--corpus", one_case_corpus,
                 "--mt-cases", "1", "--hops", "1"])
    assert code == 0
    assert "lockstep: 2 workloads, 0 failing" in capsys.readouterr().out


def test_verify_fuzz_compiled_cross_checks_one_case(one_case_corpus, capsys):
    code = main(["verify", "fuzz", "--dispatch", "compiled",
                 "--max-cases", "1", "--corpus", one_case_corpus])
    assert code == 0
    assert "cases run: 1  invalid: 0  divergences: 0" \
        in capsys.readouterr().out
    assert os.listdir(one_case_corpus) == ["fd-offset-restore.json"]


def test_farm_run_verify_fidelity_checks_one_region(tmp_path, capsys):
    code = main(["farm", "run", "--store", str(tmp_path / "farm"),
                 "--app", "505.mcf_r", "--input", "test", "--jobs", "1",
                 "--slice-size", "5000", "--warmup", "2000", "--max-k", "4",
                 "--alternates", "0", "--verify-fidelity",
                 "--fidelity-regions", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "505.mcf_r: 4 regions" in out
    assert "505.mcf_r: fidelity OK (1 regions verified, 3 skipped)" in out
