"""Tests for perf-stat-style PMU counts and the report helpers."""

import pytest

from repro.analysis import Table, bar_chart, format_table, timings_table
from repro.core import MarkerSpec, Pinball2Elf, Pinball2ElfOptions
from repro.machine.loader import load_elf
from repro.machine.machine import Machine
from repro.pinplay import RegionSpec, log_region
from repro.simpoint.validation import measure_elfie_region
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
def image():
    return build_executable(PROGRAM, data_source="slot:\n.quad 0\n")


def _run_native(image, seed=0):
    machine = Machine(seed=seed)
    load_elf(machine, image)
    status = machine.run()
    return status, machine.pmu.totals()


def test_perf_stat_program_counts(image):
    status, totals = _run_native(image)
    assert status.kind == "exit"
    assert totals["instructions"] > 150_000
    assert totals["cycles"] > totals["instructions"]
    assert 1.0 < totals["cycles"] / totals["instructions"] < 5.0
    assert totals["branches"] > 0


def test_perf_stat_program_deterministic(image):
    _, first = _run_native(image, seed=4)
    _, second = _run_native(image, seed=4)
    assert first["cycles"] == second["cycles"]
    assert first["instructions"] == second["instructions"]


def test_perf_stat_elfie_region(image):
    region = RegionSpec(start=40_000, length=30_000, warmup=10_000,
                        name="ps.r0")
    pinball = log_region(image, region)
    artifact = Pinball2Elf(pinball, Pinball2ElfOptions(
        perf_exit=True, marker=MarkerSpec("sniper", 2))).convert()
    measurement = measure_elfie_region(artifact, region)
    assert measurement.ok
    assert measurement.cpi > 1.0


def test_table_rendering_alignment():
    table = Table(title="T", headers=["name", "value"])
    table.add_row("a", 1)
    table.add_row("longer-name", 123.5)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2] and "value" in lines[2]
    assert "longer-name" in text
    assert "123.500" in text


def test_table_rejects_wrong_arity():
    table = Table(title="T", headers=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_format_table_one_call():
    text = format_table("title", ["x"], [["1"], ["2"]])
    assert "title" in text
    assert "1" in text and "2" in text


def test_bar_chart_scales_bars():
    text = bar_chart("chart", [("small", 1.0), ("big", 10.0)], width=20)
    lines = text.splitlines()
    small_bar = lines[1].count("#")
    big_bar = lines[2].count("#")
    assert big_bar == 20
    assert 1 <= small_bar <= 3


def test_bar_chart_negative_values():
    text = bar_chart("c", [("down", -2.0), ("up", 2.0)])
    assert "-" in text.splitlines()[1]


def test_bar_chart_empty():
    assert "(no data)" in bar_chart("c", [])


def test_timings_table_reports_speedups_against_the_first_run():
    text = timings_table("T", [("cold", 2.0), ("warm", 0.5), ("none", 0.0)])
    assert "2.000" in text and "1.0x" in text
    assert "0.500" in text and "4.0x" in text
    assert "infx" in text
    assert "run" in timings_table("T", [])
