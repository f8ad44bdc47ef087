"""Benchmark: regenerate Table 3 (power- vs thermal-aware, platform).

Paper rows: for each benchmark, (total power, max temp, avg temp) of
heuristic 3 vs the thermal-aware ASP on the fixed four-identical-PE
platform.

Expected shape: thermal-aware lower on both temperature metrics for every
benchmark while meeting all deadlines; the paper quotes average reductions
of 9.75 °C max / 5.02 °C avg.  Run with ``-s`` for the full table.
"""

from __future__ import annotations

import pytest

from repro.flow import run_many
from repro.results import paper_specs, temperature_reductions

from conftest import paper_report, print_report


@pytest.fixture(scope="module")
def table3_rows():
    report = paper_report("table3", paper_specs("table3"))
    print_report("Table 3 (measured vs paper)", report.render())
    return report.rows


def test_table3_all_schedules_meet_deadlines(table3_rows):
    assert all(r["meets_deadline"] for r in table3_rows)


def test_table3_thermal_reduces_both_metrics_on_average(table3_rows):
    reductions = temperature_reductions(table3_rows)
    assert reductions["max_temp_reduction"] > 0.0
    assert reductions["avg_temp_reduction"] > 0.0


def test_table3_thermal_cooler_per_benchmark(table3_rows):
    by_bm = {}
    for row in table3_rows:
        by_bm.setdefault(row["benchmark"], {})[row["approach"]] = row
    for name, pair in by_bm.items():
        assert (
            pair["thermal_aware"]["avg_temp"] <= pair["power_aware"]["avg_temp"]
        ), name
        assert (
            pair["thermal_aware"]["max_temp"]
            <= pair["power_aware"]["max_temp"] + 1e-9
        ), name


def test_table3_reduction_magnitude_in_paper_band(table3_rows):
    reductions = temperature_reductions(table3_rows)
    assert 0.5 <= reductions["max_temp_reduction"] <= 20.0
    assert 0.5 <= reductions["avg_temp_reduction"] <= 20.0


def test_table3_thermal_balances_load(table3_rows):
    """'the thermal ASP can balance the workloads of all PEs'."""
    thermal = [r for r in table3_rows if r["approach"] == "thermal_aware"]
    power = [r for r in table3_rows if r["approach"] == "power_aware"]
    avg_thermal = sum(r["load_balance"] for r in thermal) / len(thermal)
    avg_power = sum(r["load_balance"] for r in power) / len(power)
    assert avg_thermal <= avg_power + 0.15


def test_benchmark_table3(benchmark, table3_rows):
    """Time one Table-3 regeneration (Bm1, both policies)."""
    benchmark(run_many, paper_specs("table3", ["Bm1"]))
