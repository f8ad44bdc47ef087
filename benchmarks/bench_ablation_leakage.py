"""Ablation A8 (extension): the leakage-thermal loop and reliability.

The paper motivates thermal awareness via leakage (exponential in T) and
reliability (Arrhenius in T) but never quantifies either.  This bench
closes both loops on the Table-3 schedules: block temperatures are
re-solved with temperature-dependent leakage, and electromigration MTTF
factors are derived — showing the thermal-aware policy's advantage *grows*
once leakage feedback is accounted for.
"""

from __future__ import annotations

import pytest

from repro.analysis.reliability import reliability_report
from repro.analysis.report import format_table
from repro.experiments.workloads import WORKLOAD_NAMES
from repro.flow import platform_spec, run_flow
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.leakage import LeakageModel, solve_with_leakage

from conftest import print_report

LEAKAGE = LeakageModel(leakage_fraction=0.15, beta=0.015, t_ref_c=65.0)


@pytest.fixture(scope="module")
def leakage_rows():
    rows = []
    for name in WORKLOAD_NAMES:
        for policy in ("heuristic3", "thermal"):
            result = run_flow(platform_spec(name, policy=policy))
            model = HotSpotModel(result.floorplan)
            powers = result.schedule.average_powers()
            solution = solve_with_leakage(model, powers, LEAKAGE)
            report = reliability_report(solution.temperatures, ref_temp_c=65.0)
            rows.append(
                {
                    "benchmark": name,
                    "policy": policy,
                    "peak_no_leak": round(result.evaluation.max_temperature, 2),
                    "peak_with_leak": round(solution.peak_temperature, 2),
                    "leakage_W": round(solution.total_leakage, 2),
                    "iterations": solution.iterations,
                    "mttf_factor": round(report.system_mttf_factor, 3),
                }
            )
    print_report(
        "Ablation A8 — leakage-thermal loop + electromigration MTTF "
        "(platform, Table-3 schedules)",
        format_table(rows),
    )
    return rows


def test_loop_converges_everywhere(leakage_rows):
    assert all(r["iterations"] < 30 for r in leakage_rows)


def test_leakage_raises_peaks(leakage_rows):
    for row in leakage_rows:
        assert row["peak_with_leak"] > row["peak_no_leak"]


def test_thermal_policy_leaks_less(leakage_rows):
    """Cooler schedules leak less — the feedback amplifies the gain."""
    for name in WORKLOAD_NAMES:
        rows = {r["policy"]: r for r in leakage_rows if r["benchmark"] == name}
        assert rows["thermal"]["leakage_W"] <= rows["heuristic3"]["leakage_W"] + 1e-9


def test_leakage_amplifies_thermal_gain(leakage_rows):
    """Suite-wide, the peak-temperature gap grows under leakage feedback."""
    gap_before = gap_after = 0.0
    for name in WORKLOAD_NAMES:
        rows = {r["policy"]: r for r in leakage_rows if r["benchmark"] == name}
        gap_before += rows["heuristic3"]["peak_no_leak"] - rows["thermal"]["peak_no_leak"]
        gap_after += rows["heuristic3"]["peak_with_leak"] - rows["thermal"]["peak_with_leak"]
    assert gap_after >= gap_before - 1e-9


def test_thermal_policy_lives_longer(leakage_rows):
    """The paper's reliability claim, quantified: higher MTTF factor."""
    for name in WORKLOAD_NAMES:
        rows = {r["policy"]: r for r in leakage_rows if r["benchmark"] == name}
        assert rows["thermal"]["mttf_factor"] >= rows["heuristic3"]["mttf_factor"]


def test_benchmark_leakage_loop(benchmark, leakage_rows):
    result = run_flow(platform_spec("Bm1", policy="thermal"))
    model = HotSpotModel(result.floorplan)
    powers = result.schedule.average_powers()
    benchmark(solve_with_leakage, model, powers, LEAKAGE)
