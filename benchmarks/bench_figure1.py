"""Benchmark: exercise Figure 1 (both design flows, end to end).

Figure 1 is the paper's framework diagram, not a data plot; the
reproduction runs flow (a) — thermal-aware co-synthesis with floorplanning
and HotSpot in the loop — and flow (b) — the platform-based flow — on Bm1
and prints the ``figure1`` report — a stage-by-stage trace of both flows —
built from the two runs' records.  The record carries no floorplan, so the
die-area checks read the flow results directly.
"""

from __future__ import annotations

import pytest

from repro.flow import run_flow
from repro.results import RunSet, analyze, paper_specs

from conftest import print_report


@pytest.fixture(scope="module")
def figure1_results():
    """The co-synthesis and platform flow results behind Figure 1 (Bm1)."""
    return [run_flow(spec) for spec in paper_specs("figure1", ["Bm1"])]


@pytest.fixture(scope="module")
def figure1_report(figure1_results):
    records = RunSet(tuple(result.as_record() for result in figure1_results))
    report = analyze("figure1", records)
    print_report("Figure 1 (flow trace)", report.render())
    return report


def test_both_flows_complete(figure1_report):
    rows = figure1_report.rows
    assert [r["flow"] for r in rows] == ["co-synthesis", "platform"]
    for row in rows:
        assert row["meets_requirement"]


def test_cosynthesis_flow_screens_whole_space(figure1_report):
    # the 5-type catalogue with <= 4 instances admits 125 allocations, not
    # all feasible; the screening stage must have seen a large fraction
    stages = figure1_report.notes[:figure1_report.notes.index("")]
    assert stages[0].startswith("[co-synthesis]")
    assert "allocations" in " ".join(stages)


def test_flows_produce_plausible_dies(figure1_results):
    for result in figure1_results:
        assert 10.0 < result.floorplan.die_area < 400.0


def test_platform_flow_has_fixed_architecture(figure1_report, figure1_results):
    platform = figure1_report.rows[1]
    assert platform["pes"] == 4
    assert figure1_results[1].floorplan.die_area == pytest.approx(24.0 * 6.0)


def test_benchmark_figure1(benchmark, figure1_report):
    """Time the platform leg of the Figure-1 demonstration."""
    from repro.flow import platform_spec

    benchmark(run_flow, platform_spec("Bm1", policy="thermal"))
