"""Benchmark: exercise Figure 1 (both design flows, end to end).

Figure 1 is the paper's framework diagram, not a data plot; the
reproduction runs flow (a) — thermal-aware co-synthesis with floorplanning
and HotSpot in the loop — and flow (b) — the platform-based flow — on Bm1
and prints a stage-by-stage trace demonstrating the wiring.
"""

from __future__ import annotations

import pytest

from repro.experiments.figure1 import format_figure1, run_figure1

from conftest import print_report


@pytest.fixture(scope="module")
def figure1_traces():
    traces = run_figure1("Bm1")
    print_report("Figure 1 (flow trace)", format_figure1(traces))
    return traces


def test_both_flows_complete(figure1_traces):
    assert [t.flow for t in figure1_traces] == ["co-synthesis", "platform"]
    for trace in figure1_traces:
        assert trace.meets_requirement


def test_cosynthesis_flow_screens_whole_space(figure1_traces):
    cosynthesis = figure1_traces[0]
    # the 5-type catalogue with <= 4 instances admits 125 allocations, not
    # all feasible; the screening stage must have seen a large fraction
    assert "allocations" in " ".join(cosynthesis.stages)


def test_flows_produce_plausible_dies(figure1_traces):
    for trace in figure1_traces:
        assert 10.0 < trace.die_area_mm2 < 400.0


def test_platform_flow_has_fixed_architecture(figure1_traces):
    platform = figure1_traces[1]
    assert platform.num_pes == 4
    assert platform.die_area_mm2 == pytest.approx(24.0 * 6.0)


def test_benchmark_figure1(benchmark, figure1_traces):
    """Time the platform leg of the Figure-1 demonstration."""
    from repro.flow import platform_spec, run_flow

    benchmark(run_flow, platform_spec("Bm1", policy="thermal"))
