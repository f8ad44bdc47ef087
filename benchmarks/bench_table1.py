"""Benchmark: regenerate Table 1 (power-heuristic comparison).

Paper rows: for each benchmark Bm1–Bm4 and each of {baseline, heuristic 1,
heuristic 2, heuristic 3}, the total power / max temp / avg temp under (a)
co-synthesis and (b) the four-PE platform.

Expected shape (not absolute numbers): heuristic 3 is the best power
heuristic on temperature in the co-synthesis architecture, and no power
heuristic beats the baseline by much on the homogeneous platform (identical
PEs make per-task power terms selection-only).  Run with ``-s`` to see the
full measured-vs-paper table.
"""

from __future__ import annotations

import pytest

from repro.flow import run_many
from repro.results import paper_specs

from conftest import paper_report, print_report


@pytest.fixture(scope="module")
def table1_rows():
    report = paper_report("table1", paper_specs("table1"))
    print_report("Table 1 (measured vs paper)", report.render())
    return report.rows


def test_table1_platform_rows_meet_deadlines(table1_rows):
    platform_rows = [r for r in table1_rows if r["architecture"] == "platform"]
    assert len(platform_rows) == 16
    assert all(r["meets_deadline"] for r in platform_rows)


def test_table1_cosynthesis_h3_beats_h1_and_baseline(table1_rows):
    """The paper's Table-1 conclusion, in its substrate-robust form.

    The paper finds heuristic 3 (task energy) the best power heuristic.  In
    our substrate H3 dominates H1 and the baseline on most benchmarks, but
    H2 (cumulative PE power) is sometimes competitive — the H2-vs-H3
    ordering is sensitive to the unpublished technology library, so we
    assert the robust part: H3 <= H1 and H3 <= baseline on >= 3 of 4
    benchmarks (avg temperature).  EXPERIMENTS.md discusses the H2 case.
    """
    rows = [r for r in table1_rows if r["architecture"] == "co-synthesis"]
    by_bm = {}
    for row in rows:
        by_bm.setdefault(row["benchmark"], {})[row["policy"]] = row
    beats_h1 = sum(
        1
        for policies in by_bm.values()
        if policies["heuristic3"]["avg_temp"]
        <= policies["heuristic1"]["avg_temp"] + 1e-9
    )
    beats_baseline = sum(
        1
        for policies in by_bm.values()
        if policies["heuristic3"]["avg_temp"]
        <= policies["baseline"]["avg_temp"] + 1e-9
    )
    assert beats_h1 >= 3
    assert beats_baseline >= 3


def test_table1_heuristics_not_hotter_than_baseline_on_average(table1_rows):
    rows = [r for r in table1_rows if r["architecture"] == "co-synthesis"]
    baseline = [r["avg_temp"] for r in rows if r["policy"] == "baseline"]
    h3 = [r["avg_temp"] for r in rows if r["policy"] == "heuristic3"]
    assert sum(h3) <= sum(baseline) + 1e-9


def test_benchmark_table1(benchmark, table1_rows):
    """Time one platform-side Table-1 regeneration (Bm1, all policies).

    Depending on the ``table1_rows`` fixture makes ``--benchmark-only``
    runs still produce the full measured-vs-paper report.
    """
    specs = [s for s in paper_specs("table1", ["Bm1"]) if s.flow == "platform"]
    benchmark(run_many, specs)
