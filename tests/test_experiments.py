"""The paper's experiments: Tables 1–3 and Figure 1 as result analyzers.

Every artefact is reported from stored records of the ``paper-tables``
suite.  Tables 1/2 and Figure 1 read the session's stored Bm1 slice;
Table 3 runs on the (fast) platform flow, so its full four-benchmark
shape is checked here too.
"""

import pytest

from repro.errors import FlowError
from repro.flow import GraphSourceSpec, LibrarySpec, platform_spec, run_many
from repro.results import RunSet, analyze, analyzer_names, paper_specs
from repro.results.paper import TABLE1_POLICIES, temperature_reductions
from repro.scenarios.workloads import build_workload
from repro.taskgraph.benchmarks import BENCHMARK_NAMES


def _workload(name):
    return build_workload(GraphSourceSpec(kind="benchmark", name=name), LibrarySpec())


@pytest.fixture(scope="module")
def table3_full():
    """Table 3 over all four benchmarks, from freshly run records."""
    results = run_many(paper_specs("table3"))
    return analyze("table3", RunSet(tuple(r.as_record() for r in results)))


class TestWorkloads:
    def test_names_match_paper(self):
        assert list(BENCHMARK_NAMES) == ["Bm1", "Bm2", "Bm3", "Bm4"]

    def test_workload_cached(self):
        assert _workload("Bm1")[0] is _workload("Bm1")[0]

    def test_all_workloads_cover_suite(self):
        loads = [_workload(name) for name in BENCHMARK_NAMES]
        assert [g.name for g, _ in loads] == list(BENCHMARK_NAMES)

    def test_library_covers_graph(self):
        graph, library = _workload("Bm3")
        types = {t.task_type for t in graph}
        assert types <= set(library.task_types())


class TestTable1:
    def test_platform_rows_structure(self, paper_bm1_runs):
        rows = [
            r for r in analyze("table1", paper_bm1_runs).rows
            if r["architecture"] == "platform"
        ]
        assert [r["policy"] for r in rows] == list(TABLE1_POLICIES)
        for row in rows:
            assert row["meets_deadline"]
            assert row["max_temp"] >= row["avg_temp"]
            assert "paper_max_temp" in row

    def test_cosynthesis_rows_structure(self, paper_bm1_runs):
        rows = analyze("table1", paper_bm1_runs).rows
        cosynthesis = [r for r in rows if r["architecture"] == "co-synthesis"]
        assert len(rows) == 2 * len(TABLE1_POLICIES)
        assert [r["policy"] for r in cosynthesis] == list(TABLE1_POLICIES)

    def test_format_contains_paper_columns(self, paper_bm1_runs):
        text = analyze("table1", paper_bm1_runs).render()
        assert "Table 1" in text
        assert "paper_max_temp" in text


class TestTable2:
    def test_rows_and_reductions(self, paper_bm1_runs):
        rows = analyze("table2", paper_bm1_runs).rows
        assert len(rows) == 2
        approaches = {r["approach"] for r in rows}
        assert approaches == {"power_aware", "thermal_aware"}
        reductions = temperature_reductions(rows)
        assert set(reductions) == {"max_temp_reduction", "avg_temp_reduction"}

    def test_format_mentions_paper_targets(self, paper_bm1_runs):
        text = analyze("table2", paper_bm1_runs).render()
        assert "10.9" in text and "6.95" in text


class TestTable3:
    def test_thermal_shape_on_full_suite(self, table3_full):
        """The paper's Table 3 shape must hold on the whole suite."""
        rows = table3_full.rows
        assert len(rows) == 8
        reductions = temperature_reductions(rows)
        assert reductions["max_temp_reduction"] > 0.0
        assert reductions["avg_temp_reduction"] > 0.0
        for row in rows:
            assert row["meets_deadline"]

    def test_thermal_cooler_per_benchmark(self, table3_full):
        by_benchmark = {}
        for row in table3_full.rows:
            by_benchmark.setdefault(row["benchmark"], {})[row["approach"]] = row
        assert list(by_benchmark) == list(BENCHMARK_NAMES)
        for name, pair in by_benchmark.items():
            assert (
                pair["thermal_aware"]["avg_temp"] <= pair["power_aware"]["avg_temp"]
            ), name

    def test_thermal_weight_override(self):
        power, thermal = run_many([
            platform_spec("Bm1", policy="heuristic3"),
            platform_spec("Bm1", policy="thermal", weight=0.0),
        ])
        # with zero weight the thermal policy degenerates: no reduction
        assert (
            thermal.evaluation.avg_temperature
            >= power.evaluation.avg_temperature - 3.0
        )

    def test_format_mentions_paper_targets(self, paper_bm1_runs):
        text = analyze("table3", paper_bm1_runs).render()
        assert "9.75" in text and "5.02" in text


class TestFigure1:
    def test_both_flows_traced(self, paper_bm1_runs):
        report = analyze("figure1", paper_bm1_runs)
        assert [r["flow"] for r in report.rows] == ["co-synthesis", "platform"]
        for row in report.rows:
            assert row["pes"] >= 1
            assert row["meets_requirement"]
        assert "[co-synthesis] Bm1 stages:" in report.notes
        assert "[platform] Bm1 stages:" in report.notes

    def test_platform_flow_uses_four_pes(self, paper_bm1_runs):
        rows = analyze("figure1", paper_bm1_runs).rows
        platform = [r for r in rows if r["flow"] == "platform"][0]
        assert platform["pes"] == 4

    def test_format_lists_stages(self, paper_bm1_runs):
        text = analyze("figure1", paper_bm1_runs).render()
        assert "meets requirement" in text
        assert "HotSpot" in text
        assert "screened 121 allocations" in text


class TestRunner:
    def test_registry_covers_all_artefacts(self):
        assert {"table1", "table2", "table3", "figure1"} <= set(analyzer_names())

    def test_unknown_experiment_rejected(self, paper_bm1_runs):
        with pytest.raises(FlowError, match="unknown analyzer"):
            analyze("table9", paper_bm1_runs)

    def test_run_experiment_formats(self, paper_bm1_runs):
        text = analyze("table3", paper_bm1_runs).render()
        assert "Table 3" in text
