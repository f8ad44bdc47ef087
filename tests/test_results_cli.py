"""The ``results`` CLI subcommands and the --store wiring.

The acceptance-criteria tests live here: a stored ``paper-tables`` run
must reproduce the paper Tables 1-3 byte for byte against the committed
golden reports (tests/golden/) through the store alone — no flow
re-execution.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.results import ResultStore, RunSet, analyze


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A store populated through the real CLI (sweep --store)."""
    path = tmp_path_factory.mktemp("results-cli") / "store"
    code = main([
        "sweep", "--benchmarks", "Bm1", "Bm2",
        "--policies", "heuristic3", "thermal",
        "--store", str(path),
    ])
    assert code == 0
    return path


class TestStoreWiring:
    def test_run_store_appends_one_record(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main(["run", "--benchmark", "Bm1", "--policy", "baseline",
                     "--store", str(path)]) == 0
        capsys.readouterr()
        runs = ResultStore(path).load()
        assert len(runs) == 1
        assert runs[0].get("spec.policy.name") == "baseline"

    def test_scenarios_run_tags_suite(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main(["scenarios", "run", "scaling-stress",
                     "--set", "graph.tasks=8", "--set", "graph.seed=1",
                     "--set", "architecture.count=2",
                     "--store", str(path)]) == 0
        capsys.readouterr()
        runs = ResultStore(path).load(suite="scaling-stress")
        assert len(runs) == 1

    def test_run_json_has_no_stringified_values(self, capsys):
        """default=str is gone: the payload parses and temperatures are
        real numbers, not their str() renderings."""
        assert main(["run", "--benchmark", "Bm1", "--policy", "thermal",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload["metrics"]["max_temperature"], float)
        assert isinstance(payload["row"]["max_temp"], float)
        assert payload["schema_version"] == 2


class TestResultsCommands:
    def test_list_table_and_json(self, store_dir, capsys):
        assert main(["results", "list", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out and "heuristic3" in out
        assert main(["results", "list", "--store", str(store_dir),
                     "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["id"].split("-")[0] for e in entries] == [
            "r000000", "r000001", "r000002", "r000003",
        ]

    def test_list_filters(self, store_dir, capsys):
        assert main(["results", "list", "--store", str(store_dir),
                     "--flow", "cosynthesis", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_show_by_prefix(self, store_dir, capsys):
        assert main(["results", "show", "r000001",
                     "--store", str(store_dir)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["metrics"]["benchmark"] == "Bm1"

    def test_show_unknown_exits_2(self, store_dir, capsys):
        assert main(["results", "show", "zzz",
                     "--store", str(store_dir)]) == 2
        assert "no record" in capsys.readouterr().err

    def test_export_csv_is_deterministic(self, store_dir, capsys):
        assert main(["results", "export", "--store", str(store_dir),
                     "--format", "csv"]) == 0
        first = capsys.readouterr().out
        assert main(["results", "export", "--store", str(store_dir),
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[0].startswith("benchmark,architecture,policy")
        assert len(first.splitlines()) == 5

    def test_export_to_file(self, store_dir, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["results", "export", "--store", str(store_dir),
                     "--format", "csv", "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().startswith("benchmark,")

    def test_report_summary_exit_0(self, store_dir, capsys):
        assert main(["results", "report", "summary",
                     "--store", str(store_dir)]) == 0
        assert "4 runs" in capsys.readouterr().out

    def test_report_with_options(self, store_dir, capsys):
        assert main(["results", "report", "compare",
                     "--store", str(store_dir),
                     "--opt", "baseline=heuristic3",
                     "--opt", "metric=avg_temperature"]) == 0
        assert "thermal" in capsys.readouterr().out

    def test_report_unknown_analyzer_exits_2(self, store_dir, capsys):
        assert main(["results", "report", "gizmo",
                     "--store", str(store_dir)]) == 2
        assert "unknown analyzer" in capsys.readouterr().err

    def test_results_help_without_action(self, capsys):
        assert main(["results"]) == 0
        out = capsys.readouterr().out
        for action in ("list", "show", "export", "report"):
            assert action in out


GOLDEN = Path(__file__).parent / "golden"


def _report_without_scheduling(name, runs):
    """Render analyzer *name* over *runs*, counting scheduler runs."""
    import repro.core.scheduler as scheduler_module

    calls = {"n": 0}
    original = scheduler_module.ListScheduler.run

    def counting_run(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    scheduler_module.ListScheduler.run = counting_run
    try:
        text = analyze(name, runs).render()
    finally:
        scheduler_module.ListScheduler.run = original
    return text, calls["n"]


class TestStoreReproducesLegacyTables:
    """The golden files are the Bm1 reports of the table functions these
    analyzers replaced; the store must reproduce them byte for byte."""

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_cosynthesis_tables_byte_identical_from_store_alone(
        self, name, paper_bm1_runs
    ):
        text, scheduler_runs = _report_without_scheduling(name, paper_bm1_runs)
        assert scheduler_runs == 0  # reconstruction never re-executes a flow
        assert text == (GOLDEN / f"{name}_Bm1.txt").read_text(encoding="utf-8")

    def test_table3_byte_identical_from_store_alone(self, paper_bm1_runs):
        text, scheduler_runs = _report_without_scheduling("table3", paper_bm1_runs)
        assert scheduler_runs == 0
        assert text == (GOLDEN / "table3_Bm1.txt").read_text(encoding="utf-8")

    def test_missing_record_raises_a_named_gap(self, paper_bm1_runs, tmp_path):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="Table 3 row"):
            analyze("table3", ResultStore(tmp_path / "empty").load())
        # drop one stored row: the report names exactly that gap
        thermal = [
            r for r in paper_bm1_runs
            if r.flow == "platform" and r.get("spec.policy.name") == "thermal"
        ]
        partial = RunSet(tuple(r for r in paper_bm1_runs if r not in thermal))
        with pytest.raises(ExperimentError,
                           match=r"Table 3 row \(Bm1, thermal_aware\)"):
            analyze("table3", partial)

    def test_paper_reports_through_cli(self, paper_bm1_store, capsys):
        for name in ("table1", "table2", "table3", "figure1"):
            assert main(["results", "report", name,
                         "--store", str(paper_bm1_store)]) == 0
            assert capsys.readouterr().out.strip()
