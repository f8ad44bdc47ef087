"""Tests for the DSE driver: determinism, checkpointing, resume."""

import json

import pytest

from repro.dse import (
    DseConfig,
    ParetoArchive,
    build_strategy,
    run_dse,
    strategy_names,
    trajectory_line,
)
from repro.dse.driver import DSE_SUITE
from repro.dse.evaluate import EvaluatedCandidate, OBJECTIVE_NAMES
from repro.dse.strategies import STRATEGIES, StrategyContext, scalar_cost
from repro.errors import DseError
from repro.results.store import ResultStore

SMALL = dict(
    benchmark="Bm1",
    seed=7,
    generations=2,
    population=3,
    policies=("thermal", "heuristic3"),
    dvfs_options=(False,),
)


def run_files(out_dir):
    return {
        name: (out_dir / name).read_bytes()
        for name in ("archive.json", "trajectory.jsonl", "state.json")
    }


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
class TestDseConfig:
    def test_round_trip(self):
        config = DseConfig(strategy="greedy", **SMALL)
        assert DseConfig.from_dict(config.to_dict()) == config

    def test_unknown_strategy_is_rejected_at_build(self):
        from repro.errors import FlowError

        with pytest.raises(FlowError, match="dse strategy"):
            build_strategy(
                "gradient-descent", StrategyContext(seed=0, population=2)
            )

    def test_empty_axes_rejected(self):
        with pytest.raises(DseError):
            DseConfig(policies=())

    def test_registry_lists_all_strategies(self):
        assert list(strategy_names()) == [
            "random", "greedy", "annealing", "nsga2",
        ]
        for name in strategy_names():
            assert name in STRATEGIES


# ----------------------------------------------------------------------
# determinism / checkpoint / resume
# ----------------------------------------------------------------------
class TestRunDse:
    def test_same_seed_byte_identical(self, tmp_path):
        config = DseConfig(strategy="nsga2", **SMALL)
        result_a = run_dse(config, tmp_path / "a")
        result_b = run_dse(config, tmp_path / "b")
        assert run_files(tmp_path / "a") == run_files(tmp_path / "b")
        assert result_a.front == result_b.front
        assert result_a.evaluations == result_b.evaluations

    def test_kill_and_resume_byte_identical(self, tmp_path):
        config = DseConfig(strategy="nsga2", **SMALL)
        run_dse(config, tmp_path / "straight")
        reference = run_files(tmp_path / "straight")

        # "kill" after one generation, then resume to completion
        partial = run_dse(
            config, tmp_path / "resumed", stop_after_generations=1
        )
        assert partial.generations == 1
        assert json.loads(
            (tmp_path / "resumed" / "state.json").read_text()
        ) == {"generations": 1}
        resumed = run_dse(config, tmp_path / "resumed")
        assert resumed.generations == config.generations
        assert run_files(tmp_path / "resumed") == reference

    def test_resume_of_finished_run_replays_without_evaluating(self, tmp_path):
        config = DseConfig(strategy="greedy", **SMALL)
        first = run_dse(config, tmp_path / "run")
        replay = run_dse(config, tmp_path / "run")
        assert run_files(tmp_path / "run")["archive.json"]
        assert replay.front == first.front
        # replay served everything from the store: no new result records
        store = ResultStore(tmp_path / "run" / "store")
        hashes = {entry["spec_hash"] for entry in store.index(suite=DSE_SUITE)}
        assert len(hashes) == len(store.index(suite=DSE_SUITE))

    def test_config_mismatch_rejected(self, tmp_path):
        run_dse(
            DseConfig(strategy="random", **SMALL),
            tmp_path / "run",
            stop_after_generations=1,
        )
        with pytest.raises(DseError, match="config"):
            run_dse(DseConfig(strategy="greedy", **SMALL), tmp_path / "run")

    @pytest.mark.parametrize("strategy", ["random", "greedy", "annealing"])
    def test_every_strategy_is_deterministic(self, strategy, tmp_path):
        config = DseConfig(
            strategy=strategy,
            benchmark="Bm1",
            seed=3,
            generations=2,
            population=2,
            dvfs_options=(False,),
        )
        run_dse(config, tmp_path / "a")
        run_dse(config, tmp_path / "b")
        assert run_files(tmp_path / "a") == run_files(tmp_path / "b")

    def test_trajectory_and_archive_structure(self, tmp_path):
        config = DseConfig(strategy="random", **SMALL)
        result = run_dse(config, tmp_path / "run")
        lines = (
            (tmp_path / "run" / "trajectory.jsonl").read_text().splitlines()
        )
        assert len(lines) == config.generations * config.population
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {
                "candidate", "generation", "objectives", "slot", "spec_hash",
            }
            assert len(entry["objectives"]) == len(OBJECTIVE_NAMES)
            assert all(
                isinstance(v, float) for v in entry["objectives"]
            )
        payload = json.loads((tmp_path / "run" / "archive.json").read_text())
        assert payload["objectives"] == list(OBJECTIVE_NAMES)
        assert payload["generations"] == config.generations
        assert payload["evaluations"] == len(lines)
        assert payload["front"] == [
            entry.to_dict() for entry in result.front
        ]

    def test_thermal_stats_count_every_screen(self, tmp_path, monkeypatch):
        import repro.dse.driver as driver

        calls = []
        screen = driver.screen_placement

        def counting_screen(placement, stats):
            calls.append(placement)
            return screen(placement, stats)

        monkeypatch.setattr(driver, "screen_placement", counting_screen)
        config = DseConfig(strategy="nsga2", **SMALL)
        result = run_dse(config, tmp_path / "run")
        assert len(calls) > 0
        assert result.thermal_stats == {"full_rebuilds": len(calls)}


# ----------------------------------------------------------------------
# archive mechanics
# ----------------------------------------------------------------------
def make_evaluated(slot, makespan, peak, energy):
    candidate = {
        "benchmark": "Bm1", "catalogue": "default", "pe": None, "count": 1,
        "policy": "thermal", "dvfs": False,
        "placement": [["pe0", 0.0, 0.0, 2.0, 2.0]],
    }
    return EvaluatedCandidate.from_dict({
        "candidate": candidate,
        "spec_hash": f"hash{slot}",
        "objectives": [makespan, peak, energy],
        "generation": 0,
        "slot": slot,
    })


class TestParetoArchive:
    def test_front_drops_dominated_keeps_order(self):
        archive = ParetoArchive()
        archive.extend([
            make_evaluated(0, 10.0, 80.0, 5.0),
            make_evaluated(1, 12.0, 90.0, 6.0),   # dominated by slot 0
            make_evaluated(2, 8.0, 95.0, 5.5),    # trade-off: survives
        ])
        front = archive.front()
        assert [entry.slot for entry in front] == [0, 2]

    def test_trajectory_line_is_sorted_and_compact(self):
        entry = make_evaluated(0, 10.0, 80.0, 5.0)
        line = trajectory_line(entry)
        assert json.loads(line) == entry.to_dict()
        assert line.index('"candidate"') < line.index('"spec_hash"')

    def test_scalar_cost_is_objective_product(self):
        assert scalar_cost((2.0, 3.0, 4.0)) == pytest.approx(24.0)
