"""Tests for HotSpot-in-the-loop scheduler construction and the CLI."""

import subprocess
import sys

import pytest

from repro.core.heuristics import BaselinePolicy, ThermalPolicy
from repro.core.thermal_loop import hotspot_for, thermal_scheduler
from repro.errors import ThermalError
from repro.floorplan.geometry import Floorplan
from repro.floorplan.platform import platform_floorplan
from repro.library.presets import default_platform


class TestHotspotFor:
    def test_default_floorplan_is_platform_layout(self, platform4):
        model = hotspot_for(platform4)
        reference = platform_floorplan(platform4)
        assert model.block_names == reference.block_names()

    def test_explicit_floorplan_used(self, platform4):
        plan = Floorplan()
        x = 0.0
        for pe in platform4:
            plan.place(pe.name, x, 0.0, 7.0, 7.0)  # custom oversized blocks
            x += 7.0
        model = hotspot_for(platform4, floorplan=plan)
        assert model.floorplan is plan

    def test_missing_pe_block_rejected(self, platform4):
        plan = Floorplan()
        plan.place("pe0", 0, 0, 6, 6)  # only one of four PEs
        with pytest.raises(ThermalError, match="lacks blocks"):
            hotspot_for(platform4, floorplan=plan)

    def test_custom_package(self, platform4):
        from repro.thermal.package import PackageConfig

        package = PackageConfig(convection_resistance=4.0)
        model = hotspot_for(platform4, package=package)
        hot = model.peak_temperature({"pe0": 10.0})
        default_hot = hotspot_for(platform4).peak_temperature({"pe0": 10.0})
        assert hot > default_hot  # worse cooling = hotter


class TestThermalScheduler:
    def test_runs_all_policy_kinds(self, bm1, bm1_library, platform4):
        scheduler = thermal_scheduler(bm1, platform4, bm1_library)
        for policy in (BaselinePolicy(), ThermalPolicy()):
            schedule = scheduler.run(policy)
            schedule.validate(bm1_library)

    def test_scheduler_reusable_across_policies(self, bm1, bm1_library, platform4):
        scheduler = thermal_scheduler(bm1, platform4, bm1_library)
        first = scheduler.run(ThermalPolicy())
        second = scheduler.run(ThermalPolicy())
        assert [(a.task, a.pe) for a in first.assignments()] == [
            (a.task, a.pe) for a in second.assignments()
        ]


class TestCLI:
    def test_module_entry_point_runs_one_experiment(self, paper_bm1_store):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "results", "report", "table3",
             "--store", str(paper_bm1_store)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0
        assert "Table 3" in completed.stdout
        assert "thermal_aware" in completed.stdout

    def test_runner_rejects_unknown_experiment(self, paper_bm1_runs):
        from repro.errors import FlowError
        from repro.results import analyze

        with pytest.raises(FlowError, match="unknown analyzer"):
            analyze("nonexistent", paper_bm1_runs)

    def test_runner_main_returns_zero(self, paper_bm1_store, capsys):
        from repro.cli import main

        assert main(["results", "report", "table3",
                     "--store", str(paper_bm1_store)]) == 0
        captured = capsys.readouterr()
        assert "Table 3" in captured.out
