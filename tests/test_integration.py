"""Cross-module integration tests: the full pipeline, end to end."""

import pytest

from repro import (
    GraphSpec,
    HotSpotModel,
    default_platform,
    evaluate_schedule,
    generate_task_graph,
    generate_technology_library,
    platform_floorplan,
    platform_spec,
    register_workload,
    registered_source,
    run_flow,
    schedule_graph,
)
from repro.analysis.compare import spearman_rank_correlation
from repro.thermal.gridmodel import GridModel

#: Registry name of the custom workload; unique to this module.
CUSTOM_WORKLOAD = "test-integration-custom"


def _custom_workload():
    """A workload built through the public API only (no presets)."""
    spec = GraphSpec("custom", num_tasks=24, num_edges=29, deadline=1400.0)
    graph = generate_task_graph(spec, seed=77)
    task_types = sorted({t.task_type for t in graph})
    library = generate_technology_library(task_types, seed=78)
    return graph, library


register_workload(CUSTOM_WORKLOAD, _custom_workload)


@pytest.fixture(scope="module")
def custom_workload():
    return _custom_workload()


def platform_run(policy: str):
    """The platform flow (Figure 1b) on the registered custom workload."""
    return run_flow(
        platform_spec(policy=policy, graph=registered_source(CUSTOM_WORKLOAD))
    )


class TestFullPipeline:
    def test_schedule_trace_transient_chain(self, custom_workload):
        """Schedule -> power trace -> transient replay, all consistent."""
        graph, library = custom_workload
        platform = default_platform()
        schedule = schedule_graph(graph, platform, library)
        schedule.validate(library)

        trace = schedule.power_trace()
        assert trace.span == pytest.approx(schedule.makespan)
        assert sum(trace.average_powers().values()) == pytest.approx(
            schedule.total_average_power
        )

        plan = platform_floorplan(platform)
        model = HotSpotModel(plan)
        # replay at 1 time unit = 1 ms; long tail so it settles
        segments = trace.segments(time_scale=1e-3)
        result = model.transient(segments, dt=0.05)
        assert result.times[-1] == pytest.approx(
            schedule.makespan * 1e-3, rel=1e-6
        )
        peak = result.peak_of(model.block_names)
        steady_peak = model.peak_temperature(schedule.average_powers())
        # a transient replay of bursty power exceeds the average-power
        # steady state at the hot moments, but not absurdly
        assert peak < steady_peak + 40.0
        assert peak > model.package.ambient_c

    def test_policies_rank_consistently_between_models(self):
        """Block-model policy ranking agrees with the grid model's."""
        platform = default_platform()
        plan = platform_floorplan(platform)
        grid = GridModel(plan, rows=4, cols=16)

        block_peaks, grid_peaks = [], []
        for policy in ("baseline", "heuristic3", "thermal"):
            result = platform_run(policy)
            powers = result.schedule.average_powers()
            block_peaks.append(result.evaluation.max_temperature)
            grid_peaks.append(max(grid.block_temperatures(powers).values()))
        assert spearman_rank_correlation(block_peaks, grid_peaks) > 0.4

    def test_evaluation_matches_scheduler_objective(self):
        """What the thermal policy optimised is what evaluation reports."""
        result = platform_run("thermal")
        direct = evaluate_schedule(
            result.schedule, floorplan=result.floorplan
        )
        assert direct.avg_temperature == pytest.approx(
            result.evaluation.avg_temperature
        )

    def test_deadline_tightening_eventually_infeasible(self, custom_workload):
        """Tightening deadlines flips meets_deadline exactly once."""
        graph, library = custom_workload
        platform = default_platform()
        schedule = schedule_graph(graph, platform, library)
        feasible_at = schedule.makespan
        loose = graph.with_deadline(feasible_at * 1.01)
        tight = graph.with_deadline(feasible_at * 0.5)
        assert schedule_graph(loose, platform, library).meets_deadline
        assert not schedule_graph(tight, platform, library).meets_deadline

    def test_thermal_policy_flattens_spatial_gradient(self):
        """The 'thermally even distribution' claim, measured on the grid."""
        baseline = platform_run("baseline")
        thermal = platform_run("thermal")

        def spread(result):
            temps = result.evaluation.pe_temperatures
            return max(temps.values()) - min(temps.values())

        assert spread(thermal) <= spread(baseline) + 1e-9
