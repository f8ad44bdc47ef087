"""The Flow facade: equivalence with the hand-wired lower layers, registries,
post-passes, and the acceptance round-trip (spec -> json -> spec -> run).
"""

import pytest

from repro import (
    benchmark,
    library_for_graph,
    policy_by_name,
)
from repro.analysis.metrics import evaluate_schedule
from repro.core.scheduler import ListScheduler
from repro.cosynth.framework import CoSynthesisConfig, CoSynthesisFramework
from repro.errors import FlowError, SchedulingError
from repro.extensions.dvfs import reclaim_slack
from repro.floorplan.platform import platform_floorplan
from repro.flow import (
    ArchitectureSpec,
    ConditionalSpec,
    DVFSSpec,
    Flow,
    FloorplanSpec,
    FlowSpec,
    GraphSourceSpec,
    LeakageSpec,
    PolicySpec,
    ThermalSpec,
    cosynthesis_spec,
    platform_spec,
    register_flow,
    run_flow,
)
from repro.flow.registry import FLOWS, Registry
from repro.floorplan.genetic import GeneticConfig
from repro.library.presets import default_platform
from repro.thermal.hotspot import HotSpotModel

FAST = CoSynthesisConfig(
    max_pes=3,
    screening_keep=2,
    refine_iterations=1,
    genetic_config=GeneticConfig(population_size=8, generations=4),
)


def round_trip(spec: FlowSpec) -> FlowSpec:
    return FlowSpec.from_json(spec.to_json())


@pytest.fixture(scope="module")
def bm1():
    graph = benchmark("Bm1")
    return graph, library_for_graph(graph)


def reference_platform_run(graph, library, policy_name, architecture=None):
    """Figure 1b wired by hand from the lower layers: the reference the
    ``platform`` flow runner must reproduce exactly.

    Returns ``(schedule, evaluation)``.
    """
    arch = architecture or default_platform()
    hotspot = HotSpotModel(platform_floorplan(arch))
    scheduler = ListScheduler(graph, arch, library, thermal=hotspot)
    schedule = scheduler.run(policy_by_name(policy_name))
    return schedule, evaluate_schedule(schedule, hotspot=hotspot)


#: The policies of the paper's Tables 1 and 3.
TABLE_POLICIES = ("baseline", "heuristic1", "heuristic2", "heuristic3", "thermal")


class TestPlatformEquivalence:
    """Acceptance: byte-identical evaluations vs the hand-wired reference."""

    @pytest.mark.parametrize("policy", TABLE_POLICIES)
    def test_platform_flow_equivalence_bm1(self, bm1, policy):
        graph, library = bm1
        schedule, evaluation = reference_platform_run(graph, library, policy)
        result = Flow().run(round_trip(platform_spec("Bm1", policy=policy)))
        assert result.evaluation == evaluation
        assert result.schedule.makespan == schedule.makespan

    @pytest.mark.parametrize("name", ["Bm2", "Bm3", "Bm4"])
    def test_platform_flow_equivalence_suite(self, name):
        graph = benchmark(name)
        library = library_for_graph(graph)
        for policy in TABLE_POLICIES:
            schedule, evaluation = reference_platform_run(graph, library, policy)
            result = run_flow(round_trip(platform_spec(name, policy=policy)))
            assert result.evaluation == evaluation, policy
            assert result.schedule.makespan == schedule.makespan, policy

    def test_platform_flow_equivalence_two_pes(self, bm1):
        graph, library = bm1
        schedule, evaluation = reference_platform_run(
            graph, library, "thermal",
            architecture=default_platform(count=2, name="platform2"),
        )
        spec = platform_spec(
            "Bm1", policy="thermal",
            architecture=ArchitectureSpec(name="platform2", count=2),
        )
        result = run_flow(round_trip(spec))
        assert result.evaluation == evaluation
        assert result.architecture.name == "platform2"
        assert len(result.architecture) == 2

    def test_result_carries_provenance_and_timings(self):
        result = run_flow(platform_spec("Bm1", policy="heuristic3"))
        assert result.provenance["flow"] == "platform"
        assert len(result.provenance["spec_hash"]) == 20
        assert set(result.timings) >= {"build", "run"}
        assert result.diagnostics["hotspot_queries"] >= 0
        row = result.as_row()
        assert row["flow"] == "platform"
        assert row["benchmark"] == "Bm1"


class TestCosynthesisEquivalence:
    def test_cosynthesis_equivalence_fast(self, bm1):
        graph, library = bm1
        legacy = CoSynthesisFramework(config=FAST).run(
            graph, library, policy_by_name("heuristic3")
        )
        spec = cosynthesis_spec("Bm1", policy="heuristic3", config=FAST)
        result = run_flow(round_trip(spec))
        assert result.evaluation == legacy.evaluation
        assert result.architecture.name == legacy.architecture.name
        assert (
            result.diagnostics["candidates_screened"] == legacy.candidates_screened
        )

    def test_cosynthesis_rejects_shared_bus(self):
        from repro.flow.spec import CommSpec

        spec = cosynthesis_spec("Bm1", config=FAST).with_(
            comm=CommSpec(kind="shared-bus")
        )
        with pytest.raises(FlowError):
            run_flow(spec)

    def test_cosynthesis_honours_every_genetic_knob(self, bm1):
        """A mutated GA config must change what actually runs (nothing
        silently dropped), and stay identical to the legacy path."""
        graph, library = bm1
        tweaked = CoSynthesisConfig(
            max_pes=3,
            screening_keep=2,
            refine_iterations=1,
            genetic_config=GeneticConfig(
                population_size=8, generations=4, mutation_rate=0.9,
                elite_count=4,
            ),
        )
        legacy = CoSynthesisFramework(config=tweaked).run(
            graph, library, policy_by_name("thermal")
        )
        facade = run_flow(
            round_trip(cosynthesis_spec("Bm1", policy="thermal", config=tweaked))
        )
        assert facade.evaluation == legacy.evaluation

    def test_cosynthesis_rejects_unsupported_settings(self):
        with pytest.raises(FlowError):
            run_flow(
                cosynthesis_spec("Bm1", config=FAST).with_(
                    thermal=ThermalSpec(solver="gridmodel")
                )
            )
        with pytest.raises(FlowError):
            run_flow(
                cosynthesis_spec("Bm1", config=FAST).with_(
                    architecture=ArchitectureSpec(count=2)
                )
            )
        with pytest.raises(FlowError):
            run_flow(
                cosynthesis_spec("Bm1", config=FAST).with_(
                    floorplan=FloorplanSpec(kind="annealing")
                )
            )


class TestPostPasses:
    def test_dvfs_pass_matches_legacy_reclaim(self, bm1):
        graph, library = bm1
        schedule, _ = reference_platform_run(graph, library, "thermal")
        legacy = reclaim_slack(schedule)
        result = run_flow(
            round_trip(
                platform_spec("Bm1", policy="thermal", dvfs=DVFSSpec(enabled=True))
            )
        )
        assert result.dvfs is not None
        assert result.dvfs.energy_after == pytest.approx(legacy.energy_after)
        assert result.dvfs.lowered_tasks == legacy.lowered_tasks
        assert result.schedule.makespan == pytest.approx(legacy.schedule.makespan)
        # the evaluation describes the retimed schedule
        assert result.evaluation.makespan == pytest.approx(legacy.schedule.makespan)

    def test_leakage_pass_produces_fixed_point(self):
        result = run_flow(
            platform_spec("Bm1", policy="thermal", leakage=LeakageSpec(enabled=True))
        )
        assert result.leakage is not None
        assert result.leakage.converged
        assert result.leakage.total_leakage > 0.0

    def test_conditional_flow_aggregates_scenarios(self):
        spec = FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(enabled=True),
        )
        result = run_flow(round_trip(spec))
        assert result.conditional is not None
        assert len(result.conditional.results) == 2
        assert result.schedule.makespan == pytest.approx(
            result.conditional.worst_makespan
        )

    def test_conditional_guard_override_changes_expectation(self):
        base = FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(enabled=True),
        )
        skewed = base.with_(
            conditional=ConditionalSpec(
                enabled=True,
                guard_probabilities=(
                    ("scene", "change", 0.9),
                    ("scene", "same", 0.1),
                ),
            )
        )
        a = run_flow(base).conditional.expected_total_power
        b = run_flow(skewed).conditional.expected_total_power
        assert a != pytest.approx(b)

    def test_partial_guard_override_rejected(self):
        from repro.errors import FlowSpecError

        spec = FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(
                enabled=True,
                guard_probabilities=(("scene", "change", 0.3),),
            ),
        )
        with pytest.raises(FlowSpecError) as err:
            run_flow(spec)
        assert "re-specify" in str(err.value)

    def test_unknown_guard_override_rejected(self):
        from repro.errors import FlowSpecError

        spec = FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(
                enabled=True,
                guard_probabilities=(("weather", "rain", 1.0),),
            ),
        )
        with pytest.raises(FlowSpecError):
            run_flow(spec)

    def test_conditional_flow_honours_comm_model(self):
        from repro.flow.spec import CommSpec

        base = FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(enabled=True),
        )
        bus = base.with_(comm=CommSpec(kind="shared-bus"))
        free = run_flow(base).conditional.worst_makespan
        charged = run_flow(bus).conditional.worst_makespan
        assert charged > free

    def test_dvfs_on_conditional_flow_rejected(self):
        # statically detectable, so it fails at spec construction — not
        # after the whole conditional flow has already run
        with pytest.raises(FlowError):
            FlowSpec(
                flow="platform",
                graph=GraphSourceSpec(kind="conditional", name="video-frame"),
                conditional=ConditionalSpec(enabled=True),
                dvfs=DVFSSpec(enabled=True),
            )


class TestRegistries:
    def test_unknown_flow_kind_rejected(self):
        with pytest.raises(FlowError) as err:
            run_flow(FlowSpec(flow="quantum"))
        assert "platform" in str(err.value)

    def test_unknown_policy_keeps_scheduling_error_shape(self):
        with pytest.raises(SchedulingError):
            run_flow(platform_spec("Bm1", policy="voodoo"))

    def test_unknown_floorplanner_rejected(self):
        spec = platform_spec("Bm1").with_(floorplan=FloorplanSpec(kind="origami"))
        with pytest.raises(FlowError):
            run_flow(spec)

    def test_unknown_thermal_solver_rejected(self):
        spec = platform_spec("Bm1").with_(thermal=ThermalSpec(solver="icecube"))
        with pytest.raises(FlowError):
            run_flow(spec)

    def test_gridmodel_solver_runs(self):
        spec = platform_spec("Bm1", policy="thermal").with_(
            thermal=ThermalSpec(solver="gridmodel")
        )
        result = run_flow(spec)
        assert result.evaluation.max_temperature >= result.evaluation.avg_temperature
        assert result.diagnostics["hotspot_queries"] > 0

    def test_register_custom_flow(self):
        name = "echo-test-flow"

        def runner(spec, graph, library):
            # piggyback on the platform runner, then tag the outcome
            outcome = FLOWS.get("platform")(spec, graph, library)
            outcome.diagnostics["echo"] = True
            return outcome

        if name not in FLOWS:
            register_flow(name, runner)
        result = run_flow(platform_spec("Bm1").with_(flow=name))
        assert result.diagnostics["echo"] is True

    def test_registry_rejects_silent_shadowing(self):
        registry = Registry("thing")
        registry.register("a", lambda: 1)
        with pytest.raises(FlowError):
            registry.register("a", lambda: 2)

    def test_policy_weight_and_params_flow_through(self):
        result = run_flow(
            platform_spec("Bm1").with_(
                policy=PolicySpec(name="thermal-hybrid", weight=5.0, peak_fraction=1.0)
            )
        )
        assert result.evaluation.policy == "thermal-hybrid"

    def test_run_rejects_non_spec(self):
        with pytest.raises(FlowError):
            Flow().run({"flow": "platform"})


class TestAmbientOverride:
    def test_ambient_shifts_temperatures(self):
        cool = run_flow(platform_spec("Bm1", policy="heuristic3"))
        hot = run_flow(
            platform_spec("Bm1", policy="heuristic3").with_(
                thermal=ThermalSpec(ambient_c=60.0)
            )
        )
        assert hot.evaluation.max_temperature > cool.evaluation.max_temperature
