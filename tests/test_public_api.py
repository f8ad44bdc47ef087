"""Contract tests for the top-level public API surface."""

import importlib
import pkgutil

import pytest

import repro


def test_all_names_resolve():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_version_is_semver_ish():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_no_private_names_exported():
    private = [n for n in repro.__all__ if n.startswith("_") and n != "__version__"]
    assert private == ["__version__"] or private == []


def test_every_subpackage_importable():
    for module_info in pkgutil.iter_modules(repro.__path__):
        importlib.import_module(f"repro.{module_info.name}")


def test_subpackage_alls_resolve():
    for package_name in (
        "taskgraph",
        "library",
        "power",
        "thermal",
        "floorplan",
        "core",
        "cosynth",
        "analysis",
        "experiments",
        "extensions",
    ):
        module = importlib.import_module(f"repro.{package_name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"repro.{package_name}: {missing}"


def test_docstrings_on_public_callables():
    """Deliverable (e): every public item carries documentation."""
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name, None)
        if callable(obj) and not isinstance(obj, type(repro)):
            if not getattr(obj, "__doc__", None):
                undocumented.append(name)
    assert undocumented == []


def test_errors_module_documented():
    from repro import errors

    for name in errors.__all__:
        assert getattr(errors, name).__doc__, name


#: Symbols the pre-flow API exported; they must all keep importing.
LEGACY_SURFACE = [
    "CoSynthesisFramework",
    "reclaim_slack",
    "schedule_conditional",
    "policy_by_name",
    "POLICY_NAMES",
    "CoSynthesisResult",
    "DVFSResult",
    "explore_allocations",
    "pareto_front",
]


def test_legacy_surface_still_exported():
    missing = [name for name in LEGACY_SURFACE if not hasattr(repro, name)]
    assert missing == []
    assert set(LEGACY_SURFACE) <= set(repro.__all__)


class TestLegacyWrappersMatchFacade:
    """The pre-flow entry points that stay public == flow facade on Bm1."""

    @pytest.fixture(scope="class")
    def bm1(self):
        graph = repro.benchmark("Bm1")
        return graph, repro.library_for_graph(graph)

    def test_thermal_aware_cosynthesis_matches_facade(self, bm1):
        from repro.cosynth.cost import thermal_final_cost
        from repro.cosynth.framework import CoSynthesisConfig
        from repro.floorplan.genetic import GeneticConfig

        graph, library = bm1
        fast = CoSynthesisConfig(
            max_pes=3,
            screening_keep=2,
            refine_iterations=1,
            genetic_config=GeneticConfig(population_size=8, generations=4),
        )
        legacy = repro.CoSynthesisFramework(config=fast).run(
            graph, library, repro.ThermalPolicy(),
            final_cost=thermal_final_cost(),
        )
        facade = repro.run_flow(
            repro.cosynthesis_spec(
                "Bm1", policy="thermal", config=fast, final_cost="thermal"
            )
        )
        assert legacy.evaluation == facade.evaluation

    def test_schedule_conditional_matches_facade(self):
        ctg = repro.conditional_benchmark("video-frame")
        from repro.library.presets import (
            generate_technology_library,
            stable_library_seed,
        )

        library = generate_technology_library(
            sorted({t.task_type for t in ctg.tasks()}),
            seed=stable_library_seed(ctg.name),
            name=f"library-{ctg.name}",
        )
        architecture = repro.default_platform()
        floorplan = repro.platform_floorplan(architecture)
        legacy = repro.schedule_conditional(
            ctg, architecture, library, repro.ThermalPolicy(), floorplan=floorplan
        )
        facade = repro.run_flow(
            repro.FlowSpec(
                flow="platform",
                graph=repro.GraphSourceSpec(kind="conditional", name="video-frame"),
                conditional=repro.ConditionalSpec(enabled=True),
            )
        )
        assert facade.conditional is not None
        assert legacy.worst_makespan == pytest.approx(
            facade.conditional.worst_makespan
        )
        assert legacy.expected_total_power == pytest.approx(
            facade.conditional.expected_total_power
        )
