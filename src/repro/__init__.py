"""repro — thermal-aware task allocation and scheduling for embedded systems.

A complete, from-scratch reproduction of

    W.-L. Hung, Y. Xie, N. Vijaykrishnan, M. Kandemir, M. J. Irwin,
    "Thermal-Aware Task Allocation and Scheduling for Embedded Systems",
    DATE 2005,

including every substrate the paper depends on: TGFF-style task graphs,
technology libraries, a HotSpot-style compact thermal model, genetic /
annealing slicing floorplanners, the list-scheduling ASP with the paper's
power and thermal dynamic-criticality policies, and the co-synthesis /
platform design flows.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart — the declarative flow API (the primary public surface)::

    from repro import platform_spec, run_flow

    result = run_flow(platform_spec("Bm1", policy="thermal"))
    print(result.evaluation.as_row())

Specs are frozen, JSON-serializable descriptions of a whole run; batches
parallelise and cache::

    from repro import FlowSpec, run_many, cosynthesis_spec

    specs = [cosynthesis_spec(bm, policy=p)
             for bm in ("Bm1", "Bm2") for p in ("heuristic3", "thermal")]
    results = run_many(specs, workers=4, cache_dir=".flowcache")
    spec = FlowSpec.from_json(specs[0].to_json())   # round-trips exactly

Results leave the system through one typed path: ``result.as_record()``
flattens any run to a versioned, JSON-safe :class:`~repro.results.RunRecord`,
batches stream into an append-only :class:`~repro.results.ResultStore`
(``run_many(..., store=...)`` / :func:`~repro.results.run_to_store`), and
registered analyzers (``summary``, ``compare``, ``pareto``...) report over
the stored :class:`~repro.results.RunSet` — see docs/RESULTS.md.

Every layer is observable through :mod:`repro.obs` — hierarchical
spans, a metrics registry, Chrome-trace/Prometheus exporters — at zero
cost until a recorder is enabled (``repro trace record``, the serve
daemon's ``/metrics``, or ``repro.obs.capture()``); see
docs/OBSERVABILITY.md.

The same flows are scriptable from the shell (``python -m repro --help``:
``run`` / ``sweep`` / ``scenarios`` / ``results`` / ``experiments`` /
``list``).  Each design flow has one implementation, reached through
:func:`run_flow`; the lower layers it composes (``ListScheduler``,
``CoSynthesisFramework``, ``reclaim_slack``, ``schedule_conditional``...)
stay public for ad-hoc use, and docs/FLOW_API.md maps the removed
pre-flow entry points onto their FlowSpec equivalents.
"""

from .errors import (
    CoSynthesisError,
    CycleError,
    DeadlineMissError,
    ExperimentError,
    FloorplanError,
    InfeasibleAllocationError,
    LibraryError,
    ReproError,
    SchedulingError,
    SingularNetworkError,
    SlicingError,
    TaskGraphError,
    ThermalError,
    UnknownPETypeError,
    UnknownTaskTypeError,
)
from .taskgraph import (
    BENCHMARK_NAMES,
    Edge,
    GraphSpec,
    Task,
    TaskGraph,
    benchmark,
    benchmark_suite,
    generate_task_graph,
)
from .library import (
    PLATFORM_PE,
    Architecture,
    PEInstance,
    PEType,
    TechnologyLibrary,
    default_catalogue,
    default_platform,
    generate_technology_library,
    library_for_graph,
)
from .power import PowerAccumulator, PowerTrace
from .floorplan import (
    Block,
    Floorplan,
    PolishExpression,
    Rect,
    anneal_floorplan,
    evolve_floorplan,
    platform_floorplan,
)
from .thermal import (
    GridModel,
    HotSpotModel,
    PackageConfig,
    ThermalNetwork,
    ThermalQueryEngine,
    TransientSimulator,
    default_package,
)
from .core import (
    POLICY_NAMES,
    Assignment,
    BaselinePolicy,
    CumulativePowerPolicy,
    ListScheduler,
    Schedule,
    TaskEnergyPolicy,
    TaskPowerPolicy,
    ThermalPolicy,
    policy_by_name,
    schedule_graph,
    static_criticality,
    thermal_scheduler,
)
from .cosynth import (
    CoSynthesisConfig,
    CoSynthesisFramework,
    CoSynthesisResult,
)
from .analysis import (
    ScheduleEvaluation,
    evaluate_schedule,
    format_table,
    render_floorplan,
    render_gantt,
    render_utilisation,
)
from .cosynth import DesignPoint, explore_allocations, pareto_front
from .library import Bus, CommunicationModel, shared_bus_comm, zero_cost_comm
from .taskgraph import Condition, ConditionalTaskGraph
from .core import ConditionalEvaluation, schedule_conditional
from .thermal import LeakageModel, solve_with_leakage
from .analysis import reliability_report
from .extensions import (
    DEFAULT_LEVELS,
    DVFSLevel,
    DVFSResult,
    HybridThermalPolicy,
    ThermalPeakPolicy,
    reclaim_slack,
)
from .flow import (
    ArchitectureSpec,
    CommSpec,
    ConditionalSpec,
    CoSynthSpec,
    DVFSSpec,
    Flow,
    FloorplanSpec,
    FlowResult,
    FlowSpec,
    GraphSourceSpec,
    LeakageSpec,
    LibrarySpec,
    PolicySpec,
    ThermalSpec,
    cosynthesis_spec,
    file_source,
    generated_source,
    platform_spec,
    register_flow,
    register_floorplanner,
    register_policy,
    register_thermal_solver,
    registered_source,
    run_flow,
    run_many,
    spec_hash,
)
from .taskgraph import (
    CONDITIONAL_BENCHMARK_NAMES,
    conditional_benchmark,
    family_names,
    generate_family_graph,
)
from .library import (
    CatalogueSpec,
    catalogue_by_name,
    catalogue_names,
    register_catalogue,
)
from .scenarios import (
    ScenarioCase,
    ScenarioSpec,
    apply_overrides,
    register_scenario,
    register_workload,
    run_scenario,
    scenario,
    scenario_by_name,
    scenario_names,
    workload_names,
)
from .results import (
    RECORD_SCHEMA_VERSION,
    AnalysisReport,
    ResultStore,
    RunRecord,
    RunSet,
    analyze,
    analyzer_by_name,
    analyzer_names,
    register_analyzer,
    run_to_store,
    stream_records,
)

__version__ = "1.12.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "TaskGraphError",
    "CycleError",
    "LibraryError",
    "UnknownTaskTypeError",
    "UnknownPETypeError",
    "FloorplanError",
    "SlicingError",
    "ThermalError",
    "SingularNetworkError",
    "SchedulingError",
    "DeadlineMissError",
    "InfeasibleAllocationError",
    "CoSynthesisError",
    "ExperimentError",
    # task graphs
    "Task",
    "Edge",
    "TaskGraph",
    "GraphSpec",
    "generate_task_graph",
    "benchmark",
    "benchmark_suite",
    "BENCHMARK_NAMES",
    # library
    "PEType",
    "PEInstance",
    "Architecture",
    "TechnologyLibrary",
    "PLATFORM_PE",
    "default_catalogue",
    "default_platform",
    "generate_technology_library",
    "library_for_graph",
    # power
    "PowerAccumulator",
    "PowerTrace",
    # floorplan
    "Rect",
    "Block",
    "Floorplan",
    "PolishExpression",
    "anneal_floorplan",
    "evolve_floorplan",
    "platform_floorplan",
    # thermal
    "PackageConfig",
    "default_package",
    "ThermalNetwork",
    "HotSpotModel",
    "GridModel",
    "ThermalQueryEngine",
    "TransientSimulator",
    # core
    "static_criticality",
    "BaselinePolicy",
    "TaskPowerPolicy",
    "CumulativePowerPolicy",
    "TaskEnergyPolicy",
    "ThermalPolicy",
    "policy_by_name",
    "POLICY_NAMES",
    "Assignment",
    "Schedule",
    "ListScheduler",
    "schedule_graph",
    "thermal_scheduler",
    # cosynth
    "CoSynthesisConfig",
    "CoSynthesisFramework",
    "CoSynthesisResult",
    # analysis
    "ScheduleEvaluation",
    "evaluate_schedule",
    "format_table",
    "render_gantt",
    "render_floorplan",
    "render_utilisation",
    # pareto & extensions
    "DesignPoint",
    "explore_allocations",
    "pareto_front",
    "DVFSLevel",
    "DEFAULT_LEVELS",
    "DVFSResult",
    "reclaim_slack",
    "ThermalPeakPolicy",
    "HybridThermalPolicy",
    "Bus",
    "CommunicationModel",
    "zero_cost_comm",
    "shared_bus_comm",
    "LeakageModel",
    "solve_with_leakage",
    "reliability_report",
    "Condition",
    "ConditionalTaskGraph",
    "ConditionalEvaluation",
    "schedule_conditional",
    "CONDITIONAL_BENCHMARK_NAMES",
    "conditional_benchmark",
    # flow API
    "FlowSpec",
    "GraphSourceSpec",
    "generated_source",
    "file_source",
    "registered_source",
    "LibrarySpec",
    "PolicySpec",
    "ArchitectureSpec",
    "FloorplanSpec",
    "ThermalSpec",
    "CommSpec",
    "CoSynthSpec",
    "DVFSSpec",
    "LeakageSpec",
    "ConditionalSpec",
    "platform_spec",
    "cosynthesis_spec",
    "spec_hash",
    "Flow",
    "FlowResult",
    "run_flow",
    "run_many",
    "register_policy",
    "register_floorplanner",
    "register_thermal_solver",
    "register_flow",
    # generated workload families
    "family_names",
    "generate_family_graph",
    # catalogues
    "CatalogueSpec",
    "register_catalogue",
    "catalogue_by_name",
    "catalogue_names",
    # scenario API
    "ScenarioCase",
    "ScenarioSpec",
    "scenario",
    "apply_overrides",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "run_scenario",
    "register_workload",
    "workload_names",
    # results API
    "RECORD_SCHEMA_VERSION",
    "RunRecord",
    "ResultStore",
    "RunSet",
    "AnalysisReport",
    "analyze",
    "analyzer_by_name",
    "analyzer_names",
    "register_analyzer",
    "stream_records",
    "run_to_store",
]
