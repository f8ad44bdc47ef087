"""The flow facade: ``Flow.run(spec) -> FlowResult``.

One entry point executes any registered flow kind from a declarative
:class:`~repro.flow.spec.FlowSpec` and returns one unified
:class:`FlowResult` — a single object carrying the schedule, its
evaluation, the floorplan, optional post-pass results (in place of the
separate ``CoSynthesisResult`` / ``DVFSResult`` shapes of the lower
layers), and provenance + stage-timing metadata.

The built-in flow kinds are the only implementations of the paper's two
figures:

* ``"platform"`` — Figure 1b.  Fixed architecture and floorplan, ASP with
  HotSpot inquiries: the platform architecture and floorplan, a HotSpot
  model, :class:`~repro.core.scheduler.ListScheduler` and
  :func:`~repro.analysis.metrics.evaluate_schedule`, wired in that order.
* ``"cosynthesis"`` — Figure 1a.  Allocation screening, thermal/area
  floorplanning, HotSpot-in-the-loop refinement.  Byte-identical to
  :class:`repro.cosynth.framework.CoSynthesisFramework` for equal inputs.

Workload construction (graph + technology library) is delegated to
:func:`repro.scenarios.workloads.build_workload`, which memoises per
process, so sweeps over policies do not regenerate identical substrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.metrics import ScheduleEvaluation, evaluate_schedule
from ..core.conditional import ConditionalEvaluation, schedule_conditional
from ..core.scheduler import ListScheduler
from ..core.schedule import Schedule
from ..cosynth.cost import (
    performance_final_cost,
    performance_screening_cost,
    power_final_cost,
    screening_cost,
    thermal_final_cost,
)
from ..cosynth.framework import CoSynthesisConfig, CoSynthesisFramework
from ..errors import FlowError
from ..extensions.dvfs import DEFAULT_LEVELS, DVFSLevel, DVFSResult, reclaim_slack
from ..floorplan.geometry import Floorplan
from ..library.bus import shared_bus_comm, zero_cost_comm
from ..library.catalogues import catalogue_by_name
from ..library.pe import Architecture
from ..obs import get_recorder
from ..taskgraph.conditional import ConditionalTaskGraph
from ..thermal.leakage import LeakageModel, LeakageSolution, solve_with_leakage
from ..thermal.package import default_package
from .registry import FLOORPLANNERS, FLOWS, THERMAL_SOLVERS, build_policy
from .spec import ArchitectureSpec, FloorplanSpec, FlowSpec, spec_hash

__all__ = [
    "Flow",
    "FlowResult",
    "PrebuiltPlatform",
    "build_platform",
    "platform_floorplan_spec",
    "run_flow",
]


def _build_workload(spec: FlowSpec) -> Tuple[Any, Any]:
    """(graph-or-CTG, library) for *spec*, shared across runs in-process.

    Rejects graph/conditional-flag mismatches, memo hit or fresh alike.
    """
    # late import: repro.scenarios imports repro.flow.spec for its grid
    # layer, so binding it at module import time would be cyclic
    from ..scenarios.workloads import build_workload

    graph, library = build_workload(
        spec.graph, spec.library, spec.conditional.guard_probabilities
    )
    is_ctg = isinstance(graph, ConditionalTaskGraph)
    if spec.conditional.enabled and not is_ctg:
        raise FlowError(
            f"conditional aggregation is enabled but workload "
            f"{graph.name!r} is a plain task graph"
        )
    if is_ctg and not spec.conditional.enabled:
        raise FlowError(
            f"workload {graph.name!r} is a conditional task graph; "
            f"set conditional.enabled = True"
        )
    return graph, library


def _build_architecture(spec: FlowSpec) -> Architecture:
    """The platform architecture *spec* describes, from its catalogue.

    The default spec resolves to the catalogue's platform PE —
    byte-identical to :func:`repro.library.presets.default_platform` for
    the default catalogue.
    """
    catalogue = catalogue_by_name(spec.library.catalogue)
    arch = spec.architecture
    if arch.pes:
        architecture = Architecture(arch.name)
        for type_name in arch.pes:
            architecture.add_instance(catalogue.pe_type(type_name))
        return architecture
    pe_name = arch.pe or catalogue.platform_pe
    if pe_name is None:
        raise FlowError(
            f"catalogue {catalogue.name!r} declares no platform PE; "
            f"set architecture.pe (available: {catalogue.type_names()})"
        )
    return Architecture.homogeneous(arch.name, catalogue.pe_type(pe_name), arch.count)


def platform_floorplan_spec(spec: FlowSpec) -> FloorplanSpec:
    """The floorplan sub-spec of a platform flow, default resolved.

    ``floorplan=None`` means ``FloorplanSpec(kind="platform")``.  The
    platform build and the serve cache key both resolve it here, so a
    defaulted spec and an explicit default build and hash alike.
    """
    return spec.floorplan or FloorplanSpec(kind="platform")


def _build_package(spec: FlowSpec):
    package = default_package()
    if spec.thermal.ambient_c is not None:
        package = replace(package, ambient_c=spec.thermal.ambient_c)
    return package


def _build_comm(spec: FlowSpec):
    if spec.comm.kind == "zero":
        return zero_cost_comm()
    return shared_bus_comm(
        bandwidth=spec.comm.bandwidth, latency=spec.comm.latency
    )


_FINAL_COSTS = {
    "power": power_final_cost,
    "thermal": thermal_final_cost,
    "performance": performance_final_cost,
}
_SCREENING_COSTS = {
    "default": screening_cost,
    "performance": performance_screening_cost,
}


# ----------------------------------------------------------------------
# the unified result object
# ----------------------------------------------------------------------
@dataclass
class FlowResult:
    """Everything one flow execution produced, in one place.

    ``schedule``/``evaluation`` always describe the final design (the
    worst-case scenario for conditional flows, the retimed schedule when
    the DVFS post-pass ran).  ``diagnostics`` carries flow-kind-specific
    counters (HotSpot queries, co-synthesis candidate counts, die area);
    ``provenance`` identifies the run (spec hash, library version, cache
    status); ``timings`` maps stage name → seconds.
    """

    spec: FlowSpec
    architecture: Architecture
    floorplan: Floorplan
    schedule: Schedule
    evaluation: ScheduleEvaluation
    conditional: Optional[ConditionalEvaluation] = None
    dvfs: Optional[DVFSResult] = None
    leakage: Optional[LeakageSolution] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Span/metric buffer a traced pool worker ships back to the parent
    #: (:meth:`repro.obs.Recorder.export_buffer`); ``None`` in-process.
    #: The batch layer consumes it exactly once and never caches it.
    obs: Optional[Dict[str, Any]] = None

    @property
    def meets_deadline(self) -> bool:
        """True when the final design met its deadline (all scenarios for
        conditional flows)."""
        if self.conditional is not None:
            return self.conditional.meets_deadline
        return self.evaluation.meets_deadline

    def as_record(self, suite: str = "", scenario: str = ""):
        """This result flattened to a :class:`~repro.results.RunRecord` —
        the canonical typed, versioned, JSON-safe form every consumer
        (store, CLI, CSV export, analyzers) shares."""
        from ..results.record import RunRecord  # late: results imports flow

        return RunRecord.from_result(self, suite=suite, scenario=scenario)

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for tabular reports (paper column names + flow id).

        Derived through the one canonical flattening
        (:mod:`repro.results.record`) without materializing the full
        record — table prints call this once per result.
        """
        from ..results.record import metrics_from_evaluation, row_from_metrics

        metrics = metrics_from_evaluation(self.evaluation)
        metrics["meets_deadline"] = bool(self.meets_deadline)
        row = row_from_metrics(metrics)
        row["flow"] = self.spec.flow
        row["spec_hash"] = self.provenance.get("spec_hash", "")
        return row

    def as_dict(self) -> Dict[str, Any]:
        """The canonical record dict — strictly JSON-serializable.

        Identical to ``result.as_record().to_dict()``: spec, spec_hash,
        flow, row, full-precision metrics, diagnostics, provenance,
        timings, optional conditional/dvfs/leakage summaries, and the
        record schema version.  ``json.dumps`` needs no ``default=``.
        """
        return self.as_record().to_dict()


@dataclass
class _FlowOutcome:
    """What a flow-kind runner hands back to the facade."""

    architecture: Architecture
    floorplan: Floorplan
    schedule: Schedule
    evaluation: ScheduleEvaluation
    thermal_model: Any
    conditional: Optional[ConditionalEvaluation] = None
    diagnostics: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PrebuiltPlatform:
    """A ready-to-schedule platform: what :func:`build_platform` returns.

    The architecture, the laid-out floorplan, and the thermal model
    over them.  A warm cache hands :func:`_platform_runner` one whose
    thermal model is a *fresh lease* over already-constructed
    network/factorisation/query engine (see
    :meth:`repro.thermal.HotSpotModel.from_prebuilt`) — its query
    counters start at zero so the result's diagnostics describe this
    run only.
    """

    architecture: Architecture
    floorplan: Floorplan
    thermal: Any


def build_platform(spec: FlowSpec) -> PrebuiltPlatform:
    """Figure 1b's platform: architecture, floorplan, then thermal model.

    The one construction site of a platform — the platform flow calls it
    when no warm lease is offered, and the serve engine cache calls it on
    a miss — inside the ``flow.floorplan`` / ``flow.thermal_build`` spans,
    so a trace shows every cold build and no warm one.
    """
    rec = get_recorder()
    with rec.span("flow.floorplan"):
        architecture = _build_architecture(spec)
        floorplan_spec = platform_floorplan_spec(spec)
        floorplan = FLOORPLANNERS.get(floorplan_spec.kind)(
            architecture, floorplan_spec
        )
    with rec.span("flow.thermal_build", solver=spec.thermal.solver):
        thermal = THERMAL_SOLVERS.get(spec.thermal.solver)(
            floorplan, _build_package(spec), spec.thermal
        )
    return PrebuiltPlatform(
        architecture=architecture, floorplan=floorplan, thermal=thermal
    )


# ----------------------------------------------------------------------
# built-in flow kinds
# ----------------------------------------------------------------------
def _platform_runner(
    spec: FlowSpec, graph, library, prebuilt: Optional[PrebuiltPlatform] = None
) -> _FlowOutcome:
    """Figure 1b: fixed architecture + floorplan, ASP with HotSpot.

    With *prebuilt* given (the serving layer's warm path), the
    architecture/floorplan/thermal triple is taken as-is instead of
    calling :func:`build_platform` — the schedule and evaluation that
    follow are byte-identical either way, because the prebuilt parts
    are functions of the same spec fields.
    """
    rec = get_recorder()
    if prebuilt is None:
        prebuilt = build_platform(spec)
    architecture = prebuilt.architecture
    floorplan = prebuilt.floorplan
    thermal = prebuilt.thermal
    policy = build_policy(spec.policy)

    if spec.conditional.enabled:
        with rec.span("flow.schedule", scenarios=True):
            conditional = schedule_conditional(
                graph, architecture, library, policy, hotspot=thermal,
                comm=_build_comm(spec),
            )
        worst = next(
            r
            for r in conditional.results
            if r.scenario.label == conditional.worst_scenario
        )
        return _FlowOutcome(
            architecture=architecture,
            floorplan=floorplan,
            schedule=worst.schedule,
            evaluation=worst.evaluation,
            thermal_model=thermal,
            conditional=conditional,
            diagnostics={
                "scenarios": len(conditional.results),
                "hotspot_queries": getattr(thermal, "query_count", 0),
                "thermal_query": dict(getattr(thermal, "query_stats", {})),
            },
        )

    scheduler = ListScheduler(
        graph, architecture, library, thermal=thermal, comm=_build_comm(spec)
    )
    with rec.span("flow.schedule", policy=spec.policy.name):
        schedule = scheduler.run(policy)
    with rec.span("flow.evaluate"):
        evaluation = evaluate_schedule(schedule, hotspot=thermal)
    return _FlowOutcome(
        architecture=architecture,
        floorplan=floorplan,
        schedule=schedule,
        evaluation=evaluation,
        thermal_model=thermal,
        diagnostics={
            "hotspot_queries": getattr(thermal, "query_count", 0),
            "thermal_query": dict(getattr(thermal, "query_stats", {})),
            "scheduler": dict(scheduler.last_run_stats),
        },
    )


def _cosynthesis_runner(spec: FlowSpec, graph, library) -> _FlowOutcome:
    """Figure 1a: allocation search + floorplan + HotSpot refinement."""
    if spec.conditional.enabled:
        raise FlowError("the cosynthesis flow does not schedule conditional graphs")
    if spec.comm.kind != "zero":
        raise FlowError(
            "the cosynthesis flow uses the paper's free communication model; "
            "use comm kind 'zero'"
        )
    # reject rather than silently ignore settings this flow cannot honour:
    # a spec must describe the computation that actually ran
    if spec.thermal.solver != "hotspot":
        raise FlowError(
            "the cosynthesis flow queries HotSpot inside its search loop; "
            f"thermal solver {spec.thermal.solver!r} is not supported here"
        )
    if spec.architecture != ArchitectureSpec():
        raise FlowError(
            "the cosynthesis flow searches the architecture itself; "
            "leave spec.architecture at its default"
        )
    floorplan_spec = spec.floorplan or FloorplanSpec(kind="genetic")
    if floorplan_spec.kind != "genetic":
        raise FlowError(
            "the cosynthesis flow floorplans every candidate with its "
            "thermal/area GA; floorplan kind must be 'genetic', got "
            f"{floorplan_spec.kind!r}"
        )
    config = CoSynthesisConfig(
        max_pes=spec.cosynth.max_pes,
        min_pes=spec.cosynth.min_pes,
        screening_keep=spec.cosynth.screening_keep,
        refine_iterations=spec.cosynth.refine_iterations,
        thermal_floorplanning=spec.cosynth.thermal_floorplanning,
        floorplan_seed=floorplan_spec.seed,
        genetic_config=floorplan_spec.genetic_config(),
    )
    package = _build_package(spec)
    catalogue = catalogue_by_name(spec.library.catalogue)
    framework = CoSynthesisFramework(
        catalogue=list(catalogue.pe_types), package=package, config=config
    )
    policy = build_policy(spec.policy)
    final_cost = (
        _FINAL_COSTS[spec.cosynth.final_cost]() if spec.cosynth.final_cost else None
    )
    screening = (
        _SCREENING_COSTS[spec.cosynth.screening]() if spec.cosynth.screening else None
    )
    with get_recorder().span("flow.search", kind="cosynthesis"):
        result = framework.run(
            graph, library, policy, final_cost=final_cost, screening=screening
        )
    return _FlowOutcome(
        architecture=result.architecture,
        floorplan=result.floorplan,
        schedule=result.schedule,
        evaluation=result.evaluation,
        thermal_model=None,
        diagnostics={
            "candidates_screened": result.candidates_screened,
            "candidates_evaluated": result.candidates_evaluated,
            "hotspot_queries": result.hotspot_queries,
            "screening_rows": list(result.screening_rows),
        },
    )


FLOWS.register("platform", _platform_runner)
FLOWS.register("cosynthesis", _cosynthesis_runner)


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
def _accepts_prebuilt(runner: Any) -> bool:
    """Whether a registered flow runner takes the ``prebuilt=`` lease.

    Third-party runners keep the original three-argument signature; the
    facade only offers a warm platform to runners that declare they can
    take one.
    """
    import inspect

    try:
        return "prebuilt" in inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False


def _obs_summary(
    trace_id: str, timings: Dict[str, float], diagnostics: Dict[str, Any]
) -> Dict[str, Any]:
    """The per-run obs digest stored in provenance (traced runs only).

    Per-phase durations plus the cache-effectiveness rates the
    diagnostics counters already imply — so a stored record answers
    "where did this run spend its time" without the full span buffer.
    """
    summary: Dict[str, Any] = {
        "trace_id": trace_id,
        "phases": {name: round(value, 6) for name, value in timings.items()},
    }
    scheduler = diagnostics.get("scheduler") or {}
    candidates = scheduler.get("candidates_evaluated", 0)
    requeries = scheduler.get("thermal_exact_requeries", 0)
    if candidates and scheduler.get("thermal_fast_queries", 0):
        summary["scheduler_fast_hit_rate"] = round(
            (candidates - requeries) / candidates, 4
        )
    return summary


def _record_flow_metrics(rec: Any, diagnostics: Dict[str, Any]) -> None:
    """Mirror the run's diagnostics counters into the metrics registry.

    The diagnostics dicts keep their pinned shapes (they are the
    record-level adapter); the registry gets the same counts under
    ``flow.*`` names for ``/metrics``-style aggregation.
    """
    rec.counter("flow.runs")
    rec.counter("flow.hotspot_queries", diagnostics.get("hotspot_queries", 0))
    thermal = diagnostics.get("thermal_query") or {}
    for key in ("queries", "solver_solves", "engine_fast_queries"):
        if key in thermal:
            rec.counter(f"flow.thermal.{key}", thermal[key])


class Flow:
    """Facade executing declarative :class:`FlowSpec` configurations.

    Stateless apart from the process-wide workload memo of
    :func:`~repro.scenarios.workloads.build_workload`, which every run
    builds its ``(graph, library)`` pair through; one instance can run
    any number of specs (and is what :func:`~repro.flow.batch.run_many`
    workers use).

    *cache* optionally attaches a warm platform provider (duck-typed;
    the serving layer's :class:`~repro.serve.cache.EngineCache`) exposing
    ``platform_for(spec) -> PrebuiltPlatform | None``; ``None`` means
    "bypass" and the runner calls :func:`build_platform` itself.  The
    hook only short-circuits *construction* — scheduling and evaluation
    always run, and their outputs are byte-identical with or without the
    cache (the warm state is a function of the same spec fields).
    """

    def __init__(self, cache: Optional[Any] = None):
        self.cache = cache

    def run(self, spec: FlowSpec) -> FlowResult:
        """Execute *spec* and return the unified :class:`FlowResult`."""
        if not isinstance(spec, FlowSpec):
            raise FlowError(
                f"Flow.run expects a FlowSpec, got {type(spec).__name__} "
                f"(build one with FlowSpec/platform_spec/cosynthesis_spec)"
            )
        timings: Dict[str, float] = {}
        rec = get_recorder()
        digest = spec_hash(spec)
        with rec.span(
            "flow", trace=digest[:16], flow=spec.flow, policy=spec.policy.name
        ) as root:
            with rec.span("flow.library", graph=spec.graph.name) as phase:
                graph, library = _build_workload(spec)
            timings["build"] = phase.elapsed

            with rec.span("flow.run", kind=spec.flow) as phase:
                runner = FLOWS.get(spec.flow)
                prebuilt: Optional[PrebuiltPlatform] = None
                if (
                    self.cache is not None
                    and hasattr(self.cache, "platform_for")
                    and _accepts_prebuilt(runner)
                ):
                    prebuilt = self.cache.platform_for(spec)
                if prebuilt is not None:
                    outcome = runner(spec, graph, library, prebuilt=prebuilt)
                else:
                    outcome = runner(spec, graph, library)
            timings["run"] = phase.elapsed

            dvfs_result: Optional[DVFSResult] = None
            schedule = outcome.schedule
            evaluation = outcome.evaluation
            if spec.dvfs.enabled:
                with rec.span("flow.dvfs") as phase:
                    if outcome.conditional is not None:
                        raise FlowError(
                            "the DVFS post-pass needs a single schedule; "
                            "conditional flows aggregate many"
                        )
                    levels: Tuple[DVFSLevel, ...] = DEFAULT_LEVELS
                    if spec.dvfs.levels:
                        levels = tuple(
                            DVFSLevel(l.name, l.frequency, l.voltage)
                            for l in spec.dvfs.levels
                        )
                    dvfs_result = reclaim_slack(schedule, levels=levels)
                    schedule = dvfs_result.schedule
                    thermal = outcome.thermal_model
                    if thermal is not None:
                        evaluation = evaluate_schedule(schedule, hotspot=thermal)
                    else:
                        evaluation = evaluate_schedule(
                            schedule,
                            floorplan=outcome.floorplan,
                            package=_build_package(spec),
                        )
                timings["dvfs"] = phase.elapsed

            leakage_result: Optional[LeakageSolution] = None
            if spec.leakage.enabled:
                with rec.span("flow.leakage") as phase:
                    model = LeakageModel(
                        leakage_fraction=spec.leakage.leakage_fraction,
                        beta=spec.leakage.beta,
                        t_ref_c=spec.leakage.t_ref_c,
                    )
                    thermal = outcome.thermal_model
                    if thermal is None or not hasattr(thermal, "block_names"):
                        from ..thermal.hotspot import HotSpotModel

                        thermal = HotSpotModel(
                            outcome.floorplan, _build_package(spec)
                        )
                    leakage_result = solve_with_leakage(
                        thermal, evaluation.pe_powers, leakage=model
                    )
                timings["leakage"] = phase.elapsed

            import repro as _repro  # late: the package root imports this module

            provenance = {
                "spec_hash": digest,
                "flow": spec.flow,
                "policy": spec.policy.name,
                "repro_version": getattr(_repro, "__version__", "unknown"),
                "cache_hit": False,
                "elapsed_s": round(root.elapsed, 6),
            }
            diagnostics = dict(outcome.diagnostics)
            if rec.enabled:
                provenance["obs"] = _obs_summary(digest[:16], timings, diagnostics)
                _record_flow_metrics(rec, diagnostics)
            return FlowResult(
                spec=spec,
                architecture=outcome.architecture,
                floorplan=outcome.floorplan,
                schedule=schedule,
                evaluation=evaluation,
                conditional=outcome.conditional,
                dvfs=dvfs_result,
                leakage=leakage_result,
                diagnostics=diagnostics,
                provenance=provenance,
                timings=timings,
            )


def run_flow(spec: FlowSpec) -> FlowResult:
    """Run one spec through a fresh :class:`Flow` facade."""
    return Flow().run(spec)
