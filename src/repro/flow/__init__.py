"""The unified flow API — the package's declarative front door.

Everything the reproduction can compute is reachable through three ideas:

* a :class:`FlowSpec` — a frozen, JSON-serializable description of one
  run (graph source, library, policy, architecture, floorplanner, thermal
  solver, communication model, DVFS/leakage/conditional post-passes);
* the :class:`Flow` facade — ``Flow().run(spec)`` returns a single
  :class:`FlowResult` with the schedule, evaluation, floorplan, post-pass
  results, and provenance/timing metadata;
* :func:`run_many` — batch execution with per-batch dedup, an on-disk
  result cache keyed by :func:`spec_hash`, and process-pool parallelism.

Component registries (:func:`register_policy`,
:func:`register_floorplanner`, :func:`register_thermal_solver`,
:func:`register_flow`) make every stage pluggable by name, so new
behaviours drop in without touching the facade::

    from repro.flow import platform_spec, run_flow

    result = run_flow(platform_spec("Bm1", policy="thermal"))
    print(result.evaluation.as_row())

This facade is the only implementation of each design flow.  The
lower-layer calls it composes (``reclaim_slack``,
``schedule_conditional``...) stay public and return results
byte-identical to the facade; docs/FLOW_API.md maps each, and every
removed pre-flow entry point, to its spec equivalent.
"""

from .spec import (
    GRAPH_SOURCE_KINDS,
    ArchitectureSpec,
    CommSpec,
    ConditionalSpec,
    CoSynthSpec,
    DVFSLevelSpec,
    DVFSSpec,
    FloorplanSpec,
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
    registered_source,
    spec_hash,
)
from .registry import (
    FLOORPLANNERS,
    FLOWS,
    THERMAL_SOLVERS,
    Registry,
    flow_names,
    floorplanner_names,
    policy_names,
    register_flow,
    register_floorplanner,
    register_policy,
    register_thermal_solver,
    thermal_solver_names,
)
from .runner import Flow, FlowResult, PrebuiltPlatform, run_flow
from .batch import clear_cache, iter_results, prune_cache, run_many

__all__ = [
    # specs
    "FlowSpec",
    "GRAPH_SOURCE_KINDS",
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
    "DVFSLevelSpec",
    "DVFSSpec",
    "LeakageSpec",
    "ConditionalSpec",
    "platform_spec",
    "cosynthesis_spec",
    "spec_hash",
    # registries
    "Registry",
    "FLOORPLANNERS",
    "THERMAL_SOLVERS",
    "FLOWS",
    "register_policy",
    "register_floorplanner",
    "register_thermal_solver",
    "register_flow",
    "policy_names",
    "floorplanner_names",
    "thermal_solver_names",
    "flow_names",
    # execution
    "Flow",
    "FlowResult",
    "PrebuiltPlatform",
    "run_flow",
    "run_many",
    "iter_results",
    "clear_cache",
    "prune_cache",
]
