"""Workload construction: one builder for every graph-source kind.

This module is the single place a :class:`~repro.flow.GraphSourceSpec`
turns into a concrete ``(graph, technology library)`` pair.  It backs
:meth:`repro.flow.Flow.run`, :mod:`repro.experiments.workloads`, and the
CLI alike, and memoises per process — one bounded, thread-safe LRU
that the serve daemon shares too — so sweeps over policies never
regenerate identical substrates.

Source kinds:

* ``benchmark`` — the paper's Bm1–Bm4 (:mod:`repro.taskgraph.benchmarks`);
* ``conditional`` — built-in conditional task graphs;
* ``generated`` — seeded generator families
  (:func:`repro.taskgraph.generator.generate_family_graph`);
* ``file`` — graphs loaded through :mod:`repro.taskgraph.io`;
* ``registered`` — user workloads registered here by name.

A registered factory returns either a :class:`TaskGraph` /
:class:`ConditionalTaskGraph` (the technology library is then generated
from the active catalogue) or a ``(graph, library)`` pair when the
workload carries its own hand-built library (the
``examples/custom_workload.py`` pattern).  Factories must be
deterministic — the pair is cached and, with ``run_many(workers=N)``,
rebuilt inside worker processes; register workloads at import time of
the module that launches the pool so workers inherit them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..caching import DEFAULT_MAX_ENTRIES, LRUCache
from ..errors import FlowError, FlowSpecError, TaskGraphError
from ..library.catalogues import catalogue_by_name
from ..library.presets import (
    generate_technology_library,
    library_for_graph,
    stable_library_seed,
)
from ..library.technology import TechnologyLibrary
from ..registry import Registry
from ..taskgraph.benchmarks import benchmark
from ..taskgraph.conditional import ConditionalTaskGraph, conditional_benchmark
from ..taskgraph.generator import generate_family_graph
from ..taskgraph.graph import TaskGraph
from ..taskgraph.io import load_graph

__all__ = [
    "WORKLOADS",
    "register_workload",
    "workload_by_name",
    "workload_names",
    "build_graph",
    "build_workload",
    "clear_workload_cache",
    "workload_cache_stats",
]

WORKLOADS = Registry("workload")


def register_workload(
    name: str, factory: Optional[Callable] = None
) -> Callable:
    """Register ``factory() -> graph | (graph, library)`` under *name*.

    Usable as ``@register_workload("my-app")``.  The factory must be
    deterministic; its result is cached per process and rebuilt inside
    ``run_many`` worker processes.
    """
    return WORKLOADS.register(name, factory)


def workload_by_name(name: str) -> Callable:
    """The registered workload factory for *name*."""
    return WORKLOADS.get(name)


def workload_names() -> Tuple[str, ...]:
    """All registered workload names, in registration order."""
    return WORKLOADS.names()


# ----------------------------------------------------------------------
# construction (memoised per process)
# ----------------------------------------------------------------------
_MEMO = LRUCache(max_entries=DEFAULT_MAX_ENTRIES)


def clear_workload_cache() -> None:
    """Drop the per-process workload memo (tests; registered reloads)."""
    _MEMO.clear()


def workload_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters + occupancy of the workload memo."""
    return _MEMO.stats()


def _override_guards(
    ctg: ConditionalTaskGraph,
    triples: Tuple[Tuple[str, str, float], ...],
) -> ConditionalTaskGraph:
    """Rebuild *ctg* with guard distributions replaced by *triples*.

    An override re-declares a guard's *entire* outcome distribution: a
    partial override (missing outcomes, unknown outcomes, probabilities
    not summing to 1) raises :class:`FlowSpecError` — silently merging
    with the built-in distribution would produce one that sums past 1.
    """
    overrides: Dict[str, Dict[str, float]] = {}
    for guard, outcome, probability in triples:
        overrides.setdefault(guard, {})[outcome] = probability
    declared = ctg.guards()
    unknown_guards = sorted(set(overrides) - set(declared))
    if unknown_guards:
        raise FlowSpecError(
            f"guard overrides reference guards absent from "
            f"{ctg.name!r}: {unknown_guards}"
        )
    for guard, replacement in overrides.items():
        outcomes = set(declared[guard])
        missing = sorted(outcomes - set(replacement))
        extra = sorted(set(replacement) - outcomes)
        if missing or extra:
            raise FlowSpecError(
                f"override for guard {guard!r} must re-specify exactly the "
                f"outcomes {sorted(outcomes)}; missing {missing}, "
                f"unknown {extra}"
            )
    rebuilt = ConditionalTaskGraph(ctg.name, ctg.deadline)
    for task in ctg.tasks():
        rebuilt.add_task(task)
    for edge in ctg.edges():
        rebuilt.add_edge(edge.src, edge.dst, edge.data, edge.condition)
    for guard, probabilities in declared.items():
        try:
            rebuilt.declare_guard(guard, overrides.get(guard, probabilities))
        except TaskGraphError as exc:
            raise FlowSpecError(
                f"bad probability override for guard {guard!r}: {exc}"
            ) from exc
    rebuilt.validate()
    return rebuilt


def _invoke_registered(name: str) -> Tuple[Any, Optional[TechnologyLibrary]]:
    """Call the registered factory *name* and validate its result shape."""
    result = workload_by_name(name)()
    library: Optional[TechnologyLibrary] = None
    graph = result
    if isinstance(result, tuple):
        if len(result) != 2 or not isinstance(result[1], TechnologyLibrary):
            raise FlowError(
                f"workload {name!r} factory must return a graph or a "
                f"(graph, TechnologyLibrary) pair"
            )
        graph, library = result
    if not isinstance(graph, (TaskGraph, ConditionalTaskGraph)):
        raise FlowError(
            f"workload {name!r} factory returned "
            f"{type(graph).__name__}, expected a TaskGraph or "
            f"ConditionalTaskGraph"
        )
    return graph, library


def build_graph(graph_spec) -> Any:
    """The graph (or CTG) a :class:`GraphSourceSpec` describes (uncached).

    Guard-probability overrides are *not* applied here, and a registered
    workload's hand-built library is not returned; use
    :func:`build_workload` for the full, memoised construction.
    """
    kind = graph_spec.kind
    if kind == "benchmark":
        return benchmark(graph_spec.name)
    if kind == "conditional":
        return conditional_benchmark(graph_spec.name)
    if kind == "generated":
        return generate_family_graph(
            graph_spec.family or "layered",
            graph_spec.tasks,
            seed=graph_spec.seed,
            # empty name = the generator's self-describing default,
            # derived from the *current* knobs (grid overrides included)
            name=graph_spec.name or None,
            width=graph_spec.width,
            density=graph_spec.density,
            ccr=graph_spec.ccr,
            deadline_slack=graph_spec.deadline_slack,
        )
    if kind == "file":
        return load_graph(graph_spec.path)
    if kind == "registered":
        return _invoke_registered(graph_spec.name)[0]
    raise FlowSpecError(f"unknown graph source kind {kind!r}")


def _conditional_library(ctg, catalogue, seed) -> TechnologyLibrary:
    task_types = sorted({task.task_type for task in ctg.tasks()})
    if seed is None:
        seed = stable_library_seed(ctg.name)
    return generate_technology_library(
        task_types, catalogue=catalogue, seed=seed, name=f"library-{ctg.name}"
    )


def build_workload(
    graph_spec,
    library_spec,
    guard_probabilities: Tuple[Tuple[str, str, float], ...] = (),
    memo: bool = True,
) -> Tuple[Any, TechnologyLibrary]:
    """``(graph-or-CTG, library)`` for one spec pair, shared in-process.

    The graph comes from :func:`build_graph`; the library is generated
    over the named catalogue unless a registered workload supplies its
    own.  Guard overrides apply to conditional graphs only.  Pairs are
    memoised in one thread-safe LRU of ``DEFAULT_MAX_ENTRIES`` entries.
    ``memo=False`` bypasses the memo entirely (no read, no write) — for
    validation rebuilds, which must not be handed the very objects
    under test.
    """
    # file-sourced graphs live on disk and can change under the memo's
    # feet; everything else is fully determined by the spec (registered
    # factories cannot be swapped — the registry forbids re-registration)
    memoisable = memo and graph_spec.kind != "file"
    key = (graph_spec, library_spec, tuple(guard_probabilities))
    if memoisable:
        pair = _MEMO.get(key)
        if pair is not None:
            return pair

    catalogue = catalogue_by_name(library_spec.catalogue)
    library: Optional[TechnologyLibrary] = None
    if graph_spec.kind == "registered":
        graph, library = _invoke_registered(graph_spec.name)
        if library is not None and library_spec.seed is not None:
            raise FlowSpecError(
                f"workload {graph_spec.name!r} supplies its own library; "
                f"leave library.seed unset"
            )
    else:
        graph = build_graph(graph_spec)

    if isinstance(graph, ConditionalTaskGraph):
        if guard_probabilities:
            graph = _override_guards(graph, tuple(guard_probabilities))
        if library is None:
            library = _conditional_library(graph, catalogue, library_spec.seed)
    else:
        if guard_probabilities:
            raise FlowSpecError(
                f"guard probability overrides need a conditional graph; "
                f"{graph.name!r} is a plain task graph"
            )
        if library is None:
            library = library_for_graph(
                graph, catalogue=catalogue, seed=library_spec.seed
            )

    if memoisable:
        _MEMO.put(key, (graph, library))
    return graph, library
