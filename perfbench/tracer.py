"""Outside-in span recorder for the traced benchmark run.

Tracing is done from the benchmark's own files: :func:`install` wraps
the public entry point of each layer with a patch that is undone by
:meth:`Tracer.restore`.  Untraced runs never import this module's
patches, so they measure the program exactly as users run it.

Functions imported by name (``from ..floorplan.genetic import
evolve_floorplan`` in the co-synthesis framework and the floorplanner
registry, ``evaluate_schedule`` in the flow runner...) are patched in
*every* ``repro`` module that binds them; classes are patched on the
class, which every importer shares.

Each span records ``(id, parent, trace, name, start, end, thread)``;
a span opened with no parent on its thread starts a new trace id, so
spans of one top-level operation share one.  Spans stay in memory and
are written out once, at the end (:meth:`Tracer.dump`).

Redundancy counters: for the scheduler, the GA floorplanner and the
HotSpot model build, every call's *input key* is added to a set, and
``unique_ratio = distinct keys / calls``.  The keys are:

* ``core.schedule`` — task graph (name, deadline, tasks with type and
  weight, edges), library name, architecture (PE names and types),
  floorplan geometry of the thermal model (or none), and the policy
  with its weight;
* ``floorplan.evolve`` — PE names and types, objective weights, GA
  config, seed, and the power map the thermal objective closes over;
* ``thermal.model_build`` — block rectangles and the package constants.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import sys
import threading
import weakref
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layers whose self time the coverage figure sums (every span name).
LAYER_SPANS = (
    "flow.run",
    "core.schedule",
    "core.prepare",
    "floorplan.evolve",
    "thermal.model_build",
    "cosynth.run",
    "scenarios.build_workload",
    "analysis.evaluate",
    "extensions.dvfs",
    "results.append",
    "results.index",
    "results.get",
    "dse.search",
    "dse.generation",
    "serve.handle",
)

#: Layers with an input-key redundancy counter.
KEYED_LAYERS = ("core.schedule", "floorplan.evolve", "thermal.model_build")

#: The program's own leaf ``flow.*`` phase spans (``repro.obs``) used to
#: split ``flow.run`` self time.
FLOW_PHASES = (
    "flow.library",
    "flow.floorplan",
    "flow.thermal_build",
    "flow.schedule",
    "flow.evaluate",
    "flow.search",
    "flow.dvfs",
    "flow.leakage",
)

Span = Tuple[int, int, int, str, float, float, str]


class Tracer:
    """Patch-and-restore span recorder plus the per-layer counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.keys: Dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self._graph_keys: Dict[int, Tuple[Any, str]] = {}
        self._models: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        key: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*fn* timed as span *name*; *key*/*after* see its arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.keys[name].add(key(*args, **kwargs))
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent_id, trace = stack[-1] if stack else (0, next(tracer._traces))
            stack.append((span_id, trace))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent_id, trace, name, start, end,
                     threading.current_thread().name)
                )
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._patched.append((cls, attr, original, True))

    def patch_function(self, fn: Callable, name: str, **hooks) -> None:
        """Replace *fn* in every loaded ``repro`` module that binds it."""
        wrapper = self.wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn, True))

    def restore(self) -> None:
        """Undo every patch, newest first; harvest live thermal models."""
        self._harvest_live_models()
        for owner, attr, original, had in reversed(self._patched):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- thermal query counters ----------------------------------------
    def _count_model(self, model: Any) -> None:
        if getattr(model, "_perfbench_counted", False):
            return
        model._perfbench_counted = True
        self.counts["thermal.queries"] += model._queries
        self.counts["thermal.solver_solves"] += model._solver.solve_count

    def track_model_lifetimes(self, cls: type) -> None:
        """Sum each model's query counters when it dies (or at restore)."""
        tracer = self

        def __del__(model):  # noqa: N807 - finaliser patched onto the class
            tracer._count_model(model)

        cls.__del__ = __del__
        self._patched.append((cls, "__del__", None, False))

    def _harvest_live_models(self) -> None:
        gc.collect()
        for model in list(self._models):
            self._count_model(model)

    # -- input keys ----------------------------------------------------
    def graph_key(self, graph: Any) -> str:
        """Content digest of a task graph, computed once per graph object."""
        cached = self._graph_keys.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        payload = (
            graph.name,
            graph.deadline,
            [(t.name, t.task_type, t.weight) for t in graph.tasks()],
            [(e.src, e.dst) for e in graph.edges()],
        )
        digest = hashlib.sha1(repr(payload).encode("utf-8")).hexdigest()
        self._graph_keys[id(graph)] = (graph, digest)  # holds the id stable
        return digest

    # -- summaries -----------------------------------------------------
    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write every span (one JSON array per line) plus a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": extra}, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _arch_key(architecture: Any) -> Tuple:
    return tuple((pe.name, pe.type_name) for pe in architecture)


def _plan_key(plan: Any) -> Tuple:
    return tuple(
        (b.name, b.rect.x, b.rect.y, b.rect.w, b.rect.h) for b in plan
    )


def _power_map(objective: Any) -> Optional[Tuple]:
    """The block->W map a thermal objective's evaluator closes over."""
    evaluator = getattr(objective, "temp_evaluator", None)
    for cell in getattr(evaluator, "__closure__", None) or ():
        value = cell.cell_contents
        if isinstance(value, dict):
            return tuple(sorted(value.items()))
    return None


def install(tracer: Tracer) -> None:
    """Patch every measured layer's entry points (see module docstring)."""
    import repro.cli  # noqa: F401 - loads every module that binds a patched name
    import repro.dse.driver
    from repro.analysis.metrics import evaluate_schedule
    from repro.core.scheduler import ListScheduler
    from repro.cosynth.framework import CoSynthesisFramework
    from repro.extensions.dvfs import reclaim_slack
    from repro.flow.runner import Flow
    from repro.floorplan.genetic import GeneticConfig, evolve_floorplan
    from repro.results.store import ResultStore
    from repro.scenarios.workloads import build_workload
    from repro.serve.server import ServeDaemon
    from repro.thermal.hotspot import HotSpotModel
    from repro.thermal.package import default_package

    def schedule_key(scheduler, policy=None, *_args, **_kwargs):
        thermal = scheduler.thermal
        plan = getattr(thermal, "floorplan", None) if thermal is not None else None
        return (
            tracer.graph_key(scheduler.graph),
            scheduler.library.name,
            _arch_key(scheduler.architecture),
            _plan_key(plan) if plan is not None else None,
            getattr(policy, "name", "baseline"),
            getattr(policy, "weight", None),
            getattr(policy, "peak_fraction", None),
        )

    def schedule_after(args, _schedule):
        stats = args[0].last_run_stats
        tracer.counts["core.schedule.candidates"] += stats["candidates_evaluated"]
        tracer.counts["thermal.fast_queries"] += stats["thermal_fast_queries"]

    def ga_key(architecture, objective=None, config=None, seed=None,
               evaluate=None, rng=None):
        if evaluate is not None or rng is not None:
            # injected hooks are not content-addressable: count as distinct
            return ("injected", len(tracer.keys["floorplan.evolve"]))
        weights = (
            None
            if objective is None
            else (objective.area_weight, objective.temp_weight,
                  objective.wirelength_weight, objective.aspect_weight,
                  objective.aspect_limit)
        )
        return (
            _arch_key(architecture),
            weights,
            dataclasses.astuple(config or GeneticConfig()),
            seed if isinstance(seed, (int, type(None))) else repr(seed),
            _power_map(objective),
        )

    def thermal_key(_model, floorplan, package=None):
        return (_plan_key(floorplan), dataclasses.astuple(package or default_package()))

    def thermal_after(args, _none):
        tracer._models.add(args[0])

    tracer.patch_method(ListScheduler, "run", "core.schedule",
                        key=schedule_key, after=schedule_after)
    tracer.patch_method(ListScheduler, "__init__", "core.prepare")
    tracer.patch_method(HotSpotModel, "__init__", "thermal.model_build",
                        key=thermal_key, after=thermal_after)
    tracer.track_model_lifetimes(HotSpotModel)
    tracer.patch_function(evolve_floorplan, "floorplan.evolve", key=ga_key)
    tracer.patch_method(CoSynthesisFramework, "run", "cosynth.run")
    tracer.patch_function(build_workload, "scenarios.build_workload")
    tracer.patch_function(evaluate_schedule, "analysis.evaluate")
    tracer.patch_function(reclaim_slack, "extensions.dvfs")
    for method in ("append", "index", "get"):
        tracer.patch_method(ResultStore, method, f"results.{method}")
    tracer.patch_function(repro.dse.driver.run_dse, "dse.search")
    tracer.patch_function(repro.dse.driver.evaluate_population, "dse.generation")
    tracer.patch_method(Flow, "run", "flow.run")
    tracer.patch_method(ServeDaemon, "handle_submit", "serve.handle")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    obs_spans: Iterable[Dict[str, Any]] = (),
) -> Dict[str, float]:
    """Per-layer calls / self time / counters of one traced run."""
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, _trace, _name, start, end, _thread in tracer.spans:
        if parent:
            child_time[parent] += end - start
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    total_self = 0.0
    for span_id, _parent, _trace, name, start, end, _thread in tracer.spans:
        own = (end - start) - child_time[span_id]
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += own
        total_self += own
    for name in KEYED_LAYERS:
        calls = metrics[f"{name}.calls"]
        metrics[f"{name}.unique_ratio"] = (
            len(tracer.keys[name]) / calls if calls else 0.0
        )
    candidates = tracer.counts["core.schedule.candidates"]
    schedule_s = metrics["core.schedule.self_s"]
    metrics["core.schedule.candidates"] = candidates
    metrics["core.schedule.candidates_per_s"] = (
        candidates / schedule_s if schedule_s > 0 else 0.0
    )
    for name in ("thermal.queries", "thermal.solver_solves", "thermal.fast_queries"):
        metrics[name] = tracer.counts[name]
    metrics.update(_flow_split(tracer.spans, child_time, obs_spans))
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.coverage"] = total_self / wall_s if wall_s > 0 else 0.0
    return metrics


def _flow_split(
    spans: List[Span],
    child_time: Dict[int, float],
    obs_spans: Iterable[Dict[str, Any]],
) -> Dict[str, float]:
    """Split ``flow.run`` self time over the program's ``flow.*`` phases.

    A phase's share is its own duration minus the measured layers that
    ran inside it; what no phase covers is ``flow.self.other_s``.
    """
    flows: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] == "flow.run":
            flows[span[6]].append(span)
    flow_ids = {span[0] for spans_ in flows.values() for span in spans_}
    for span in spans:
        if span[1] in flow_ids:
            children[span[1]].append((span[4], span[5]))
    for thread_flows in flows.values():
        thread_flows.sort(key=lambda s: s[4])
    starts = {thread: [s[4] for s in fl] for thread, fl in flows.items()}

    split = {f"flow.self.{p.split('.', 1)[1]}_s": 0.0 for p in FLOW_PHASES}
    for obs in obs_spans:
        if obs["name"] not in FLOW_PHASES or obs["thread"] not in flows:
            continue
        thread = obs["thread"]
        index = bisect_right(starts[thread], obs["start"]) - 1
        if index < 0:
            continue
        flow = flows[thread][index]
        if obs["end"] > flow[5]:
            continue
        inside = sum(
            end - start
            for start, end in children[flow[0]]
            if start >= obs["start"] and end <= obs["end"]
        )
        split[f"flow.self.{obs['name'].split('.', 1)[1]}_s"] += (
            obs["end"] - obs["start"] - inside
        )
    flow_self = sum(
        (s[5] - s[4]) - child_time[s[0]] for fl in flows.values() for s in fl
    )
    split["flow.self.other_s"] = flow_self - sum(split.values())
    return split
