"""The scenario registry and the built-in suites.

Four suites ship built in:

* ``paper-tables`` — the one spec list behind the paper's Tables 1–3
  and Figure 1 (co-synthesis and platform rows).  Run it into a result
  store and the ``table1``/``table2``/``table3``/``figure1`` analyzers
  (:mod:`repro.results.paper`) report every row from the stored
  records.
* ``policy-ablation`` — every registered DC policy across the benchmark
  suite on the fixed platform.
* ``scaling-stress`` — generated ``layered`` workloads swept over task
  count, platform width and seed; the "does it scale" suite.
* ``conditional-suite`` — the conditional video pipeline across
  scheduling policies and scene-change probabilities.

User suites register through :func:`register_scenario`; lookup follows
the shared hyphen/underscore normalization (``"paper_tables"`` works).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..core.heuristics import POLICY_NAMES
from ..errors import FlowSpecError
from ..flow.spec import (
    ConditionalSpec,
    FlowSpec,
    GraphSourceSpec,
    cosynthesis_spec,
    generated_source,
    platform_spec,
)
from ..registry import Registry
from ..taskgraph.benchmarks import BENCHMARK_NAMES
from .spec import ScenarioCase, ScenarioSpec, scenario

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "scenario_by_name",
    "scenario_names",
    "run_scenario",
]

SCENARIOS = Registry("scenario")


def register_scenario(spec, name: Optional[str] = None):
    """Register a :class:`ScenarioSpec` — or a lazy zero-arg factory.

    A factory (which requires an explicit *name*) is invoked fresh on
    every :func:`scenario_by_name` lookup, so suites built over live
    registries (e.g. "every registered policy") see late registrations.
    Shadowing a taken name raises.
    """
    if isinstance(spec, ScenarioSpec):
        SCENARIOS.register(name or spec.name, spec)
        return spec
    if callable(spec):
        if not name:
            raise FlowSpecError(
                "registering a scenario factory needs an explicit name"
            )
        SCENARIOS.register(name, spec)
        return spec
    raise FlowSpecError(
        f"register_scenario expects a ScenarioSpec or a factory, got "
        f"{type(spec).__name__}"
    )


def scenario_by_name(name: str) -> ScenarioSpec:
    """The registered scenario called *name* (``-``/``_`` interchangeable)."""
    entry = SCENARIOS.get(name)
    if isinstance(entry, ScenarioSpec):
        return entry
    built = entry()
    if not isinstance(built, ScenarioSpec):
        raise FlowSpecError(
            f"scenario factory {name!r} returned "
            f"{type(built).__name__}, expected a ScenarioSpec"
        )
    return built


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return SCENARIOS.names()


def run_scenario(
    name_or_spec: Union[str, ScenarioSpec],
    overrides=None,
    workers: Optional[int] = None,
    cache_dir=None,
    store=None,
) -> List:
    """Expand a scenario and run it through ``run_many``.

    *overrides* is a ``{dotted.path: values}`` grid applied via
    :meth:`ScenarioSpec.with_grid` (the CLI's ``--set``).  With *store*
    set (a :class:`~repro.results.ResultStore` or directory path), every
    result streams into the store as it finishes, tagged with the
    suite's name.  Returns the :class:`~repro.flow.FlowResult` list in
    expansion order.
    """
    spec = (
        scenario_by_name(name_or_spec)
        if isinstance(name_or_spec, str)
        else name_or_spec
    )
    if overrides:
        spec = spec.with_grid(overrides)
    from ..flow.batch import run_many  # late: avoids a package import cycle

    return run_many(
        spec.expand(),
        workers=workers,
        cache_dir=cache_dir,
        store=store,
        suite=spec.name,
    )


# ----------------------------------------------------------------------
# built-in suites
# ----------------------------------------------------------------------
_BENCHMARKS = tuple(BENCHMARK_NAMES)
_TABLE1_POLICIES = ("baseline", "heuristic1", "heuristic2", "heuristic3")

register_scenario(
    ScenarioSpec(
        name="paper-tables",
        description="the spec set behind the paper's Tables 1-3",
        cases=(
            # Table 1, co-synthesis, baseline rows: traditional
            # (performance) selection
            ScenarioCase(
                cosynthesis_spec(
                    "Bm1",
                    policy="baseline",
                    final_cost="performance",
                    screening="performance",
                ),
                grid={"graph.name": _BENCHMARKS},
            ),
            # Table 1, co-synthesis, heuristic rows: power-driven selection
            ScenarioCase(
                cosynthesis_spec(
                    "Bm1",
                    policy="heuristic1",
                    final_cost="power",
                    screening="default",
                ),
                grid={
                    "graph.name": _BENCHMARKS,
                    "policy.name": ("heuristic1", "heuristic2", "heuristic3"),
                },
            ),
            # Table 1 platform rows + Table 3 (power- and thermal-aware)
            ScenarioCase(
                platform_spec("Bm1", policy="baseline"),
                grid={
                    "graph.name": _BENCHMARKS,
                    "policy.name": _TABLE1_POLICIES + ("thermal",),
                },
            ),
            # Table 2, power-aware representative (heuristic 3)
            ScenarioCase(
                cosynthesis_spec("Bm1", policy="heuristic3", final_cost="power"),
                grid={"graph.name": _BENCHMARKS},
            ),
            # Table 2, thermal-aware co-synthesis
            ScenarioCase(
                cosynthesis_spec("Bm1", policy="thermal", final_cost="thermal"),
                grid={"graph.name": _BENCHMARKS},
            ),
        ),
    )
)

def _policy_ablation() -> ScenarioSpec:
    """Built fresh per lookup: the policy axis tracks the live registry,
    so policies registered after import still join the ablation."""
    return scenario(
        "policy-ablation",
        platform_spec("Bm1", policy="baseline"),
        grid={
            "graph.name": _BENCHMARKS,
            "policy.name": tuple(POLICY_NAMES),
        },
        description="every registered DC policy x the benchmark suite "
        "(fixed platform)",
    )


register_scenario(_policy_ablation, name="policy-ablation")

register_scenario(
    scenario(
        "scaling-stress",
        platform_spec(
            policy="thermal",
            # 1.5x deadline slack: the narrow 2-PE grid points are stress
            # tests of scale, not of schedulability.  No explicit name —
            # each grid point self-labels as layered-<tasks>t-s<seed>
            graph=generated_source(
                "layered", tasks=24, seed=1, deadline_slack=1.5
            ),
        ),
        grid={
            "graph.tasks": (24, 48, 96),
            "architecture.count": (2, 4, 8),
            "graph.seed": (1, 2),
        },
        description="generated layered workloads over task count, platform "
        "width and seed",
    )
)

register_scenario(
    scenario(
        "conditional-suite",
        FlowSpec(
            flow="platform",
            graph=GraphSourceSpec(kind="conditional", name="video-frame"),
            conditional=ConditionalSpec(enabled=True),
        ),
        grid={
            "policy.name": ("baseline", "heuristic3", "thermal"),
            "conditional.guard_probabilities": (
                [],  # the built-in 10% scene-change distribution
                [["scene", "change", 0.5], ["scene", "same", 0.5]],
                [["scene", "change", 0.9], ["scene", "same", 0.1]],
            ),
        },
        description="the conditional video pipeline across policies and "
        "scene-change probabilities",
    )
)
