"""repro.dse — seeded, checkpointable multi-objective design-space exploration.

Searches over (floorplan placement, PE type, core count, scheduling
policy, DVFS setting) candidates that lower onto the ordinary
:class:`~repro.flow.FlowSpec` grammar, evaluates populations through the
batch/store machinery, screens placement moves with a steady-state
thermal build per proposed move, and archives the
latency × peak-temperature × energy Pareto front byte-stably so a
killed run resumes into the exact same trajectory.
"""

from .archive import ParetoArchive, trajectory_line
from .candidate import (
    CandidateSpec,
    MUTATION_KINDS,
    architecture_for,
    crossover,
    mutate,
    placement_of,
    random_candidate,
    seeded_layout,
    substream,
)
from .driver import DseConfig, DseResult, run_dse
from .evaluate import (
    OBJECTIVE_NAMES,
    EvaluatedCandidate,
    evaluate_population,
    objectives_from_record,
)
from .strategies import (
    STRATEGIES,
    SearchStrategy,
    StrategyContext,
    build_strategy,
    register_strategy,
    scalar_cost,
    strategy_names,
)

__all__ = [
    "CandidateSpec",
    "DseConfig",
    "DseResult",
    "EvaluatedCandidate",
    "MUTATION_KINDS",
    "OBJECTIVE_NAMES",
    "ParetoArchive",
    "STRATEGIES",
    "SearchStrategy",
    "StrategyContext",
    "architecture_for",
    "build_strategy",
    "crossover",
    "evaluate_population",
    "mutate",
    "objectives_from_record",
    "placement_of",
    "random_candidate",
    "register_strategy",
    "run_dse",
    "scalar_cost",
    "seeded_layout",
    "strategy_names",
    "substream",
    "trajectory_line",
]
