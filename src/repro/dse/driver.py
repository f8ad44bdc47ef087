"""The checkpointable DSE driver: seeded search over full flow runs.

One run lives in one directory::

    <out>/
        config.json        # the DseConfig; identity-checked on resume
        store/             # ResultStore — every evaluated flow record
        trajectory.jsonl   # one line per (generation, slot) evaluation
        archive.json       # Pareto front over all evaluations so far
        state.json         # {"generations": N} — completed generations

Crash safety is layered: the store appends records as they finish (so a
kill mid-generation loses at most in-flight flows), and the three
run-level files are rewritten atomically *after* each completed
generation, ``state.json`` last.  On resume the driver replays the
completed generations through the strategy — re-deriving every substream
and reading every objective vector back from the store
(``replay_only``) — so the strategy lands in the killed run's exact
state and the continuation is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import DseError
from ..floorplan.geometry import Floorplan
from ..obs import Counters, get_recorder
from ..results.store import ResultStore
from ..thermal.blockmodel import build_block_network
from ..thermal.query import ThermalQueryEngine
from .archive import ParetoArchive, trajectory_line
from .candidate import PlacementEntry
from .evaluate import EvaluatedCandidate, evaluate_population
from .strategies import StrategyContext, build_strategy

__all__ = ["DseConfig", "DseResult", "run_dse", "screen_placement"]

#: Store suite tag every DSE evaluation is filed under.
DSE_SUITE = "dse"


@dataclass(frozen=True)
class DseConfig:
    """Everything that determines a run's trajectory (and nothing else).

    Execution knobs that cannot change results — worker count, output
    directory — are deliberately *not* part of the config, so a resumed
    run may use different parallelism and still match byte-for-byte.
    """

    benchmark: str = "Bm1"
    strategy: str = "nsga2"
    seed: int = 0
    generations: int = 4
    population: int = 8
    catalogue: str = "default"
    pes: Tuple[Optional[str], ...] = (None,)
    counts: Tuple[int, ...] = (4,)
    policies: Tuple[str, ...] = ("thermal", "heuristic3")
    dvfs_options: Tuple[bool, ...] = (False, True)

    def __post_init__(self) -> None:
        if self.generations < 0:
            raise DseError(f"generations must be >= 0, got {self.generations}")
        if self.population < 1:
            raise DseError(f"population must be >= 1, got {self.population}")
        for name, value in (
            ("pes", self.pes),
            ("counts", self.counts),
            ("policies", self.policies),
            ("dvfs_options", self.dvfs_options),
        ):
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise DseError(f"DseConfig.{name} must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "benchmark": self.benchmark,
            "strategy": self.strategy,
            "seed": self.seed,
            "generations": self.generations,
            "population": self.population,
            "catalogue": self.catalogue,
            "pes": list(self.pes),
            "counts": list(self.counts),
            "policies": list(self.policies),
            "dvfs_options": list(self.dvfs_options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DseConfig":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        if not isinstance(data, Mapping):
            raise DseError(
                f"DseConfig expects a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DseError(
                f"unknown DseConfig keys {unknown}; known: {sorted(known)}"
            )
        payload = dict(data)
        for name in ("pes", "counts", "policies", "dvfs_options"):
            if name in payload:
                payload[name] = tuple(payload[name])
        return cls(**payload)


@dataclass
class DseResult:
    """What a (possibly resumed) driver call produced."""

    config: DseConfig
    generations: int
    evaluations: int
    front: List[EvaluatedCandidate]
    thermal_stats: Dict[str, int]
    out_dir: Path

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready) for CLI ``--json`` output."""
        return {
            "config": self.config.to_dict(),
            "evaluations": self.evaluations,
            "front": [entry.to_dict() for entry in self.front],
            "generations": self.generations,
            "out_dir": str(self.out_dir),
            "thermal_stats": dict(self.thermal_stats),
        }


#: Screen counter key.  Every screen builds its own network, so it counts
#: screens; the historical name stays because the benchmark's per-layer
#: ``dse.thermal.*`` counters (``perfbench/passes.py``) read this key.
_SCREEN_COUNTER = "full_rebuilds"


def screen_placement(
    placement: Tuple[PlacementEntry, ...], stats: Counters
) -> float:
    """Steady-state peak block temperature (°C) of *placement*.

    Every block dissipates 1 W — the uniform-stress score the mutation
    operators rank placement moves by.  This is the one construction
    site for thermal engines in the DSE loop; the ``DSE001`` lint rule
    keeps strategy code from growing its own.  Each call counts one
    screen in *stats* under :data:`_SCREEN_COUNTER`.
    """
    plan = Floorplan()
    for name, x, y, w, h in placement:
        plan.place(name, x, y, w, h)
    engine = ThermalQueryEngine.from_network(
        build_block_network(plan), plan.block_names()
    )
    stats.inc(_SCREEN_COUNTER)
    return float(engine.block_temperatures_vector(np.ones(len(engine))).max())


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _config_text(config: DseConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n"


def run_dse(
    config: DseConfig,
    out_dir: Union[str, Path],
    workers: Optional[int] = None,
    stop_after_generations: Optional[int] = None,
) -> DseResult:
    """Run (or resume) a seeded DSE search rooted at *out_dir*.

    ``stop_after_generations`` bounds the number of *new* generations
    executed by this call (the kill hook the resume tests use); replayed
    generations don't count against it.  Returns the state after the
    last completed generation either way.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    config_text = _config_text(config)
    if config_path.exists():
        existing = config_path.read_text(encoding="utf-8")
        if existing != config_text:
            raise DseError(
                f"run directory {out} belongs to a different DSE config; "
                f"refusing to mix trajectories"
            )
    else:
        _write_atomic(config_path, config_text)

    state_path = out / "state.json"
    completed = 0
    if state_path.exists():
        state = json.loads(state_path.read_text(encoding="utf-8"))
        completed = int(state.get("generations", 0))
    if completed > config.generations:
        raise DseError(
            f"checkpoint has {completed} generations but the config asks "
            f"for {config.generations}"
        )

    store = ResultStore(out / "store")
    screens = Counters((_SCREEN_COUNTER,), namespace="dse.thermal")
    context = StrategyContext(
        seed=config.seed,
        population=config.population,
        benchmark=config.benchmark,
        catalogue=config.catalogue,
        pes=config.pes,
        counts=config.counts,
        policies=config.policies,
        dvfs_options=config.dvfs_options,
        screen=functools.partial(screen_placement, stats=screens),
    )
    strategy = build_strategy(config.strategy, context)
    archive = ParetoArchive()

    def _checkpoint(generation_count: int) -> None:
        lines = [trajectory_line(entry) for entry in archive.entries]
        _write_atomic(
            out / "trajectory.jsonl",
            "".join(line + "\n" for line in lines),
        )
        _write_atomic(out / "archive.json", archive.dump(generation_count))
        _write_atomic(
            out / "state.json",
            json.dumps({"generations": generation_count}, sort_keys=True)
            + "\n",
        )

    rec = get_recorder()
    trace_id = f"dse-{config.benchmark}-s{config.seed}"

    # ---- replay completed generations from the store -----------------
    for generation in range(completed):
        with rec.span(
            "dse.generation", trace=trace_id, generation=generation, replay=True
        ):
            proposals = strategy.propose(generation)
            evaluated = evaluate_population(
                proposals,
                generation,
                store,
                suite=DSE_SUITE,
                workers=workers,
                replay_only=True,
            )
            strategy.observe(generation, evaluated)
            archive.extend(evaluated)

    # ---- execute the remaining generations ---------------------------
    executed = 0
    for generation in range(completed, config.generations):
        if (
            stop_after_generations is not None
            and executed >= stop_after_generations
        ):
            break
        with rec.span(
            "dse.generation", trace=trace_id, generation=generation, replay=False
        ):
            proposals = strategy.propose(generation)
            evaluated = evaluate_population(
                proposals,
                generation,
                store,
                suite=DSE_SUITE,
                workers=workers,
            )
            strategy.observe(generation, evaluated)
            archive.extend(evaluated)
        if rec.enabled:
            rec.counter("dse.generations")
            rec.counter("dse.evaluations", len(evaluated))
        executed += 1
        _checkpoint(generation + 1)

    reached = completed + executed
    if reached == 0:
        _checkpoint(0)
    return DseResult(
        config=config,
        generations=reached,
        evaluations=len(archive),
        front=archive.front(),
        thermal_stats=screens.as_dict(),
        out_dir=out,
    )
