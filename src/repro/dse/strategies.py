"""Pluggable search strategies behind the shared :class:`Registry`.

Every strategy speaks one protocol — :meth:`SearchStrategy.propose`
emits a generation's candidates, :meth:`SearchStrategy.observe` feeds
their objective vectors back — and draws randomness exclusively from
:func:`~repro.dse.candidate.substream` paths handed out by the
:class:`StrategyContext`.  That makes every trajectory a pure function
of ``(config, seed)``: the driver replays completed generations from the
result store after a crash and lands in the exact strategy state the
killed run had, byte for byte.

Strategies never build thermal solvers or run flows themselves (the
``DSE001`` lint rule enforces this): candidate screening goes through
the context's injected ``screen`` callback (the driver's one screen
function) and full evaluation through the driver's batch layer.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cosynth.pareto import pareto_indices
from ..errors import DseError
from ..registry import Registry
from .candidate import (
    CandidateSpec,
    PlacementEntry,
    crossover,
    mutate,
    random_candidate,
    substream,
)
from .evaluate import EvaluatedCandidate

__all__ = [
    "STRATEGIES",
    "SearchStrategy",
    "StrategyContext",
    "build_strategy",
    "register_strategy",
    "scalar_cost",
    "strategy_names",
]


STRATEGIES = Registry("dse strategy")


def register_strategy(name: str, factory: Optional[Callable] = None) -> Callable:
    """Register ``factory(context) -> SearchStrategy`` (decorator-friendly)."""
    return STRATEGIES.register(name, factory)


def strategy_names() -> Tuple[str, ...]:
    """All registered strategy names, in registration order."""
    return STRATEGIES.names()


def build_strategy(name: str, context: "StrategyContext") -> "SearchStrategy":
    """Instantiate the registered strategy *name* over *context*."""
    return STRATEGIES.get(name)(context)


def scalar_cost(objectives: Sequence[float]) -> float:
    """Scalarised cost (objective product) for single-best selection.

    All three objectives are positive and minimised, so their product is
    a deterministic, scale-free tie-breaking scalar for the greedy and
    annealing strategies.
    """
    cost = 1.0
    for value in objectives:
        cost *= float(value)
    return cost


class StrategyContext:
    """Search-space parameters plus the seeded RNG/variation toolkit.

    Owns everything a strategy may touch: substream derivation (so all
    randomness is path-addressed under one seed), the variation operators
    bound to the configured space, and the driver-injected thermal
    ``screen`` for ranking placement moves without full flow runs.
    """

    def __init__(
        self,
        seed: int,
        population: int,
        benchmark: str = "Bm1",
        catalogue: str = "default",
        pes: Sequence[Optional[str]] = (None,),
        counts: Sequence[int] = (4,),
        policies: Sequence[str] = ("thermal",),
        dvfs_options: Sequence[bool] = (False,),
        screen: Optional[Callable[[Tuple[PlacementEntry, ...]], float]] = None,
    ):
        if population < 1:
            raise DseError(f"population must be >= 1, got {population}")
        self.seed = int(seed)
        self.population = int(population)
        self.benchmark = benchmark
        self.catalogue = catalogue
        self.pes = tuple(pes)
        self.counts = tuple(counts)
        self.policies = tuple(policies)
        self.dvfs_options = tuple(dvfs_options)
        self.screen = screen

    # ------------------------------------------------------------------
    def rng(self, *path: object) -> random.Random:
        """The deterministic substream for a derivation *path*."""
        return substream(self.seed, *path)

    def random_candidate(self, rng: random.Random) -> CandidateSpec:
        """One uniform draw over the configured space."""
        return random_candidate(
            rng,
            benchmark=self.benchmark,
            catalogue=self.catalogue,
            pes=self.pes,
            counts=self.counts,
            policies=self.policies,
            dvfs_options=self.dvfs_options,
        )

    def mutate(
        self, candidate: CandidateSpec, rng: random.Random
    ) -> CandidateSpec:
        """One mutation, thermally screened when a screen is injected."""
        return mutate(
            candidate,
            rng,
            pes=self.pes,
            counts=self.counts,
            policies=self.policies,
            dvfs_options=self.dvfs_options,
            screen=self.screen,
        )

    def crossover(
        self,
        parent_a: CandidateSpec,
        parent_b: CandidateSpec,
        rng: random.Random,
    ) -> CandidateSpec:
        """One recombined child of the two parents."""
        return crossover(parent_a, parent_b, rng)


class SearchStrategy:
    """Base protocol: seeded propose/observe over generations."""

    name = "base"

    def __init__(self, context: StrategyContext):
        self.context = context

    def initial_population(self, generation: int) -> List[CandidateSpec]:
        """The uniform seeding shared by every built-in strategy."""
        return [
            self.context.random_candidate(
                self.context.rng(generation, slot, "init")
            )
            for slot in range(self.context.population)
        ]

    def propose(self, generation: int) -> List[CandidateSpec]:
        """The candidates to evaluate for *generation*."""
        raise NotImplementedError

    def observe(
        self, generation: int, evaluated: Sequence[EvaluatedCandidate]
    ) -> None:
        """Feed back the generation's objective vectors."""
        raise NotImplementedError


@register_strategy("random")
class RandomSearch(SearchStrategy):
    """Independent uniform draws every generation (the coverage baseline)."""

    name = "random"

    def propose(self, generation: int) -> List[CandidateSpec]:
        return self.initial_population(generation)

    def observe(
        self, generation: int, evaluated: Sequence[EvaluatedCandidate]
    ) -> None:
        pass


@register_strategy("greedy")
class GreedySearch(SearchStrategy):
    """Hill climbing around the best-so-far scalarised candidate.

    Keeps the incumbent with the lowest objective product and proposes it
    plus ``population - 1`` mutations of it each generation — the
    simplest exploit-only baseline the ISSUE calls for.
    """

    name = "greedy"

    def __init__(self, context: StrategyContext):
        super().__init__(context)
        self._best: Optional[EvaluatedCandidate] = None

    def propose(self, generation: int) -> List[CandidateSpec]:
        if self._best is None:
            return self.initial_population(generation)
        proposals = [self._best.candidate]
        for slot in range(1, self.context.population):
            proposals.append(
                self.context.mutate(
                    self._best.candidate,
                    self.context.rng(generation, slot, "mutate"),
                )
            )
        return proposals

    def observe(
        self, generation: int, evaluated: Sequence[EvaluatedCandidate]
    ) -> None:
        for item in evaluated:
            if self._best is None or scalar_cost(item.objectives) < scalar_cost(
                self._best.objectives
            ):
                self._best = item


@register_strategy("annealing")
class AnnealingSearch(SearchStrategy):
    """Per-slot Metropolis chains with a geometric temperature ladder.

    Each population slot runs its own independent annealing chain (its
    substream path includes the slot), so the whole population is one
    parallel batch per generation — the chains only synchronise at the
    evaluation barrier.
    """

    name = "annealing"

    def __init__(
        self,
        context: StrategyContext,
        initial_temperature: float = 1.0,
        cooling: float = 0.85,
    ):
        super().__init__(context)
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)
        self._current: List[Optional[EvaluatedCandidate]] = [
            None for _ in range(context.population)
        ]

    def temperature(self, generation: int) -> float:
        """The chain temperature for *generation* (relative-cost units)."""
        return self.initial_temperature * self.cooling ** max(0, generation - 1)

    def propose(self, generation: int) -> List[CandidateSpec]:
        if all(item is None for item in self._current):
            return self.initial_population(generation)
        proposals = []
        for slot, incumbent in enumerate(self._current):
            if incumbent is None:
                proposals.append(
                    self.context.random_candidate(
                        self.context.rng(generation, slot, "init")
                    )
                )
            else:
                proposals.append(
                    self.context.mutate(
                        incumbent.candidate,
                        self.context.rng(generation, slot, "mutate"),
                    )
                )
        return proposals

    def observe(
        self, generation: int, evaluated: Sequence[EvaluatedCandidate]
    ) -> None:
        temperature = self.temperature(generation)
        for slot, item in enumerate(evaluated):
            incumbent = self._current[slot]
            if incumbent is None:
                self._current[slot] = item
                continue
            old_cost = scalar_cost(incumbent.objectives)
            new_cost = scalar_cost(item.objectives)
            if new_cost <= old_cost:
                self._current[slot] = item
                continue
            # relative degradation keeps acceptance scale-free
            degradation = (new_cost - old_cost) / max(old_cost, 1e-300)
            rng = self.context.rng(generation, slot, "accept")
            if temperature > 0.0 and rng.random() < pow(
                2.718281828459045, -degradation / temperature
            ):
                self._current[slot] = item


def _nondominated_ranks(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Front rank (0 = nondominated) of each vector, deterministic."""
    remaining = list(range(len(vectors)))
    ranks = [0 for _ in vectors]
    rank = 0
    while remaining:
        front_local = pareto_indices([vectors[i] for i in remaining])
        front = [remaining[j] for j in front_local]
        for index in front:
            ranks[index] = rank
        front_set = dict.fromkeys(front)
        remaining = [i for i in remaining if i not in front_set]
        rank += 1
    return ranks


def _crowding_distances(vectors: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance within one front (inf at the rims)."""
    count = len(vectors)
    if count == 0:
        return []
    if count <= 2:
        return [float("inf")] * count
    distances = [0.0 for _ in range(count)]
    objectives = len(vectors[0])
    for axis in range(objectives):
        order = sorted(range(count), key=lambda i: (vectors[i][axis], i))
        low = vectors[order[0]][axis]
        high = vectors[order[-1]][axis]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = high - low
        if span <= 0.0:
            continue
        for position in range(1, count - 1):
            gap = (
                vectors[order[position + 1]][axis]
                - vectors[order[position - 1]][axis]
            ) / span
            distances[order[position]] += gap
    return distances


@register_strategy("nsga2")
class Nsga2Search(SearchStrategy):
    """NSGA-II-style elitist multi-objective genetic search.

    Environmental selection keeps the population's best fronts (crowding
    distance truncates the last partial front); variation is binary
    tournament on (rank, crowding) followed by crossover + mutation.
    All tie-breaks are index-stable so a replayed run reselects the exact
    same pool.
    """

    name = "nsga2"

    def __init__(self, context: StrategyContext):
        super().__init__(context)
        self._pool: List[EvaluatedCandidate] = []
        self._ranks: List[int] = []
        self._crowding: List[float] = []

    def propose(self, generation: int) -> List[CandidateSpec]:
        if not self._pool:
            return self.initial_population(generation)
        proposals = []
        for slot in range(self.context.population):
            rng = self.context.rng(generation, slot, "vary")
            parent_a = self._tournament(rng)
            parent_b = self._tournament(rng)
            child = self.context.crossover(
                parent_a.candidate, parent_b.candidate, rng
            )
            if rng.random() < 0.9:
                child = self.context.mutate(child, rng)
            proposals.append(child)
        return proposals

    def _tournament(self, rng: random.Random) -> EvaluatedCandidate:
        i = rng.randrange(len(self._pool))
        j = rng.randrange(len(self._pool))
        key_i = (self._ranks[i], -self._crowding[i], i)
        key_j = (self._ranks[j], -self._crowding[j], j)
        return self._pool[i] if key_i <= key_j else self._pool[j]

    def observe(
        self, generation: int, evaluated: Sequence[EvaluatedCandidate]
    ) -> None:
        combined: List[EvaluatedCandidate] = []
        seen: Dict[str, bool] = {}
        for item in list(self._pool) + list(evaluated):
            if item.spec_hash in seen:
                continue
            seen[item.spec_hash] = True
            combined.append(item)
        vectors = [item.objectives for item in combined]
        ranks = _nondominated_ranks(vectors)
        # fill fronts in rank order until the population is full
        by_front: Dict[int, List[int]] = {}
        for index, rank in enumerate(ranks):
            by_front.setdefault(rank, []).append(index)
        selected: List[int] = []
        for rank in sorted(by_front):
            front = by_front[rank]
            if len(selected) + len(front) <= self.context.population:
                selected.extend(front)
                continue
            room = self.context.population - len(selected)
            if room > 0:
                crowding = _crowding_distances(
                    [vectors[i] for i in front]
                )
                order = sorted(
                    range(len(front)),
                    key=lambda k: (-crowding[k], front[k]),
                )
                selected.extend(front[k] for k in order[:room])
            break
        self._pool = [combined[i] for i in selected]
        pool_vectors = [item.objectives for item in self._pool]
        self._ranks = _nondominated_ranks(pool_vectors)
        self._crowding = [0.0 for _ in self._pool]
        pool_fronts: Dict[int, List[int]] = {}
        for index, rank in enumerate(self._ranks):
            pool_fronts.setdefault(rank, []).append(index)
        for front in pool_fronts.values():
            front_crowding = _crowding_distances(
                [pool_vectors[i] for i in front]
            )
            for local, index in enumerate(front):
                self._crowding[index] = front_crowding[local]
