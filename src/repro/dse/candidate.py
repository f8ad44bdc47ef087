"""Candidate encoding and variation operators for the DSE driver.

A :class:`CandidateSpec` is one point of the searched design space —
(floorplan placement, PE type, core count, scheduling policy, DVFS
setting) — expressed so that :meth:`CandidateSpec.to_flow_spec` lowers it
onto the ordinary :class:`~repro.flow.FlowSpec` grammar (an ``explicit``
floorplan inside a ``platform`` flow).  Candidates therefore inherit the
whole batch/cache/store machinery for free: evaluating a candidate IS
running a flow, and its ``spec_hash`` is its identity everywhere (result
store, trajectory, resume).

Variation is seeded and functional: every operator takes an explicit
``random.Random`` stream, and :func:`substream` derives independent
per-(seed, generation, slot) streams by hashing the path — no RNG state
is ever persisted, which is what makes kill-and-resume byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import DseError, FloorplanError
from ..floorplan.annealing import AnnealingConfig, anneal_floorplan
from ..floorplan.geometry import Floorplan, Rect
from ..flow.spec import (
    ArchitectureSpec,
    DVFSSpec,
    FloorplanSpec,
    FlowSpec,
    LibrarySpec,
    platform_spec,
)
from ..library.catalogues import catalogue_by_name
from ..library.pe import Architecture
from ..rng import as_random

__all__ = [
    "CandidateSpec",
    "MUTATION_KINDS",
    "architecture_for",
    "crossover",
    "mutate",
    "placement_of",
    "random_candidate",
    "seeded_layout",
    "substream",
]

#: One placed block: (name, x, y, w, h) in mm.
PlacementEntry = Tuple[str, float, float, float, float]

#: Annealing budget for per-candidate relayouts — deliberately short; the
#: DSE loop refines placements through its own move mutations.
_LAYOUT_CONFIG = AnnealingConfig(
    initial_temperature=30.0,
    final_temperature=2.0,
    cooling_rate=0.6,
    moves_per_temperature=8,
)

#: Mutation operators, with the move/swap pair (placement changes over a
#: fixed block set) dominating the mixture.
MUTATION_KINDS = (
    ("move", 0.45),
    ("swap", 0.15),
    ("relayout", 0.10),
    ("policy", 0.10),
    ("dvfs", 0.10),
    ("arch", 0.10),
)


def substream(seed: int, *path: object) -> random.Random:
    """Deterministic RNG substream for a (seed, \\*path) derivation path.

    The stream is a pure function of its arguments (SHA-256 over the JSON
    form), so any (generation, slot) stream can be re-derived during
    resume without persisting generator state.
    """
    digest = hashlib.sha256(
        json.dumps([seed, [str(part) for part in path]]).encode("utf-8")
    ).digest()
    return as_random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class CandidateSpec:
    """One design-space point, lowerable to a :class:`FlowSpec`.

    ``pe=None`` means the catalogue's platform PE type.  ``placement``
    holds the explicit floorplan (block names must be the architecture's
    ``pe0..pe{count-1}`` instance names).
    """

    benchmark: str = "Bm1"
    catalogue: str = "default"
    pe: Optional[str] = None
    count: int = 4
    policy: str = "thermal"
    dvfs: bool = False
    placement: Tuple[Tuple[str, float, float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DseError(f"candidate count must be >= 1, got {self.count}")
        if not isinstance(self.placement, tuple) or any(
            not isinstance(entry, tuple) for entry in self.placement
        ):
            object.__setattr__(
                self,
                "placement",
                tuple(tuple(entry) for entry in self.placement),
            )
        if not self.placement:
            raise DseError("candidates need a non-empty placement")
        if len(self.placement) != self.count:
            raise DseError(
                f"candidate places {len(self.placement)} blocks for "
                f"{self.count} PEs"
            )

    # ------------------------------------------------------------------
    def floorplan(self) -> Floorplan:
        """The candidate's placement as a validated :class:`Floorplan`."""
        plan = Floorplan()
        for name, x, y, w, h in self.placement:
            plan.place(name, x, y, w, h)
        plan.validate()
        return plan

    def to_flow_spec(self) -> FlowSpec:
        """Lower onto the platform flow with an explicit floorplan."""
        base = platform_spec(self.benchmark, policy=self.policy)
        return base.with_(
            library=LibrarySpec(catalogue=self.catalogue),
            architecture=ArchitectureSpec(count=self.count, pe=self.pe),
            floorplan=FloorplanSpec(kind="explicit", placement=self.placement),
            dvfs=DVFSSpec(enabled=self.dvfs),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready)."""
        return {
            "benchmark": self.benchmark,
            "catalogue": self.catalogue,
            "pe": self.pe,
            "count": self.count,
            "policy": self.policy,
            "dvfs": self.dvfs,
            "placement": [list(entry) for entry in self.placement],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidateSpec":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        if not isinstance(data, Mapping):
            raise DseError(
                f"CandidateSpec expects a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DseError(
                f"unknown CandidateSpec keys {unknown}; known: {sorted(known)}"
            )
        payload = dict(data)
        placement = payload.pop("placement", ())
        if not isinstance(placement, (list, tuple)):
            raise DseError("candidate placement must be a list")
        return cls(
            placement=tuple(tuple(entry) for entry in placement), **payload
        )


# ----------------------------------------------------------------------
# architecture / layout plumbing
# ----------------------------------------------------------------------
def architecture_for(
    catalogue: str, pe: Optional[str], count: int
) -> Architecture:
    """The homogeneous platform architecture a candidate describes.

    Mirrors the flow runner's architecture construction, so candidate
    placements use the same ``pe0..pe{count-1}`` block names the flow
    will expect.
    """
    spec = catalogue_by_name(catalogue)
    pe_name = pe or spec.platform_pe
    if pe_name is None:
        raise DseError(
            f"catalogue {catalogue!r} declares no platform PE; candidates "
            f"must name one of {spec.type_names()}"
        )
    return Architecture.homogeneous("platform", spec.pe_type(pe_name), count)


def placement_of(plan: Floorplan) -> Tuple[PlacementEntry, ...]:
    """A floorplan's blocks as placement tuples, in insertion order."""
    return tuple(
        (block.name, block.rect.x, block.rect.y, block.rect.w, block.rect.h)
        for block in plan
    )


def seeded_layout(
    architecture: Architecture, rng: random.Random
) -> Tuple[PlacementEntry, ...]:
    """A fresh slicing layout drawn from *rng* (short annealing budget).

    This is the injected-callback reuse of the legacy floorplanners the
    refactor exists for: the annealer runs on an externally owned stream
    so layouts are per-candidate deterministic substreams, never a shared
    global sequence.
    """
    result = anneal_floorplan(architecture, config=_LAYOUT_CONFIG, rng=rng)
    return placement_of(result.floorplan)


def random_candidate(
    rng: random.Random,
    benchmark: str = "Bm1",
    catalogue: str = "default",
    pes: Sequence[Optional[str]] = (None,),
    counts: Sequence[int] = (4,),
    policies: Sequence[str] = ("thermal",),
    dvfs_options: Sequence[bool] = (False,),
) -> CandidateSpec:
    """Draw one candidate uniformly over the configured space."""
    pe = rng.choice(list(pes))
    count = rng.choice(list(counts))
    candidate = CandidateSpec(
        benchmark=benchmark,
        catalogue=catalogue,
        pe=pe,
        count=count,
        policy=rng.choice(list(policies)),
        dvfs=rng.choice(list(dvfs_options)),
        placement=seeded_layout(architecture_for(catalogue, pe, count), rng),
    )
    return candidate


# ----------------------------------------------------------------------
# variation operators
# ----------------------------------------------------------------------
def _rects_of(
    placement: Sequence[PlacementEntry],
) -> List[Tuple[str, Rect]]:
    return [(name, Rect(x, y, w, h)) for name, x, y, w, h in placement]


def _valid(rects: Sequence[Tuple[str, Rect]]) -> bool:
    for i, (_, a) in enumerate(rects):
        for _, b in rects[i + 1 :]:
            if a.overlaps(b):
                return False
    return True


def _entries(rects: Sequence[Tuple[str, Rect]]) -> Tuple[PlacementEntry, ...]:
    return tuple(
        (name, rect.x, rect.y, rect.w, rect.h) for name, rect in rects
    )


def _move_block(
    placement: Tuple[PlacementEntry, ...],
    rng: random.Random,
    screen: Optional[Callable[[Tuple[PlacementEntry, ...]], float]] = None,
    proposals: int = 4,
    tries: int = 12,
) -> Tuple[PlacementEntry, ...]:
    """Translate one block to a nearby overlap-free position.

    Generates up to *proposals* valid moves and, when a *screen* callback
    is given (the driver's thermal screen), keeps the
    thermally best one; without a screen the first valid move wins.
    """
    rects = _rects_of(placement)
    span = max(max(r.x2 for _, r in rects), max(r.y2 for _, r in rects))
    step = max(1.0, span / 4.0)
    candidates: List[Tuple[PlacementEntry, ...]] = []
    for _ in range(tries):
        index = rng.randrange(len(rects))
        name, rect = rects[index]
        moved = Rect(
            max(0.0, rect.x + rng.uniform(-step, step)),
            max(0.0, rect.y + rng.uniform(-step, step)),
            rect.w,
            rect.h,
        )
        trial = list(rects)
        trial[index] = (name, moved)
        if _valid(trial):
            candidates.append(_entries(trial))
            if screen is None or len(candidates) >= proposals:
                break
    if not candidates:
        return placement
    if screen is None or len(candidates) == 1:
        return candidates[0]
    scores = [screen(entry) for entry in candidates]
    return candidates[scores.index(min(scores))]


def _swap_blocks(
    placement: Tuple[PlacementEntry, ...], rng: random.Random
) -> Tuple[PlacementEntry, ...]:
    """Exchange two blocks' origins (keeps each block's own dimensions)."""
    if len(placement) < 2:
        return placement
    rects = _rects_of(placement)
    i, j = rng.sample(range(len(rects)), 2)
    name_i, rect_i = rects[i]
    name_j, rect_j = rects[j]
    trial = list(rects)
    trial[i] = (name_i, Rect(rect_j.x, rect_j.y, rect_i.w, rect_i.h))
    trial[j] = (name_j, Rect(rect_i.x, rect_i.y, rect_j.w, rect_j.h))
    if _valid(trial):
        return _entries(trial)
    return placement


def _pick_other(
    current: object, options: Sequence[object], rng: random.Random
) -> object:
    """A uniformly drawn option, preferring one different from *current*."""
    others = [option for option in options if option != current]
    if not others:
        return current
    return rng.choice(others)


def mutate(
    candidate: CandidateSpec,
    rng: random.Random,
    pes: Sequence[Optional[str]] = (None,),
    counts: Sequence[int] = (4,),
    policies: Sequence[str] = ("thermal",),
    dvfs_options: Sequence[bool] = (False,),
    screen: Optional[Callable[[Tuple[PlacementEntry, ...]], float]] = None,
) -> CandidateSpec:
    """One mutated copy of *candidate* (weighted operator mixture).

    Placement operators (move/swap) keep the block set fixed; ``arch``
    mutations change it.  Only ``move`` consults *screen*, scoring each
    proposed move by its uniform-power peak temperature.
    """
    draw = rng.random()
    cumulative = 0.0
    kind = MUTATION_KINDS[-1][0]
    for name, weight in MUTATION_KINDS:
        cumulative += weight
        if draw < cumulative:
            kind = name
            break
    if kind == "move":
        return CandidateSpec(
            benchmark=candidate.benchmark,
            catalogue=candidate.catalogue,
            pe=candidate.pe,
            count=candidate.count,
            policy=candidate.policy,
            dvfs=candidate.dvfs,
            placement=_move_block(candidate.placement, rng, screen=screen),
        )
    if kind == "swap":
        return CandidateSpec(
            benchmark=candidate.benchmark,
            catalogue=candidate.catalogue,
            pe=candidate.pe,
            count=candidate.count,
            policy=candidate.policy,
            dvfs=candidate.dvfs,
            placement=_swap_blocks(candidate.placement, rng),
        )
    if kind == "relayout":
        architecture = architecture_for(
            candidate.catalogue, candidate.pe, candidate.count
        )
        return CandidateSpec(
            benchmark=candidate.benchmark,
            catalogue=candidate.catalogue,
            pe=candidate.pe,
            count=candidate.count,
            policy=candidate.policy,
            dvfs=candidate.dvfs,
            placement=seeded_layout(architecture, rng),
        )
    if kind == "policy":
        return CandidateSpec(
            benchmark=candidate.benchmark,
            catalogue=candidate.catalogue,
            pe=candidate.pe,
            count=candidate.count,
            policy=str(_pick_other(candidate.policy, policies, rng)),
            dvfs=candidate.dvfs,
            placement=candidate.placement,
        )
    if kind == "dvfs":
        return CandidateSpec(
            benchmark=candidate.benchmark,
            catalogue=candidate.catalogue,
            pe=candidate.pe,
            count=candidate.count,
            policy=candidate.policy,
            dvfs=bool(_pick_other(candidate.dvfs, dvfs_options, rng)),
            placement=candidate.placement,
        )
    # arch: new (pe, count) draws a fresh layout for the new block set
    pe = _pick_other(candidate.pe, pes, rng)
    count = int(_pick_other(candidate.count, counts, rng))
    pe_name = pe if pe is None else str(pe)
    architecture = architecture_for(candidate.catalogue, pe_name, count)
    return CandidateSpec(
        benchmark=candidate.benchmark,
        catalogue=candidate.catalogue,
        pe=pe_name,
        count=count,
        policy=candidate.policy,
        dvfs=candidate.dvfs,
        placement=seeded_layout(architecture, rng),
    )


def crossover(
    parent_a: CandidateSpec, parent_b: CandidateSpec, rng: random.Random
) -> CandidateSpec:
    """One child mixing scalar genes and (when compatible) placements.

    Scalar genes (policy, DVFS) are drawn per-gene from either parent.
    Placements mix per-block with greedy overlap repair when the parents
    share one block set; otherwise the child inherits one parent's whole
    structure.  Deterministic for a given stream.
    """
    policy = parent_a.policy if rng.random() < 0.5 else parent_b.policy
    dvfs = parent_a.dvfs if rng.random() < 0.5 else parent_b.dvfs
    base, other = (
        (parent_a, parent_b) if rng.random() < 0.5 else (parent_b, parent_a)
    )
    placement = base.placement
    if (
        parent_a.catalogue == parent_b.catalogue
        and parent_a.pe == parent_b.pe
        and parent_a.count == parent_b.count
    ):
        other_rects = {name: rect for name, rect in _rects_of(other.placement)}
        mixed: List[Tuple[str, Rect]] = []
        repaired = True
        for name, rect in _rects_of(base.placement):
            preferred = (
                (other_rects[name], rect)
                if rng.random() < 0.5
                else (rect, other_rects[name])
            )
            for choice in preferred:
                if all(not choice.overlaps(placed) for _, placed in mixed):
                    mixed.append((name, choice))
                    break
            else:
                repaired = False
                break
        if repaired:
            placement = _entries(mixed)
    try:
        return CandidateSpec(
            benchmark=base.benchmark,
            catalogue=base.catalogue,
            pe=base.pe,
            count=base.count,
            policy=policy,
            dvfs=dvfs,
            placement=placement,
        )
    except (DseError, FloorplanError):
        # pathological mixes fall back to the base parent's genome
        return CandidateSpec(
            benchmark=base.benchmark,
            catalogue=base.catalogue,
            pe=base.pe,
            count=base.count,
            policy=policy,
            dvfs=dvfs,
            placement=base.placement,
        )
