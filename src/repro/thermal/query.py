"""Vectorized thermal query engine — O(1) per-candidate queries.

The thermal-aware ASP evaluates every (ready task × candidate PE) pair at
every scheduling step, and each evaluation needs the steady-state block
temperatures for "the committed powers plus this one candidate".  The
compact model is *linear*: ``T = ambient + G⁻¹ · P``, and power is only
ever injected at block (PE) nodes.  So the whole query surface collapses
to a small precomputed **response matrix**

    ``R[i, j] = dT_block_i / dW_block_j``  (°C per W),

the block-row/block-column restriction of ``G⁻¹``.  After one multi-RHS
backsolve per block at construction time:

* a full block-temperature query is ``R @ p`` — an ``n_blocks²`` matvec
  instead of a dense Cholesky backsolve over the whole network;
* the averaged temperature is ``avg_sensitivity @ p`` — ``n_blocks`` flops;
* a *delta* query — "the base powers plus Δ watts on block b" — is
  ``base + Δ · sensitivity[b]``: **O(1)** per candidate, exact to machine
  precision by superposition.

:class:`ThermalQueryEngine` is model-agnostic: :class:`HotSpotModel` builds
one from its block network, :class:`GridModel` folds its coverage and
cell-averaging matrices into the same ``n_blocks × n_blocks`` response, so
the scheduler fast path works unchanged under either solver.

:class:`ScheduledThermalQuery` is the scheduler-side adapter: it keeps the
per-PE committed-energy base state in index space (no name↔index dict
round-trips in the hot loop) and answers per-candidate average / peak /
block-temperature queries against it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ThermalError

__all__ = ["ThermalQueryEngine", "ScheduledThermalQuery"]


class ThermalQueryEngine:
    """Precomputed linear response of block temperatures to block powers.

    Parameters
    ----------
    block_names:
        Names defining the engine's index space (floorplan order).
    response:
        ``(n, n)`` matrix of temperature-rise sensitivities:
        ``response[i, j]`` is the °C rise of block *i* per W on block *j*.
    ambient_c:
        Ambient temperature added to every absolute-temperature result.
    setup_solves:
        How many steady-state backsolves the precomputation cost (for
        profiling reports).
    """

    def __init__(
        self,
        block_names: Sequence[str],
        response: np.ndarray,
        ambient_c: float,
        setup_solves: int = 0,
    ):
        names = tuple(block_names)
        if not names:
            raise ThermalError("query engine needs at least one block")
        if len(set(names)) != len(names):
            raise ThermalError("duplicate block names in query engine")
        matrix = np.asarray(response, dtype=float)
        if matrix.shape != (len(names), len(names)):
            raise ThermalError(
                f"response matrix has shape {matrix.shape}, expected "
                f"({len(names)}, {len(names)})"
            )
        self.block_names: Tuple[str, ...] = names
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self.response = matrix
        #: d(average block temperature)/dW per block — the column means.
        self.avg_sensitivity = matrix.mean(axis=0)
        self.ambient_c = float(ambient_c)
        self.setup_solves = int(setup_solves)
        #: Queries answered without touching a matrix factorisation.
        self.fast_queries = 0

    # ------------------------------------------------------------------
    # construction from the concrete models
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network, block_names: Sequence[str], solver=None):
        """Engine for a block-level network (block names are node names)."""
        from .steady import SteadyStateSolver

        solver = solver if solver is not None else SteadyStateSolver(network)
        indices = [network.index(name) for name in block_names]
        columns = solver.influence_columns(indices)  # (n_nodes, n_blocks)
        response = columns[np.asarray(indices, dtype=int), :]
        return cls(
            block_names, response, network.ambient_c,
            setup_solves=len(indices),
        )

    @classmethod
    def from_linear_map(
        cls,
        network,
        block_names: Sequence[str],
        inject: np.ndarray,
        project: np.ndarray,
        solver=None,
    ):
        """Engine for a model with power-spread and read-out matrices.

        ``inject`` (``n_nodes × n_blocks``) maps block powers onto node
        powers; ``project`` (``n_blocks × n_nodes``) maps node temperature
        rises back to block readings.  The grid model passes its coverage
        matrix and cell-averaging weights; the composition
        ``project · G⁻¹ · inject`` is the effective block response.
        """
        from .steady import SteadyStateSolver

        solver = solver if solver is not None else SteadyStateSolver(network)
        rises = solver.solve_rise_many(np.asarray(inject, dtype=float))
        response = np.asarray(project, dtype=float) @ rises
        return cls(
            block_names, response, network.ambient_c,
            setup_solves=inject.shape[1],
        )

    def fork(self) -> "ThermalQueryEngine":
        """An engine sharing this response matrix with fresh counters.

        The precomputed response (the expensive part — one backsolve per
        block) is immutable and safely shared; the fork only carries its
        own ``fast_queries`` provenance.  This is the injection hook the
        serving layer's warm :class:`~repro.serve.cache.EngineCache`
        uses: one precomputation, per-request counter isolation.
        """
        clone = object.__new__(ThermalQueryEngine)
        clone.block_names = self.block_names
        clone._index = self._index
        clone.response = self.response
        clone.avg_sensitivity = self.avg_sensitivity
        clone.ambient_c = self.ambient_c
        clone.setup_solves = self.setup_solves
        clone.fast_queries = 0
        return clone

    # ------------------------------------------------------------------
    # name <-> index plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.block_names)

    def block_index(self, name: str) -> int:
        """Index of *name* in the engine's block order."""
        try:
            return self._index[name]
        except KeyError:
            raise ThermalError(
                f"power given for unknown block {name!r}; "
                f"known blocks: {list(self.block_names)}"
            )

    def power_vector(self, power_by_block: Mapping[str, float]) -> np.ndarray:
        """Block-power vector from a (possibly partial) block->W map.

        Unknown names and negative powers raise, matching the network's
        power-vector contract.
        """
        vector = np.zeros(len(self.block_names), dtype=float)
        for name, power in power_by_block.items():
            if power < 0.0:
                raise ThermalError(f"negative power on node {name!r}: {power}")
            vector[self.block_index(name)] = float(power)
        return vector

    # ------------------------------------------------------------------
    # vector / batched / delta queries
    # ------------------------------------------------------------------
    def block_temperatures_vector(self, powers: np.ndarray) -> np.ndarray:
        """Absolute block temperatures (°C) for one block-power vector."""
        self.fast_queries += 1
        return self.ambient_c + self.response @ np.asarray(powers, dtype=float)

    def block_temperatures_many(self, powers: np.ndarray) -> np.ndarray:
        """Batched query: ``(k, n_blocks)`` powers → ``(k, n_blocks)`` °C."""
        matrix = np.asarray(powers, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.block_names):
            raise ThermalError(
                f"power matrix has shape {matrix.shape}, expected "
                f"(k, {len(self.block_names)})"
            )
        self.fast_queries += matrix.shape[0]
        return self.ambient_c + matrix @ self.response.T

    def average_temperature_vector(self, powers: np.ndarray) -> float:
        """Mean block temperature (°C) for one block-power vector."""
        self.fast_queries += 1
        return self.ambient_c + float(
            self.avg_sensitivity @ np.asarray(powers, dtype=float)
        )

    def average_temperatures_many(self, powers: np.ndarray) -> np.ndarray:
        """Batched averaged-temperature query: ``(k, n_blocks)`` → ``(k,)``."""
        matrix = np.asarray(powers, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.block_names):
            raise ThermalError(
                f"power matrix has shape {matrix.shape}, expected "
                f"(k, {len(self.block_names)})"
            )
        self.fast_queries += matrix.shape[0]
        return self.ambient_c + matrix @ self.avg_sensitivity

    def average_temperature_delta(
        self, base_average: float, block: int, delta_w: float
    ) -> float:
        """``average(base + Δ·e_b)`` given ``average(base)`` — O(1).

        *base_average* is an absolute averaged temperature previously
        returned by this engine; *block* is an engine block index.
        """
        self.fast_queries += 1
        return base_average + delta_w * self.avg_sensitivity[block]

    def block_temperatures_delta(
        self, base_temperatures: np.ndarray, block: int, delta_w: float
    ) -> np.ndarray:
        """``T(base + Δ·e_b)`` given ``T(base)`` — one axpy, no solve."""
        self.fast_queries += 1
        return base_temperatures + delta_w * self.response[:, block]

    def __repr__(self) -> str:
        return (
            f"ThermalQueryEngine(blocks={len(self.block_names)}, "
            f"fast_queries={self.fast_queries})"
        )


class ScheduledThermalQuery:
    """Delta-query adapter between the list scheduler and an engine.

    Holds the partial schedule's base power picture in PE-index space and
    answers per-candidate queries of the form "the committed energies plus
    this candidate's energy on its PE, averaged over this horizon":

        ``p = (E + ΔE·e_pe) / horizon + idle``

    Because the engine is linear, the dot products with the committed
    energy vector are cached per accumulator version (they change only
    when a task commits), so each candidate query is O(1) for the average
    and O(n_blocks) for the peak — no dict building, no backsolve.

    Falls out of use automatically (the scheduler keeps the slow path)
    when two PEs map onto one thermal block, where the legacy dict
    semantics are not linear.
    """

    def __init__(
        self,
        engine: ThermalQueryEngine,
        accumulator,
        pe_to_block: Optional[Mapping[str, str]] = None,
    ):
        self.engine = engine
        self.accumulator = accumulator
        names = accumulator.pe_names()
        mapping = pe_to_block or {}
        self._pe_index = {name: i for i, name in enumerate(names)}
        blocks = [engine.block_index(mapping.get(name, name)) for name in names]
        if len(set(blocks)) != len(blocks):
            raise ThermalError(
                "multiple PEs map onto one thermal block; the delta-query "
                "fast path needs a one-to-one PE->block mapping"
            )
        block_idx = np.asarray(blocks, dtype=int)
        # per-PE sensitivities, reordered into accumulator (PE) space
        self._sens = engine.avg_sensitivity[block_idx]
        self._resp = engine.response[:, block_idx]  # (n_blocks, n_pes)
        idle = accumulator.idle_vector()
        self._idle_avg = float(self._sens @ idle)
        self._idle_temps = self._resp @ idle
        self._version = -1
        self._base_avg_energy = 0.0
        self._base_temp_energy: Optional[np.ndarray] = None
        #: Candidate queries answered through the fast path.
        self.fast_hits = 0

    def _refresh(self) -> None:
        version = self.accumulator.version
        if version != self._version:
            energy = self.accumulator.energy_vector()
            self._base_avg_energy = float(self._sens @ energy)
            self._base_temp_energy = self._resp @ energy
            self._version = version

    def pe_index(self, pe_name: str) -> int:
        """Index of *pe_name* in the accumulator's PE order."""
        return self._pe_index[pe_name]

    # ------------------------------------------------------------------
    def average_temperature(
        self, pe_name: str, energy: float, horizon: float
    ) -> float:
        """``Avg_Temp`` with *energy* J added on *pe_name* — O(1)."""
        self._refresh()
        self.fast_hits += 1
        index = self._pe_index[pe_name]
        return (
            self.engine.ambient_c
            + (self._base_avg_energy + energy * self._sens[index]) / horizon
            + self._idle_avg
        )

    def block_temperatures(
        self, pe_name: str, energy: float, horizon: float
    ) -> np.ndarray:
        """All block temperatures for the same candidate state (°C)."""
        self._refresh()
        self.fast_hits += 1
        index = self._pe_index[pe_name]
        return (
            self.engine.ambient_c
            + (self._base_temp_energy + energy * self._resp[:, index]) / horizon
            + self._idle_temps
        )

    def peak_temperature(
        self, pe_name: str, energy: float, horizon: float
    ) -> float:
        """Hottest block temperature for the candidate state (°C)."""
        return float(self.block_temperatures(pe_name, energy, horizon).max())

    def __repr__(self) -> str:
        return (
            f"ScheduledThermalQuery(pes={len(self._pe_index)}, "
            f"fast_hits={self.fast_hits})"
        )
