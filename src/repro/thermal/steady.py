"""Steady-state solution of thermal networks.

The thermal-aware ASP queries the thermal model once per (ready task ×
candidate PE) pair at every scheduling step, so the steady-state solve is
the hot path of the whole reproduction.  :class:`SteadyStateSolver`
therefore factorises the conductance matrix **once** (Cholesky — ``G`` is
symmetric positive definite once grounded) and reuses the factor for every
power vector.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from ..errors import SingularNetworkError, ThermalError
from .network import ThermalNetwork

__all__ = ["SteadyStateSolver"]


class SteadyStateSolver:
    """Cached-factorisation steady-state solver for one network.

    The network must not be mutated after the solver is built; build a new
    solver if the floorplan (and hence the network) changes.
    """

    def __init__(self, network: ThermalNetwork):
        network.check_grounded()
        self.network = network
        matrix = network.conductance_matrix()
        try:
            self._factor = cho_factor(matrix)
        except LinAlgError as exc:
            raise SingularNetworkError(
                f"conductance matrix is not SPD: {exc}"
            ) from exc
        self.solve_count = 0

    def fork(self) -> "SteadyStateSolver":
        """A solver sharing this factorisation with fresh counters.

        The Cholesky factor is the expensive, immutable part; forking
        skips re-factorising while giving the new consumer (one served
        request, one leased model) its own ``solve_count`` provenance.
        """
        clone = object.__new__(SteadyStateSolver)
        clone.network = self.network
        clone._factor = self._factor
        clone.solve_count = 0
        return clone

    def solve_rise(self, power: np.ndarray) -> np.ndarray:
        """Temperature **rise** over ambient for a raw power vector."""
        if power.shape != (len(self.network),):
            raise ThermalError(
                f"power vector has shape {power.shape}, expected "
                f"({len(self.network)},)"
            )
        self.solve_count += 1
        return cho_solve(self._factor, power)

    def solve_rise_many(self, powers: np.ndarray) -> np.ndarray:
        """Temperature rises for a 2-D power matrix, one backsolve call.

        ``powers`` is ``(n_nodes, k)`` — one power vector per column; the
        result has the same shape.  A multi-RHS ``cho_solve`` amortises the
        factor traversal over all columns, which is what makes batched
        block queries and influence-vector precomputation cheap.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.ndim != 2 or powers.shape[0] != len(self.network):
            raise ThermalError(
                f"power matrix has shape {powers.shape}, expected "
                f"({len(self.network)}, k)"
            )
        self.solve_count += powers.shape[1]
        return cho_solve(self._factor, powers)

    def influence_columns(self, indices: Sequence[int]) -> np.ndarray:
        """Columns of ``G⁻¹`` for the given node *indices*.

        Column *j* of the result is the temperature rise of every node per
        watt injected at ``indices[j]`` — the superposition basis the
        vectorized query engine is built on.  ``(n_nodes, len(indices))``.
        """
        size = len(self.network)
        unit = np.zeros((size, len(indices)), dtype=float)
        for column, index in enumerate(indices):
            if not 0 <= index < size:
                raise ThermalError(
                    f"node index {index} out of range for {size}-node network"
                )
            unit[index, column] = 1.0
        return self.solve_rise_many(unit)

    def temperatures_array(self, power: np.ndarray) -> np.ndarray:
        """Absolute node temperatures (°C) for a raw power vector.

        The index-based sibling of :meth:`temperatures` — no dict churn.
        """
        return self.network.ambient_c + self.solve_rise(power)

    def temperatures(self, power_by_node: Mapping[str, float]) -> Dict[str, float]:
        """Absolute temperatures (°C) for a node->W power map."""
        rise = self.solve_rise(self.network.power_vector(power_by_node))
        ambient = self.network.ambient_c
        return {
            name: ambient + rise[index]
            for index, name in enumerate(self.network.node_names())
        }
