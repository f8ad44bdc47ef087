"""Co-synthesis substrate (S7): allocation search + the Figure-1a framework.

Both design flows run through :func:`repro.flow.run_flow`; the
``cosynthesis`` flow kind drives :class:`CoSynthesisFramework`.
"""

from .allocation import enumerate_allocations, feasible_allocations, make_architecture
from .cost import (
    FinalCost,
    ScreeningCost,
    power_final_cost,
    screening_cost,
    thermal_final_cost,
)
from .pareto import DesignPoint, explore_allocations, pareto_front
from .framework import (
    CoSynthesisConfig,
    CoSynthesisFramework,
    CoSynthesisResult,
)

__all__ = [
    "enumerate_allocations",
    "feasible_allocations",
    "make_architecture",
    "ScreeningCost",
    "FinalCost",
    "screening_cost",
    "power_final_cost",
    "thermal_final_cost",
    "CoSynthesisConfig",
    "CoSynthesisFramework",
    "CoSynthesisResult",
    "DesignPoint",
    "explore_allocations",
    "pareto_front",
]
