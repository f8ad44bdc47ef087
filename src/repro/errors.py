"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TaskGraphError",
    "CycleError",
    "LibraryError",
    "UnknownTaskTypeError",
    "UnknownPETypeError",
    "FloorplanError",
    "SlicingError",
    "ThermalError",
    "SingularNetworkError",
    "SchedulingError",
    "DeadlineMissError",
    "InfeasibleAllocationError",
    "CoSynthesisError",
    "ExperimentError",
    "FlowError",
    "FlowSpecError",
    "ResultError",
    "ServeError",
    "ServeConnectionError",
    "LintError",
    "DseError",
    "ResilienceError",
    "InjectedFaultError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class TaskGraphError(ReproError):
    """Structural problem in a task graph (bad node, bad edge, bad field)."""


class CycleError(TaskGraphError):
    """The task graph contains a directed cycle and therefore is not a DAG."""


class LibraryError(ReproError):
    """Problem with a technology library (missing or inconsistent entries)."""


class UnknownTaskTypeError(LibraryError):
    """A task references a task type absent from the technology library."""


class UnknownPETypeError(LibraryError):
    """An architecture references a PE type absent from the catalogue."""


class FloorplanError(ReproError):
    """Geometric problem in a floorplan (overlap, bad dimensions...)."""


class SlicingError(FloorplanError):
    """Malformed slicing tree / Polish expression."""


class ThermalError(ReproError):
    """Problem while building or solving a thermal network."""


class SingularNetworkError(ThermalError):
    """The thermal conductance matrix is singular (network not grounded)."""


class SchedulingError(ReproError):
    """The ASP could not produce a valid schedule."""


class DeadlineMissError(SchedulingError):
    """A produced schedule violates the task-graph deadline.

    Carries the achieved makespan and the deadline so callers (e.g. the
    co-synthesis loop) can reason about how far off the attempt was.
    """

    def __init__(self, makespan: float, deadline: float, message: str = ""):
        self.makespan = float(makespan)
        self.deadline = float(deadline)
        text = message or (
            f"schedule makespan {self.makespan:.3f} exceeds "
            f"deadline {self.deadline:.3f}"
        )
        super().__init__(text)


class InfeasibleAllocationError(SchedulingError):
    """No PE in the current allocation can execute some task type."""


class CoSynthesisError(ReproError):
    """The co-synthesis outer loop failed to find a feasible architecture."""


class ExperimentError(ReproError):
    """An experiment definition is inconsistent or failed to run."""


class FlowError(ReproError):
    """A declarative flow could not be assembled or executed."""


class FlowSpecError(FlowError):
    """A :class:`~repro.flow.FlowSpec` (or its serialized form) is invalid."""


class ResultError(FlowError):
    """A run record, result store, or analyzer request is invalid."""


class ServeError(ReproError):
    """A serving request, response, or daemon configuration is invalid."""


class ServeConnectionError(ServeError):
    """A transport-level failure talking to the daemon (reset, refused).

    Distinguished from protocol-level :class:`ServeError` so the client
    can retry these under its bounded budget — a connection reset is a
    transient network event, while a 422 error payload is not.
    """


class LintError(ReproError):
    """A ``repro lint`` invocation is invalid (bad path, unknown rule)."""


class DseError(ReproError):
    """A design-space-exploration run is misconfigured or corrupt."""


class ResilienceError(ReproError):
    """A fault plan or retry policy is invalid (see docs/RESILIENCE.md)."""


class InjectedFaultError(ResilienceError):
    """An armed :class:`~repro.resilience.FaultPlan` fired at this site.

    Only ever raised while a plan is armed — production code paths never
    construct it.  Carrying the site and ordinal lets chaos tests assert
    *which* injected failure they recovered from.
    """

    def __init__(self, site: str, ordinal: int, message: str = ""):
        self.site = site
        self.ordinal = int(ordinal)
        text = message or (
            f"injected fault at {site!r} (ordinal {self.ordinal})"
        )
        super().__init__(text)
