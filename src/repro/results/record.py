"""The typed run record — the canonical flattening of a flow result.

A :class:`RunRecord` is the *stable* output contract of the substrate:
every way a result leaves the system (CLI ``--json``, the result store,
CSV export, the analyzers and the paper tables they report) goes through this one
flattening instead of inventing its own.  Records are

* **fully JSON-safe** — every value survives ``json.dumps`` without a
  ``default=`` hook (:func:`json_safe` converts numpy scalars/arrays,
  paths, enums, sets and tuples at construction time);
* **versioned** — :data:`RECORD_SCHEMA_VERSION` is stamped into every
  record (and into the batch-cache pickles), so readers can refuse
  payloads written by an incompatible library;
* **strictly round-trippable** — ``RunRecord.from_dict(r.to_dict()) ==
  r`` for every record, and unknown keys raise
  :class:`~repro.errors.ResultError` instead of being ignored.

The flattening itself is split into two reusable helpers so nothing else
in the package duplicates it: :func:`metrics_from_evaluation` captures a
:class:`~repro.analysis.metrics.ScheduleEvaluation` at full precision,
and :func:`row_from_metrics` derives the paper's rounded table columns
from those metrics (``ScheduleEvaluation.as_row`` and
``FlowResult.as_row`` both delegate here).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import PurePath
from typing import Any, Dict, Mapping, Optional

from ..errors import ResultError

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "ROW_COLUMNS",
    "RunRecord",
    "json_safe",
    "metrics_from_evaluation",
    "row_from_metrics",
]

#: Version of the record flattening.  Bump on any incompatible change to
#: the dict shape below; the result store and the batch cache refuse
#: payloads stamped with a different version.
#:
#: v2: traced runs may carry an ``obs`` summary (per-phase durations,
#: cache hit rates, trace id) inside ``provenance`` — absent when the
#: null recorder is active, so untraced records are unchanged in
#: content, but the stamp moves so caches never mix the two readings.
RECORD_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# JSON-safety
# ----------------------------------------------------------------------
def json_safe(value: Any) -> Any:
    """*value* converted to strictly JSON-serializable builtins.

    numpy scalars become ``int``/``float``, numpy arrays become lists,
    :class:`~pathlib.PurePath` becomes ``str``, enums become their
    ``.value``, tuples/sets become lists, and mapping keys become
    strings.  Non-finite floats become ``None`` (JSON has no NaN).
    Anything else that is not already a JSON builtin raises
    :class:`~repro.errors.ResultError` — a silently stringified object
    would hide a schema bug until a reader chokes on it.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, int):  # plain int or numpy integer via __index__
        return int(value)
    if isinstance(value, float):  # covers numpy.float64 (a float subclass)
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, PurePath):
        return str(value)
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [json_safe(item) for item in items]
    # numpy scalars/arrays without importing numpy: .item() collapses
    # 0-d scalars, .tolist() expands arrays
    if hasattr(value, "item") and hasattr(value, "tolist"):
        collapsed = value.tolist()
        if collapsed is value:  # defensive: tolist returning self
            raise ResultError(f"cannot make {type(value).__name__} JSON-safe")
        return json_safe(collapsed)
    raise ResultError(
        f"value {value!r} of type {type(value).__name__} is not "
        f"JSON-serializable; extend json_safe() or flatten it first"
    )


# ----------------------------------------------------------------------
# the two canonical flattenings of a ScheduleEvaluation
# ----------------------------------------------------------------------
def metrics_from_evaluation(evaluation: Any) -> Dict[str, Any]:
    """Full-precision metric dict of a ``ScheduleEvaluation``.

    Unlike the rounded table row, this keeps every digit (and the per-PE
    temperature/power maps), so reports and analyzers re-derived from a
    stored record are byte-identical to ones computed live.
    """
    return json_safe(
        {
            "benchmark": evaluation.benchmark,
            "architecture": evaluation.architecture,
            "policy": evaluation.policy,
            "total_power": evaluation.total_power,
            "max_temperature": evaluation.max_temperature,
            "avg_temperature": evaluation.avg_temperature,
            "makespan": evaluation.makespan,
            "deadline": evaluation.deadline,
            "slack": evaluation.slack,
            "load_balance": evaluation.load_balance,
            "meets_deadline": evaluation.meets_deadline,
            "pe_temperatures": dict(evaluation.pe_temperatures),
            "pe_powers": dict(evaluation.pe_powers),
        }
    )


#: Canonical column order of a record row (the paper's table columns
#: plus the flow id and spec hash).  Serialization sorts keys, so
#: ``from_dict`` restores this order for stable tables and CSV headers.
ROW_COLUMNS = (
    "benchmark",
    "architecture",
    "policy",
    "total_pow",
    "max_temp",
    "avg_temp",
    "makespan",
    "deadline",
    "meets_deadline",
    "flow",
    "spec_hash",
)


def _round(value: Any, digits: int) -> Any:
    """``round`` that passes ``None`` through (a non-finite metric was
    nulled by :func:`json_safe`; the cell must render, not crash)."""
    return None if value is None else round(value, digits)


def row_from_metrics(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """The paper's table columns, derived from a full-precision metric
    dict (the one flattening behind every ``as_row``)."""
    return {
        "benchmark": metrics["benchmark"],
        "architecture": metrics["architecture"],
        "policy": metrics["policy"],
        "total_pow": _round(metrics["total_power"], 2),
        "max_temp": _round(metrics["max_temperature"], 2),
        "avg_temp": _round(metrics["avg_temperature"], 2),
        "makespan": _round(metrics["makespan"], 1),
        "deadline": metrics["deadline"],
        "meets_deadline": metrics["meets_deadline"],
    }


# ----------------------------------------------------------------------
# the record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRecord:
    """One flow execution, flattened to stable JSON-safe data.

    ``spec`` is the full :class:`~repro.flow.FlowSpec` dict (strictly
    round-trippable through ``FlowSpec.from_dict``); ``metrics`` the
    full-precision evaluation; ``row`` the paper's rounded table columns
    plus ``flow``/``spec_hash``; ``conditional``/``dvfs``/``leakage``
    the optional post-pass summaries.  ``suite`` names the scenario
    suite the run belonged to (empty for ad-hoc runs) and ``scenario``
    is a free-form sub-label.
    """

    spec: Dict[str, Any]
    spec_hash: str
    flow: str
    row: Dict[str, Any]
    metrics: Dict[str, Any]
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    conditional: Optional[Dict[str, Any]] = None
    dvfs: Optional[Dict[str, Any]] = None
    leakage: Optional[Dict[str, Any]] = None
    suite: str = ""
    scenario: str = ""
    schema_version: int = RECORD_SCHEMA_VERSION

    # -- construction --------------------------------------------------
    @classmethod
    def from_result(
        cls, result: Any, suite: str = "", scenario: str = ""
    ) -> "RunRecord":
        """Flatten a :class:`~repro.flow.FlowResult` into a record."""
        metrics = metrics_from_evaluation(result.evaluation)
        # the result-level verdict, not the nominal evaluation's: for
        # conditional flows (and any custom flow kind) FlowResult
        # aggregates over every scenario
        metrics["meets_deadline"] = bool(result.meets_deadline)
        provenance = json_safe(dict(result.provenance))
        spec_hash = provenance.get("spec_hash", "")
        row = dict(row_from_metrics(metrics))
        row["flow"] = result.spec.flow
        row["spec_hash"] = spec_hash
        dvfs = None
        if result.dvfs is not None:
            dvfs = json_safe(
                {
                    "energy_before": result.dvfs.energy_before,
                    "energy_after": result.dvfs.energy_after,
                    "energy_saving_fraction": result.dvfs.energy_saving_fraction,
                    "makespan_before": result.dvfs.makespan_before,
                    "makespan_after": result.dvfs.makespan_after,
                    "lowered_tasks": result.dvfs.lowered_tasks,
                }
            )
        leakage = None
        if result.leakage is not None:
            leakage = json_safe(
                {
                    "total_leakage": result.leakage.total_leakage,
                    "iterations": result.leakage.iterations,
                    "converged": result.leakage.converged,
                }
            )
        conditional = None
        if result.conditional is not None:
            conditional = json_safe(dict(result.conditional.as_row()))
        return cls(
            spec=result.spec.to_dict(),
            spec_hash=spec_hash,
            flow=result.spec.flow,
            row=row,
            metrics=metrics,
            diagnostics=json_safe(dict(result.diagnostics)),
            provenance=provenance,
            timings={k: round(float(v), 6) for k, v in result.timings.items()},
            conditional=conditional,
            dvfs=dvfs,
            leakage=leakage,
            suite=str(suite),
            scenario=str(scenario),
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; :meth:`from_dict` restores it exactly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild from :meth:`to_dict` output; strict on unknown keys."""
        if not isinstance(data, Mapping):
            raise ResultError(
                f"RunRecord expects a mapping, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ResultError(
                f"unknown RunRecord keys {unknown}; known: {sorted(known)}"
            )
        payload = dict(data)
        version = payload.get("schema_version", RECORD_SCHEMA_VERSION)
        if version != RECORD_SCHEMA_VERSION:
            raise ResultError(
                f"record schema version {version!r} is not supported "
                f"(this library reads version {RECORD_SCHEMA_VERSION})"
            )
        for required in ("spec", "spec_hash", "flow", "row", "metrics"):
            if required not in payload:
                raise ResultError(f"RunRecord is missing {required!r}")
        row = payload["row"]
        if isinstance(row, Mapping):  # canonical-sorted JSON loses order
            payload["row"] = {
                **{c: row[c] for c in ROW_COLUMNS if c in row},
                **{k: v for k, v in row.items() if k not in ROW_COLUMNS},
            }
        return cls(**payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys); strictly serializable by design."""
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Parse :meth:`to_json` output back into an equal record."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultError(f"invalid RunRecord JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- access --------------------------------------------------------
    def get(self, path: str, default: Any = None) -> Any:
        """The value at dotted *path* into the record's dict form.

        ``record.get("metrics.max_temperature")``,
        ``record.get("spec.policy.name")``...  Missing segments return
        *default* instead of raising, so filters over heterogeneous
        record sets stay simple.
        """
        node: Any = self.to_dict()
        for part in path.split("."):
            if not isinstance(node, Mapping) or part not in node:
                return default
            node = node[part]
        return node

    def spec_obj(self):
        """The record's spec rebuilt as a :class:`~repro.flow.FlowSpec`."""
        from ..flow.spec import FlowSpec  # late: keep record import-light

        return FlowSpec.from_dict(self.spec)
