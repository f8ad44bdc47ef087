"""repro.results — the unified results front door.

Every result leaves the system through this package:

* :class:`RunRecord` — the typed, versioned, strictly JSON-safe
  flattening of a :class:`~repro.flow.FlowResult`
  (``FlowResult.as_dict()`` *is* ``RunRecord.from_result(...).to_dict()``);
* :class:`ResultStore` — the append-only on-disk ledger (JSONL index +
  per-run blobs) batch runs stream into, queryable by suite, flow kind,
  spec-hash and dotted metric paths;
* :class:`RunSet` — a loaded, filterable record collection with table /
  JSON / CSV export;
* the analyzer registry — named ``(RunSet, **options) -> AnalysisReport``
  callables (``summary``, ``compare``, ``pareto``, ``reliability``,
  ``deadline-misses`` built in, plus the paper's ``table1``/``table2``/
  ``table3``/``figure1`` from :mod:`repro.results.paper`) behind the
  CLI's ``results report``;
* :func:`stream_records` / :func:`run_to_store` — bounded-memory
  streaming execution of large grids straight into a store;
* :func:`fsck_store` / :class:`FsckReport` — verify/repair/compact a
  store (re-index orphaned blobs, quarantine corrupt ones, rewrite a
  clean ledger); the CLI face is ``repro results fsck``.

See docs/RESULTS.md for the store layout, record schema, and analyzer
how-to; docs/RESILIENCE.md for the fsck runbook.
"""

from .record import (
    RECORD_SCHEMA_VERSION,
    ROW_COLUMNS,
    RunRecord,
    json_safe,
    metrics_from_evaluation,
    row_from_metrics,
)
from .runset import RunSet, rows_to_csv
from .store import ResultStore
from .analyzers import (
    ANALYZERS,
    AnalysisReport,
    analyze,
    analyzer_by_name,
    analyzer_names,
    register_analyzer,
)
from .paper import paper_specs, temperature_reductions
from .fsck import FsckReport, fsck_store
from .stream import run_to_store, stream_records

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "ROW_COLUMNS",
    "RunRecord",
    "json_safe",
    "metrics_from_evaluation",
    "row_from_metrics",
    "RunSet",
    "rows_to_csv",
    "ResultStore",
    "ANALYZERS",
    "AnalysisReport",
    "analyze",
    "analyzer_by_name",
    "analyzer_names",
    "register_analyzer",
    "paper_specs",
    "temperature_reductions",
    "stream_records",
    "run_to_store",
    "FsckReport",
    "fsck_store",
]
