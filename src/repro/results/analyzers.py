"""The pluggable analysis/reporting layer over stored run records.

An *analyzer* is a callable ``(runset, **options) -> AnalysisReport``
registered by name in the shared :class:`~repro.registry.Registry`.
Five general analyzers ship built in here:

* ``summary`` — per (flow, policy) aggregates: run counts, mean/max
  temperatures, deadline-miss counts, cache-hit counts;
* ``compare`` — the paper's shape statistics
  (:mod:`repro.analysis.compare`) between a baseline policy and every
  other policy, aligned per (flow, benchmark);
* ``pareto`` — the non-dominated records under configurable minimised
  objectives (default: total power and max temperature);
* ``reliability`` — per-run electromigration MTTF factors from the
  stored per-PE temperatures (:mod:`repro.analysis.reliability`);
* ``deadline-misses`` — every record that missed its deadline, with the
  magnitude of the miss.

The paper's own artefacts — ``table1``, ``table2``, ``table3`` and
``figure1`` — are analyzers too, over a stored ``paper-tables`` run
(:mod:`repro.results.paper`).

Reports render uniformly to aligned text tables, JSON, or CSV through
:meth:`AnalysisReport.render`, so the CLI's ``results report`` emits any
analyzer in any format.  User analyzers join via::

    from repro.results import register_analyzer

    @register_analyzer("energy")
    def energy(runs, **options):
        ...
        return AnalysisReport(name="energy", title="...", rows=rows)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ResultError
from ..registry import Registry
from .runset import RunSet, rows_to_csv

__all__ = [
    "ANALYZERS",
    "AnalysisReport",
    "analyze",
    "analyzer_by_name",
    "analyzer_names",
    "register_analyzer",
]

ANALYZERS = Registry("analyzer")

#: Formats :meth:`AnalysisReport.render` understands.
REPORT_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class AnalysisReport:
    """What an analyzer hands back: named, titled, tabular findings.

    ``rows`` are flat JSON-safe dicts; ``columns`` optionally pins the
    render order (default: keys of the first row); ``notes`` are extra
    lines rendered after a blank line under the table (aggregate
    statistics, caveats).
    """

    name: str
    title: str
    rows: Tuple[Dict[str, Any], ...]
    columns: Optional[Tuple[str, ...]] = None
    notes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if self.columns is not None and not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not isinstance(self.notes, tuple):
            object.__setattr__(self, "notes", tuple(self.notes))

    def render(self, fmt: str = "table") -> str:
        """The report as aligned text, a JSON object, or CSV rows."""
        if fmt == "table":
            from ..analysis.report import format_table

            text = format_table(list(self.rows), self.columns, title=self.title)
            if self.notes:
                text += "\n\n" + "\n".join(self.notes)
            return text
        if fmt == "json":
            return json.dumps(
                {
                    "analyzer": self.name,
                    "title": self.title,
                    "rows": list(self.rows),
                    "notes": list(self.notes),
                },
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        if fmt == "csv":
            return rows_to_csv(self.rows, self.columns)
        raise ResultError(
            f"unknown report format {fmt!r}; available: {REPORT_FORMATS}"
        )


def register_analyzer(
    name: str, fn: Optional[Callable[..., AnalysisReport]] = None
):
    """Register an analyzer callable; usable as ``@register_analyzer(name)``."""
    return ANALYZERS.register(name, fn)


def analyzer_by_name(name: str) -> Callable[..., AnalysisReport]:
    """The registered analyzer called *name* (``-``/``_`` interchangeable)."""
    return ANALYZERS.get(name)


def analyzer_names() -> Tuple[str, ...]:
    """All registered analyzer names, in registration order."""
    return ANALYZERS.names()


def analyze(name: str, runs: RunSet, **options: Any) -> AnalysisReport:
    """Run one analyzer by name over *runs*."""
    report = analyzer_by_name(name)(runs, **options)
    if not isinstance(report, AnalysisReport):
        raise ResultError(
            f"analyzer {name!r} returned {type(report).__name__}, "
            f"expected an AnalysisReport"
        )
    return report


# ----------------------------------------------------------------------
# built-in analyzers
# ----------------------------------------------------------------------
def _policy(record) -> str:
    return record.get("spec.policy.name", "")


def _benchmark(record) -> str:
    return record.get("metrics.benchmark", "")


@register_analyzer("summary")
def summary(runs: RunSet, **options: Any) -> AnalysisReport:
    """Per (flow, policy) aggregates over the whole run set."""
    _reject_unknown_options("summary", options)
    groups: Dict[Tuple[str, str], List[Any]] = {}
    for record in runs:
        groups.setdefault((record.flow, _policy(record)), []).append(record)

    def _finite(members: List[Any], path: str) -> List[float]:
        # json_safe nulls non-finite metrics; aggregate over what's left
        return [v for v in (r.get(path) for r in members) if v is not None]

    rows = []
    for (flow, policy), members in groups.items():
        max_temps = _finite(members, "metrics.max_temperature")
        avg_temps = _finite(members, "metrics.avg_temperature")
        rows.append(
            {
                "flow": flow,
                "policy": policy,
                "runs": len(members),
                "benchmarks": len({_benchmark(r) for r in members}),
                "mean_max_temp": round(sum(max_temps) / len(max_temps), 2)
                if max_temps else None,
                "peak_max_temp": round(max(max_temps), 2) if max_temps else None,
                "mean_avg_temp": round(sum(avg_temps) / len(avg_temps), 2)
                if avg_temps else None,
                "deadline_misses": sum(
                    1 for r in members if not r.get("metrics.meets_deadline")
                ),
                "cache_hits": sum(
                    1 for r in members if r.get("provenance.cache_hit")
                ),
            }
        )
    return AnalysisReport(
        name="summary",
        title=f"summary: {len(runs)} runs, {len(groups)} (flow, policy) groups",
        rows=tuple(rows),
        notes=(f"skipped store entries: {runs.skipped}",) if runs.skipped else (),
    )


@register_analyzer("compare")
def compare(
    runs: RunSet,
    metric: str = "max_temperature",
    baseline: Optional[str] = None,
    **options: Any,
) -> AnalysisReport:
    """Shape statistics of every policy against a baseline policy.

    Records are aligned per (flow, benchmark), so a platform run is never
    compared with a co-synthesis run (latest record per (policy, flow,
    benchmark) wins); each policy gets one row per flow it shares with
    the baseline.  *metric* names a ``metrics.*`` field and *baseline* a
    policy name (default: the first policy in record order).  Wraps
    :func:`repro.analysis.compare.average_delta`,
    :func:`~repro.analysis.compare.fraction_improved` and
    :func:`~repro.analysis.compare.spearman_rank_correlation`.
    """
    _reject_unknown_options("compare", options)
    from ..analysis.compare import (
        average_delta,
        fraction_improved,
        spearman_rank_correlation,
    )

    path = metric if "." in metric else f"metrics.{metric}"
    by_group: Dict[Tuple[str, str], Dict[str, float]] = {}
    for record in runs:
        value = record.get(path)
        if value is None:
            continue
        group = (_policy(record), record.flow)
        by_group.setdefault(group, {})[_benchmark(record)] = value
    if not by_group:
        raise ResultError(
            f"no records carry metric {path!r}; nothing to compare"
        )
    policies = list(dict.fromkeys(policy for policy, _ in by_group))
    base = baseline if baseline is not None else policies[0]
    if base not in policies:
        raise ResultError(
            f"baseline policy {base!r} has no records; "
            f"policies present: {policies}"
        )
    rows = []
    for (policy, flow), values in by_group.items():
        if policy == base:
            continue
        base_by_benchmark = by_group.get((base, flow), {})
        shared = sorted(set(base_by_benchmark) & set(values))
        if not shared:
            continue
        base_values = [base_by_benchmark[b] for b in shared]
        policy_values = [values[b] for b in shared]
        row: Dict[str, Any] = {
            "policy": policy,
            "flow": flow,
            "baseline": base,
            "benchmarks": len(shared),
            "avg_delta": round(average_delta(base_values, policy_values), 3),
            "fraction_improved": round(
                fraction_improved(base_values, policy_values), 3
            ),
        }
        row["spearman_vs_baseline"] = (
            round(spearman_rank_correlation(base_values, policy_values), 3)
            if len(shared) >= 2
            else "-"
        )
        rows.append(row)
    return AnalysisReport(
        name="compare",
        title=f"compare: {path} vs baseline policy {base!r} "
        f"(positive avg_delta = policy improves on baseline)",
        rows=tuple(rows),
    )


@register_analyzer("pareto")
def pareto(
    runs: RunSet,
    objectives: Sequence[str] = ("total_power", "max_temperature"),
    **options: Any,
) -> AnalysisReport:
    """The non-dominated records under minimised *objectives*."""
    _reject_unknown_options("pareto", options)
    if isinstance(objectives, str):
        objectives = tuple(part.strip() for part in objectives.split(",") if part.strip())
    paths = [o if "." in o else f"metrics.{o}" for o in objectives]
    if not paths:
        raise ResultError("pareto needs at least one objective")
    points = []
    for record in runs:
        values = [record.get(path) for path in paths]
        if any(v is None for v in values):
            continue
        points.append((tuple(float(v) for v in values), record))
    front = []
    for values, record in points:
        dominated = any(
            all(o <= v for o, v in zip(other, values))
            and any(o < v for o, v in zip(other, values))
            for other, _ in points
        )
        if not dominated:
            front.append((values, record))
    rows = []
    for values, record in front:
        row = {
            "benchmark": _benchmark(record),
            "policy": _policy(record),
            "flow": record.flow,
        }
        for objective, value in zip(objectives, values):
            row[objective.split(".")[-1]] = round(value, 3)
        row["spec_hash"] = record.spec_hash
        rows.append(row)
    return AnalysisReport(
        name="pareto",
        title=f"pareto front: {len(front)}/{len(points)} records "
        f"non-dominated on ({', '.join(objectives)})",
        rows=tuple(rows),
    )


@register_analyzer("reliability")
def reliability(
    runs: RunSet, ref_temp_c: float = 65.0, **options: Any
) -> AnalysisReport:
    """Electromigration MTTF factors per run, from stored PE temperatures."""
    _reject_unknown_options("reliability", options)
    from ..analysis.reliability import reliability_report

    rows = []
    for record in runs:
        temps = record.get("metrics.pe_temperatures")
        if not temps:
            continue
        report = reliability_report(temps, ref_temp_c=float(ref_temp_c))
        rows.append(
            {
                "benchmark": _benchmark(record),
                "policy": _policy(record),
                "flow": record.flow,
                "system_mttf_factor": round(report.system_mttf_factor, 3),
                "worst_pe": report.worst_pe,
                "spec_hash": record.spec_hash,
            }
        )
    return AnalysisReport(
        name="reliability",
        title=f"reliability: series-system MTTF factor vs {ref_temp_c} C "
        f"reference ({len(rows)} runs)",
        rows=tuple(rows),
    )


@register_analyzer("deadline-misses")
def deadline_misses(runs: RunSet, **options: Any) -> AnalysisReport:
    """Every record whose final design missed its deadline."""
    _reject_unknown_options("deadline-misses", options)
    rows = []
    for record in runs:
        if record.get("metrics.meets_deadline"):
            continue
        makespan = record.get("metrics.makespan")
        deadline = record.get("metrics.deadline")
        finite = makespan is not None and deadline is not None
        rows.append(
            {
                "benchmark": _benchmark(record),
                "policy": _policy(record),
                "flow": record.flow,
                "makespan": round(makespan, 1) if makespan is not None else None,
                "deadline": deadline,
                "overrun": round(makespan - deadline, 1) if finite else None,
                "spec_hash": record.spec_hash,
            }
        )
    return AnalysisReport(
        name="deadline-misses",
        title=f"deadline misses: {len(rows)} of {len(runs)} runs",
        rows=tuple(rows),
        notes=() if rows else ("every run met its deadline",),
    )


def _reject_unknown_options(name: str, options: Dict[str, Any]) -> None:
    """Built-in analyzers take keyword options only; typos must not pass
    silently (a misspelt ``--opt baselin=`` would change the report)."""
    if options:
        raise ResultError(
            f"analyzer {name!r} got unknown options {sorted(options)}"
        )
