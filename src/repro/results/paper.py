"""The paper's Tables 1–3 and Figure 1 as analyzers over stored runs.

Every paper artefact comes out of one path: run the ``paper-tables``
suite into a result store, then report from the store::

    python -m repro scenarios run paper-tables --store runs/
    python -m repro results report table3 --store runs/

Each report row names, by a selector over spec fields, the one spec of
the ``paper-tables`` expansion it reads; the analyzer looks that spec's
hash up in the run set, so no report ever re-executes a flow.  A report
covers every benchmark with at least one ``paper-tables`` record in the
run set, and a missing row raises :class:`~repro.errors.ExperimentError`
naming the gap.

The paper's published numbers (Tables 1–3, transcribed verbatim; W for
power, °C for temperatures) live here too, beside the rows that print
them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.compare import average_delta
from ..errors import ExperimentError
from ..flow.spec import FlowSpec, spec_hash
from ..scenarios.suites import scenario_by_name
from .analyzers import AnalysisReport, _reject_unknown_options, register_analyzer
from .record import RunRecord
from .runset import RunSet

__all__ = [
    "TABLE1_COSYNTHESIS",
    "TABLE1_PLATFORM",
    "TABLE2",
    "TABLE3",
    "PAPER_ROWS",
    "TABLE1_POLICIES",
    "PAPER_REPORTS",
    "paper_specs",
    "temperature_reductions",
]

#: (total_pow, max_temp, avg_temp) triples.
Triple = Tuple[float, float, float]

#: Table 1, co-synthesis architecture columns.
#: benchmark -> policy -> (total power, max temp, avg temp)
TABLE1_COSYNTHESIS: Dict[str, Dict[str, Triple]] = {
    "Bm1": {
        "baseline": (16.60, 118.18, 106.32),
        "heuristic1": (16.14, 121.70, 109.29),
        "heuristic2": (16.60, 118.18, 106.32),
        "heuristic3": (15.56, 113.29, 104.49),
    },
    "Bm2": {
        "baseline": (29.47, 121.44, 110.22),
        "heuristic1": (28.55, 115.21, 107.55),
        "heuristic2": (29.47, 121.44, 110.22),
        "heuristic3": (28.27, 112.82, 105.42),
    },
    "Bm3": {
        "baseline": (28.84, 113.58, 101.76),
        "heuristic1": (27.75, 110.33, 100.46),
        "heuristic2": (29.35, 110.49, 100.60),
        "heuristic3": (28.20, 109.96, 100.15),
    },
    "Bm4": {
        "baseline": (44.99, 122.09, 111.14),
        "heuristic1": (46.99, 122.28, 111.53),
        "heuristic2": (44.99, 117.86, 111.13),
        "heuristic3": (43.34, 118.68, 109.87),
    },
}

#: Table 1, platform-based architecture columns.
TABLE1_PLATFORM: Dict[str, Dict[str, Triple]] = {
    "Bm1": {
        "baseline": (11.91, 100.59, 81.03),
        "heuristic1": (10.40, 85.88, 75.58),
        "heuristic2": (12.60, 107.16, 82.78),
        "heuristic3": (10.40, 85.88, 75.58),
    },
    "Bm2": {
        "baseline": (24.48, 114.33, 101.04),
        "heuristic1": (23.36, 107.63, 98.21),
        "heuristic2": (24.90, 113.31, 99.96),
        "heuristic3": (24.09, 106.63, 97.40),
    },
    "Bm3": {
        "baseline": (26.88, 113.81, 98.47),
        "heuristic1": (26.10, 106.63, 96.74),
        "heuristic2": (26.88, 113.81, 98.47),
        "heuristic3": (25.20, 103.95, 94.69),
    },
    "Bm4": {
        "baseline": (42.35, 106.54, 97.05),
        "heuristic1": (40.33, 100.61, 89.74),
        "heuristic2": (42.35, 106.54, 91.62),
        "heuristic3": (41.64, 100.42, 89.24),
    },
}

#: Table 2: power-aware (H3) vs thermal-aware, co-synthesis architecture.
TABLE2: Dict[str, Dict[str, Triple]] = {
    "Bm1": {
        "power_aware": (15.56, 113.29, 104.49),
        "thermal_aware": (12.48, 87.11, 86.13),
    },
    "Bm2": {
        "power_aware": (28.27, 112.82, 105.42),
        "thermal_aware": (24.64, 106.38, 99.84),
    },
    "Bm3": {
        "power_aware": (28.20, 109.96, 100.15),
        "thermal_aware": (26.51, 102.08, 96.28),
    },
    "Bm4": {
        "power_aware": (43.34, 118.68, 109.87),
        "thermal_aware": (42.41, 106.32, 102.48),
    },
}

#: Table 3: power-aware (H3) vs thermal-aware, platform architecture.
TABLE3: Dict[str, Dict[str, Triple]] = {
    "Bm1": {
        "power_aware": (10.40, 85.88, 75.58),
        "thermal_aware": (6.37, 65.71, 61.16),
    },
    "Bm2": {
        "power_aware": (24.09, 106.63, 97.40),
        "thermal_aware": (22.37, 96.33, 93.47),
    },
    "Bm3": {
        "power_aware": (25.20, 103.95, 94.69),
        "thermal_aware": (24.98, 103.03, 94.59),
    },
    "Bm4": {
        "power_aware": (41.64, 100.42, 89.24),
        "thermal_aware": (38.54, 94.85, 85.76),
    },
}

#: Headline reductions the paper reports (°C): thermal-aware vs power-aware.
PAPER_ROWS = {
    "table2_max_temp_reduction": 10.9,
    "table2_avg_temp_reduction": 6.95,
    "table3_max_temp_reduction": 9.75,
    "table3_avg_temp_reduction": 5.02,
}

#: The four Table-1 policies, in the paper's row order.
TABLE1_POLICIES = ("baseline", "heuristic1", "heuristic2", "heuristic3")

# ----------------------------------------------------------------------
# row plans: per benchmark, (row labels, spec selector) in print order.
# A selector maps dotted FlowSpec attributes to the value the row's one
# paper-tables spec carries.
# ----------------------------------------------------------------------
_Plan = Tuple[Tuple[Dict[str, str], Dict[str, Any]], ...]

_TABLE1: _Plan = tuple(
    row
    for policy in TABLE1_POLICIES
    for row in (
        # traditional (performance) selection for the baseline,
        # power-driven selection for the heuristics
        (
            {"architecture": "co-synthesis", "policy": policy},
            {
                "flow": "cosynthesis",
                "policy.name": policy,
                "cosynth.final_cost":
                    "performance" if policy == "baseline" else "power",
                "cosynth.screening":
                    "performance" if policy == "baseline" else "default",
            },
        ),
        (
            {"architecture": "platform", "policy": policy},
            {"flow": "platform", "policy.name": policy},
        ),
    )
)

_TABLE2: _Plan = (
    (
        {"approach": "power_aware"},
        {
            "flow": "cosynthesis",
            "policy.name": "heuristic3",
            "cosynth.final_cost": "power",
            "cosynth.screening": None,
        },
    ),
    (
        {"approach": "thermal_aware"},
        {"flow": "cosynthesis", "policy.name": "thermal"},
    ),
)

_TABLE3: _Plan = (
    ({"approach": "power_aware"}, {"flow": "platform", "policy.name": "heuristic3"}),
    ({"approach": "thermal_aware"}, {"flow": "platform", "policy.name": "thermal"}),
)

_FIGURE1: _Plan = (
    ({"flow": "co-synthesis"}, {"flow": "cosynthesis", "policy.name": "thermal"}),
    ({"flow": "platform"}, {"flow": "platform", "policy.name": "thermal"}),
)

#: report name -> (label naming a gap, row plan).
PAPER_REPORTS: Dict[str, Tuple[str, _Plan]] = {
    "table1": ("Table 1", _TABLE1),
    "table2": ("Table 2", _TABLE2),
    "table3": ("Table 3", _TABLE3),
    "figure1": ("Figure 1", _FIGURE1),
}


def _field(spec: FlowSpec, path: str) -> Any:
    value: Any = spec
    for part in path.split("."):
        value = getattr(value, part)
    return value


def _plan(
    name: str, benchmarks: Sequence[str], suite: Sequence[FlowSpec]
) -> Iterator[Tuple[str, Dict[str, str], FlowSpec]]:
    """(benchmark, labels, spec) per row of report *name*, in print order."""
    label, plan = PAPER_REPORTS[name]
    for benchmark in benchmarks:
        for labels, selector in plan:
            matches = [
                spec for spec in suite
                if spec.graph.name == benchmark
                and all(_field(spec, p) == v for p, v in selector.items())
            ]
            if len(matches) != 1:
                raise ExperimentError(
                    f"{label} row ({benchmark}, {', '.join(labels.values())}) "
                    f"matches {len(matches)} paper-tables specs, expected 1"
                )
            yield benchmark, labels, matches[0]


def paper_specs(
    name: str, benchmarks: Optional[Sequence[str]] = None
) -> List[FlowSpec]:
    """The ``paper-tables`` spec behind each row of report *name*.

    One spec per row, in print order; *benchmarks* defaults to every
    benchmark of the suite.  Running these specs (e.g. through
    :func:`~repro.flow.run_many`) is exactly what the report needs.
    """
    suite = scenario_by_name("paper-tables").expand()
    if benchmarks is None:
        benchmarks = list(dict.fromkeys(spec.graph.name for spec in suite))
    return [spec for _, _, spec in _plan(name, benchmarks, suite)]


def _stored_rows(
    name: str, runs: RunSet
) -> Iterator[Tuple[str, Dict[str, str], RunRecord]]:
    """(benchmark, labels, record) per row, for every benchmark present."""
    label, _ = PAPER_REPORTS[name]
    by_hash = {record.spec_hash: record for record in runs}  # latest wins
    suite = scenario_by_name("paper-tables").expand()
    present = list(dict.fromkeys(
        spec.graph.name for spec in suite if spec_hash(spec) in by_hash
    ))
    if not present:
        raise ExperimentError(
            f"no stored record for any {label} row; run the paper-tables "
            f"suite into the store first"
        )
    for benchmark, labels, spec in _plan(name, present, suite):
        digest = spec_hash(spec)
        if digest not in by_hash:
            raise ExperimentError(
                f"no stored record for {label} row "
                f"({benchmark}, {', '.join(labels.values())}); "
                f"expected spec hash {digest}"
            )
        yield benchmark, labels, by_hash[digest]


def _measured(
    benchmark: str,
    labels: Dict[str, str],
    metrics: Dict[str, Any],
    paper: Optional[Triple],
    **extra: Any,
) -> Dict[str, Any]:
    """One table row: labels, the measured triple, extras, the paper's."""
    row: Dict[str, Any] = {"benchmark": benchmark, **labels, **extra}
    row["total_pow"] = round(metrics["total_power"], 2)
    row["max_temp"] = round(metrics["max_temperature"], 2)
    row["avg_temp"] = round(metrics["avg_temperature"], 2)
    row["meets_deadline"] = metrics["meets_deadline"]
    if paper is not None:
        row["paper_total_pow"], row["paper_max_temp"], row["paper_avg_temp"] = paper
    return row


def temperature_reductions(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Average max/avg temperature reduction (power-aware − thermal-aware)."""
    power = [r for r in rows if r["approach"] == "power_aware"]
    thermal = [r for r in rows if r["approach"] == "thermal_aware"]
    return {
        "max_temp_reduction": average_delta(
            [r["max_temp"] for r in power], [r["max_temp"] for r in thermal]
        ),
        "avg_temp_reduction": average_delta(
            [r["avg_temp"] for r in power], [r["avg_temp"] for r in thermal]
        ),
    }


def _reductions_note(name: str, rows: Sequence[Dict[str, Any]]) -> str:
    measured = temperature_reductions(rows)
    return (
        f"measured reductions: max {measured['max_temp_reduction']:.2f} C, "
        f"avg {measured['avg_temp_reduction']:.2f} C "
        f"(paper: {PAPER_ROWS[f'{name}_max_temp_reduction']} C max, "
        f"{PAPER_ROWS[f'{name}_avg_temp_reduction']} C avg)"
    )


_PAPER_COLUMNS = (
    "total_pow",
    "paper_total_pow",
    "max_temp",
    "paper_max_temp",
    "avg_temp",
    "paper_avg_temp",
)


@register_analyzer("table1")
def table1(runs: RunSet, **options: Any) -> AnalysisReport:
    """Table 1: the power heuristics under both architectures."""
    _reject_unknown_options("table1", options)
    rows = []
    for benchmark, labels, record in _stored_rows("table1", runs):
        paper_table = (
            TABLE1_COSYNTHESIS
            if labels["architecture"] == "co-synthesis"
            else TABLE1_PLATFORM
        )
        paper = paper_table.get(benchmark, {}).get(labels["policy"])
        rows.append(_measured(
            benchmark, labels, record.metrics, paper,
            makespan=round(record.metrics["makespan"], 1),
        ))
    return AnalysisReport(
        name="table1",
        title="Table 1 — power heuristics under co-synthesis and platform "
        "architectures (measured vs paper)",
        rows=tuple(rows),
        columns=("benchmark", "architecture", "policy")
        + _PAPER_COLUMNS + ("meets_deadline",),
    )


@register_analyzer("table2")
def table2(runs: RunSet, **options: Any) -> AnalysisReport:
    """Table 2: power- vs thermal-aware co-synthesis."""
    _reject_unknown_options("table2", options)
    rows = [
        _measured(
            benchmark, labels, record.metrics,
            TABLE2.get(benchmark, {}).get(labels["approach"]),
            architecture=record.metrics["architecture"],
        )
        for benchmark, labels, record in _stored_rows("table2", runs)
    ]
    return AnalysisReport(
        name="table2",
        title="Table 2 — power-aware vs thermal-aware, co-synthesis "
        "architecture (measured vs paper)",
        rows=tuple(rows),
        columns=("benchmark", "approach", "architecture")
        + _PAPER_COLUMNS + ("meets_deadline",),
        notes=(_reductions_note("table2", rows),),
    )


@register_analyzer("table3")
def table3(runs: RunSet, **options: Any) -> AnalysisReport:
    """Table 3: power- vs thermal-aware on the four-PE platform."""
    _reject_unknown_options("table3", options)
    rows = [
        _measured(
            benchmark, labels, record.metrics,
            TABLE3.get(benchmark, {}).get(labels["approach"]),
            load_balance=round(record.metrics["load_balance"], 3),
        )
        for benchmark, labels, record in _stored_rows("table3", runs)
    ]
    return AnalysisReport(
        name="table3",
        title="Table 3 — power-aware vs thermal-aware, platform architecture "
        "(measured vs paper)",
        rows=tuple(rows),
        columns=("benchmark", "approach")
        + _PAPER_COLUMNS + ("load_balance", "meets_deadline"),
        notes=(_reductions_note("table3", rows),),
    )


#: The stages Figure 1 draws, per flow; ``{...}`` fields are filled from
#: the record's diagnostics plus the deadline ``verdict``.
_FIGURE1_STAGES = {
    "co-synthesis": (
        "task graph + technology library in",
        "allocation & scheduling procedure: screened {candidates_screened} "
        "allocations, evaluated {candidates_evaluated}",
        "thermal-aware floorplanning + HotSpot temperature extraction",
        "meets requirement? {verdict}",
    ),
    "platform": (
        "task graph + pre-defined platform in",
        "modified ASP with thermal inquiries to HotSpot",
        "solution out",
    ),
}


@register_analyzer("figure1")
def figure1(runs: RunSet, **options: Any) -> AnalysisReport:
    """Figure 1: both design flows' stages and outcomes, per benchmark."""
    _reject_unknown_options("figure1", options)
    rows = []
    stages: List[str] = []
    for benchmark, labels, record in _stored_rows("figure1", runs):
        metrics = record.metrics
        rows.append({
            "flow": labels["flow"],
            "benchmark": benchmark,
            "architecture": metrics["architecture"],
            "pes": len(metrics["pe_temperatures"]),
            "hotspot_queries": record.diagnostics["hotspot_queries"],
            "makespan": round(metrics["makespan"], 1),
            "deadline": metrics["deadline"],
            "meets_requirement": metrics["meets_deadline"],
            "max_temp": round(metrics["max_temperature"], 2),
            "avg_temp": round(metrics["avg_temperature"], 2),
        })
        verdict = (
            "yes -> solution" if metrics["meets_deadline"] else "no (best effort)"
        )
        if stages:
            stages.append("")
        stages.append(f"[{labels['flow']}] {benchmark} stages:")
        stages.extend(
            f"  {index}. {stage.format(verdict=verdict, **record.diagnostics)}"
            for index, stage in enumerate(_FIGURE1_STAGES[labels["flow"]], 1)
        )
    return AnalysisReport(
        name="figure1",
        title="Figure 1 — thermal-aware co-synthesis flow (a) and "
        "platform-based flow (b), executed end to end",
        rows=tuple(rows),
        notes=tuple(stages),
    )
