"""An independent validator for every design the benchmark produces.

The reference data is the *inputs* of a flow — the task graph, its
deadline, the technology library's raw WCET/WCPC table and the DVFS
operating points the spec allows — built afresh from the spec with the
workload memo bypassed.  Nothing the code under test computed about the
design (its ``Schedule.validate``, makespan or deadline verdict) is
trusted; the checks re-derive each from the assignments:

* every task of the input graph is scheduled exactly once, on a PE of
  the design's architecture whose type the library supports;
* each duration equals ``WCET(task type, PE type) × task weight`` scaled
  by one of the allowed DVFS time factors, and each power the matching
  WCPC scaled by the same level's power factor;
* every input edge is respected (free communication: the consumer
  starts no earlier than the producer ends);
* no PE runs two tasks at once;
* the reported makespan equals the last finish time, the reported
  deadline equals the input deadline, and the deadline verdict agrees
  with ``makespan <= deadline``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: Absolute slack on time comparisons (time units are ~1..1e5).
TIME_EPS = 1e-6
#: The program's own deadline comparison tolerance.
DEADLINE_EPS = 1e-9


@dataclass(frozen=True)
class DesignInputs:
    """Reference data of one flow run, built from its spec alone."""

    deadline: float
    tasks: Dict[str, Tuple[str, float]]  # name -> (task type, weight)
    edges: Tuple[Tuple[str, str], ...]
    table: Dict[Tuple[str, str], Tuple[float, float]]  # (task, pe type) -> (wcet, wcpc)
    levels: Tuple[Tuple[float, float], ...]  # allowed (time factor, power factor)


def inputs_for(spec: Any) -> DesignInputs:
    """Rebuild *spec*'s inputs without the workload memo the flows share."""
    from repro.extensions.dvfs import DEFAULT_LEVELS
    from repro.scenarios.workloads import build_workload

    if spec.comm.kind != "zero":
        raise ValueError("the validator models free communication only")
    graph, library = build_workload(
        spec.graph, spec.library, spec.conditional.guard_probabilities, memo=False
    )
    levels = [(1.0, 1.0)]
    if spec.dvfs.enabled:
        ladder = spec.dvfs.levels or DEFAULT_LEVELS
        levels += [(1.0 / lvl.frequency, lvl.frequency * lvl.voltage**2) for lvl in ladder]
    return DesignInputs(
        deadline=float(graph.deadline),
        tasks={t.name: (t.task_type, float(t.weight)) for t in graph.tasks()},
        edges=tuple((e.src, e.dst) for e in graph.edges()),
        table={(t, p): (w, c) for t, p, w, c in library.entries()},
        levels=tuple(levels),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TIME_EPS * max(1.0, abs(b))


def check_schedule(
    inputs: DesignInputs,
    assignments: Iterable[Tuple[str, str, float, float, float]],
    pe_types: Mapping[str, str],
    makespan: float,
    deadline: float,
    meets_deadline: bool,
) -> List[str]:
    """Problems found in one design (empty when it is valid).

    *assignments* are ``(task, pe, start, end, power)`` rows; *pe_types*
    maps the design's PE instances to their type names.
    """
    problems: List[str] = []
    placed: Dict[str, Tuple[str, float, float, float]] = {}
    for task, pe, start, end, power in assignments:
        if task in placed:
            problems.append(f"task {task} scheduled twice")
            continue
        placed[task] = (pe, start, end, power)
    missing = sorted(set(inputs.tasks) - set(placed))
    extra = sorted(set(placed) - set(inputs.tasks))
    if missing:
        problems.append(f"unscheduled tasks {missing[:5]}")
    if extra:
        problems.append(f"unknown tasks scheduled {extra[:5]}")

    per_pe: Dict[str, List[Tuple[float, float, str]]] = {}
    for task, (pe, start, end, power) in placed.items():
        if task not in inputs.tasks:
            continue
        if pe not in pe_types:
            problems.append(f"{task} on unknown PE {pe}")
            continue
        task_type, weight = inputs.tasks[task]
        entry = inputs.table.get((task_type, pe_types[pe]))
        if entry is None:
            problems.append(f"{task} on {pe}: PE type {pe_types[pe]} cannot run {task_type}")
            continue
        wcet, wcpc = entry
        duration = end - start
        if start < -TIME_EPS or not any(
            _close(duration, wcet * weight * time_f) and _close(power, wcpc * power_f)
            for time_f, power_f in inputs.levels
        ):
            problems.append(
                f"{task} on {pe}: duration {duration} / power {power} match no "
                f"allowed level of WCET {wcet * weight} / WCPC {wcpc}"
            )
        per_pe.setdefault(pe, []).append((start, end, task))

    for src, dst in inputs.edges:
        if src in placed and dst in placed and placed[dst][1] < placed[src][2] - TIME_EPS:
            problems.append(f"precedence {src}->{dst} violated")
    for pe, rows in per_pe.items():
        rows.sort()
        for (s0, e0, t0), (s1, _e1, t1) in zip(rows, rows[1:]):
            if s1 < e0 - TIME_EPS:
                problems.append(f"{pe} runs {t0} and {t1} at once")

    last_finish = max((row[2] for row in placed.values()), default=0.0)
    if not _close(makespan, last_finish):
        problems.append(f"makespan {makespan} != last finish {last_finish}")
    if deadline != inputs.deadline:
        problems.append(f"reported deadline {deadline} != input deadline {inputs.deadline}")
    if bool(meets_deadline) != (last_finish <= inputs.deadline + DEADLINE_EPS):
        problems.append(
            f"meets_deadline={meets_deadline} disagrees with finish {last_finish} "
            f"vs deadline {inputs.deadline}"
        )
    return problems


def check_record(inputs: DesignInputs, metrics: Mapping[str, Any]) -> List[str]:
    """The checks a stored record supports without its schedule."""
    problems = []
    if float(metrics["deadline"]) != inputs.deadline:
        problems.append(
            f"record deadline {metrics['deadline']} != input deadline {inputs.deadline}"
        )
    if bool(metrics["meets_deadline"]) != (
        float(metrics["makespan"]) <= inputs.deadline + DEADLINE_EPS
    ):
        problems.append("record meets_deadline disagrees with its makespan")
    return problems


def check_result(spec: Any, result: Any, inputs: DesignInputs = None) -> List[str]:
    """Validate one :class:`repro.flow.FlowResult` against *spec*'s inputs."""
    inputs = inputs or inputs_for(spec)
    schedule = result.schedule
    return check_schedule(
        inputs,
        ((a.task, a.pe, a.start, a.end, a.power) for a in schedule),
        {pe.name: pe.type_name for pe in result.architecture},
        makespan=result.evaluation.makespan,
        deadline=result.evaluation.deadline,
        meets_deadline=result.meets_deadline,
    )


#: Record metrics a served/stored design must reproduce exactly.
RECORD_FIELDS = ("makespan", "max_temperature", "avg_temperature", "total_power")


def record_summary(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """The quality fields of a stored or served record's metrics."""
    summary = {name: float(metrics[name]) for name in RECORD_FIELDS}
    summary["meets_deadline"] = bool(metrics["meets_deadline"])
    return summary


def result_summary(result: Any) -> Dict[str, Any]:
    evaluation = result.evaluation
    return {
        "makespan": float(evaluation.makespan),
        "max_temperature": float(evaluation.max_temperature),
        "avg_temperature": float(evaluation.avg_temperature),
        "total_power": float(evaluation.total_power),
        "meets_deadline": bool(result.meets_deadline),
    }


def check_record_against(reference: Mapping[str, Any], metrics: Mapping[str, Any]) -> List[str]:
    """A stored or served record's metrics must equal the validated re-run."""
    summary = record_summary(metrics)
    return [
        f"record {name} {summary[name]} != validated re-run {reference[name]}"
        for name in reference
        if summary[name] != reference[name]
    ]
