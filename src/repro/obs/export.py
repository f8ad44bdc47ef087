"""Exporters: Chrome trace-event JSON, JSONL span logs, summaries.

Three interchange formats leave the recorder:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — complete
  ``"X"``-phase events, loadable in Perfetto / ``chrome://tracing``.
  Processes (``proc``: the parent, or a merged pool worker) become
  trace pids, threads become tids, both labelled with metadata events.
  Timestamps are rebased to the earliest span, so the file carries
  durations only — no wall clock (DET002).
* **JSONL span logs** (:func:`write_jsonl`) — one span dict per line,
  lossless; :func:`read_spans` loads either format back.
* **Prometheus text** — rendered by
  :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus_text`
  (re-exported here for symmetry).

:func:`phase_summary` is the shared aggregation behind ``repro trace
summarize`` and the per-flow phase columns of ``repro trace record``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from .metrics import MetricsRegistry

__all__ = [
    "chrome_trace",
    "phase_summary",
    "phase_totals",
    "prometheus_text",
    "read_spans",
    "write_chrome_trace",
    "write_jsonl",
]


def prometheus_text(registry: MetricsRegistry) -> str:
    """*registry* rendered as the Prometheus text exposition."""
    return registry.to_prometheus_text()


def chrome_trace(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """*spans* as a Chrome trace-event JSON object (Perfetto-loadable).

    pids index the distinct ``proc`` labels in first-appearance order,
    tids the distinct ``(proc, thread)`` pairs — both deterministic for
    a deterministic span sequence.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[Any, int] = {}
    base = min((s["start"] for s in spans), default=0.0)
    for span in spans:
        proc = str(span.get("proc") or "main")
        thread = str(span.get("thread") or "main")
        if proc not in pids:
            pids[proc] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[proc],
                    "tid": 0,
                    "args": {"name": proc},
                }
            )
        if (proc, thread) not in tids:
            tids[(proc, thread)] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[proc],
                    "tid": tids[(proc, thread)],
                    "args": {"name": thread},
                }
            )
        args = dict(span.get("attrs") or {})
        if span.get("trace"):
            args["trace"] = span["trace"]
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round((span["start"] - base) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": pids[proc],
                "tid": tids[(proc, thread)],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, Path], spans: Sequence[Mapping[str, Any]]
) -> Path:
    """Write :func:`chrome_trace` JSON to *path*; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(spans), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def write_jsonl(
    path: Union[str, Path], spans: Sequence[Mapping[str, Any]]
) -> Path:
    """One span dict per line (lossless log); returns the path."""
    path = Path(path)
    path.write_text(
        "".join(json.dumps(dict(span), sort_keys=True) + "\n" for span in spans),
        encoding="utf-8",
    )
    return path


def _spans_from_chrome(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Best-effort inverse of :func:`chrome_trace` (for summarize/export)."""
    procs: Dict[int, str] = {}
    threads: Dict[Any, str] = {}
    spans: List[Dict[str, Any]] = []
    for event in payload.get("traceEvents", ()):
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                procs[event.get("pid")] = event.get("args", {}).get("name", "main")
            elif event.get("name") == "thread_name":
                threads[(event.get("pid"), event.get("tid"))] = (
                    event.get("args", {}).get("name", "main")
                )
    for event in payload.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        trace = args.pop("trace", None)
        start = float(event.get("ts", 0.0)) / 1e6
        spans.append(
            {
                "name": event.get("name", ""),
                "trace": trace,
                "id": None,
                "parent": None,
                "start": start,
                "end": start + float(event.get("dur", 0.0)) / 1e6,
                "proc": procs.get(event.get("pid"), "main"),
                "thread": threads.get(
                    (event.get("pid"), event.get("tid")), "main"
                ),
                "attrs": args,
            }
        )
    return spans


def read_spans(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load spans back from either export format (auto-detected).

    A file whose first non-space byte is ``{`` holding ``traceEvents``
    is a Chrome trace (hierarchy ids are not recoverable from it);
    anything else is treated as a JSONL span log.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None  # multiple lines: a JSONL span log
    if isinstance(payload, Mapping) and "traceEvents" in payload:
        return _spans_from_chrome(payload)
    if isinstance(payload, Mapping):  # a single-span JSONL file
        return [dict(payload)]
    return [dict(json.loads(line)) for line in text.splitlines() if line.strip()]


def phase_totals(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Total seconds per span name (one number per phase, no counts)."""
    totals: Dict[str, float] = {}
    for span in spans:
        duration = float(span["end"]) - float(span["start"])
        totals[span["name"]] = totals.get(span["name"], 0.0) + duration
    return totals


def phase_summary(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Per-phase aggregate rows, largest total first (name tie-break)."""
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span["name"], []).append(
            float(span["end"]) - float(span["start"])
        )
    rows = []
    for name, durations in grouped.items():
        total = sum(durations)
        rows.append(
            {
                "phase": name,
                "count": len(durations),
                "total_s": round(total, 6),
                "mean_s": round(total / len(durations), 6),
                "min_s": round(min(durations), 6),
                "max_s": round(max(durations), 6),
            }
        )
    rows.sort(key=lambda row: (-row["total_s"], row["phase"]))
    return rows
