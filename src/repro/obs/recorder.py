"""The span recorder: hierarchical timing with a no-op default.

Disabled is the default and costs almost nothing: the module-level
recorder is a :class:`NullRecorder` whose ``enabled`` attribute is
``False`` — metric pushes guard on that one attribute check, and a
null span only stamps ``perf_counter`` twice (exactly what the hand
timers it replaced cost), recording nothing.

Enabled (:func:`enable` / :func:`capture`), every ``with rec.span(...)``
appends one span dict to a bounded buffer:

``{"name", "trace", "id", "parent", "start", "end", "proc", "thread",
"attrs"}``

* ``start``/``end`` are :func:`time.perf_counter` stamps — durations
  only, never wall clock, so DET002 holds for the recorder itself;
* ``trace`` is a *deterministic* correlation id supplied by the caller
  (``spec_hash`` prefix for flows, ``request_id`` for serve requests),
  inherited by nested spans through a thread-local stack;
* ``parent`` links the hierarchy per thread — serve worker threads
  nest independently on one shared recorder;
* pool workers record into their own captured recorder and ship the
  buffer back on the result (:meth:`Recorder.merge_buffer` folds it in
  exactly once, relabelled with the worker's ``proc``).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Mapping, Optional

from .metrics import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "NullRecorder",
    "Recorder",
    "Span",
    "capture",
    "disable",
    "enable",
    "get_recorder",
    "now",
    "set_recorder",
]

#: Buffer bound: a long-lived daemon must not grow without limit; at
#: ~10 spans per request this covers ~20k requests between exports.
DEFAULT_MAX_SPANS = 200_000


def now() -> float:
    """The sanctioned monotonic stamp (:func:`time.perf_counter`).

    Library code that needs a raw duration stamp (rather than a span)
    takes it from here, so every timing source in the tree routes
    through ``repro.obs`` (lint rule OBS001).
    """
    return perf_counter()


class Span:
    """One active span; context manager around two ``perf_counter`` stamps.

    ``elapsed`` is valid both while open (time since start) and after
    exit (final duration) — ``Flow.run`` derives its ``timings`` dict
    from it, enabled or not.
    """

    __slots__ = (
        "_recorder", "name", "trace", "span_id", "parent_id",
        "attrs", "start", "end",
    )

    def __init__(
        self,
        recorder: Optional["Recorder"],
        name: str,
        trace: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.trace = trace
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.attrs = attrs
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def elapsed(self) -> float:
        return (self.end if self.end is not None else perf_counter()) - self.start

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._recorder is not None:
            self._recorder._open(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.end = perf_counter()
        if self._recorder is not None:
            self._recorder._close(self)


class NullRecorder:
    """The disabled default: one attribute check, no state, no locks."""

    enabled = False
    metrics: Optional[MetricsRegistry] = None

    def span(self, name: str, trace: Optional[str] = None, **attrs: Any) -> Span:
        return Span(None, name, trace, attrs)

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        trace: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        pass

    def counter(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def export_spans(self) -> List[Dict[str, Any]]:
        return []

    def merge_buffer(self, buffer: Mapping[str, Any], proc: str = "") -> None:
        pass

    def clear(self) -> None:
        pass


class Recorder:
    """The enabled recorder: spans into a bounded buffer + a registry.

    Thread-safe by construction: the span stack is thread-local (each
    serve worker thread nests its own hierarchy), the finished-span
    buffer and the metrics registry are lock-protected.
    """

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.metrics = MetricsRegistry()
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._next_id = 1
        self._local = threading.local()

    # -- span plumbing -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            span.parent_id = parent.span_id
            if span.trace is None:
                span.trace = parent.trace
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # mis-nested exit: drop it and everything above
            del stack[stack.index(span):]
        self._record(
            {
                "name": span.name,
                "trace": span.trace,
                "id": span.span_id,
                "parent": span.parent_id,
                "start": span.start,
                "end": span.end,
                "proc": "main",
                "thread": threading.current_thread().name,
                "attrs": dict(span.attrs),
            }
        )

    def _record(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(record)

    # -- recording API -------------------------------------------------
    def span(self, name: str, trace: Optional[str] = None, **attrs: Any) -> Span:
        """An active span; nest with ``with``, annotate via kwargs."""
        return Span(self, name, trace, attrs)

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        trace: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Record an already-elapsed interval (e.g. queue wait) as a span.

        Parent/trace inherit from the calling thread's current span, so
        emitting inside a ``with rec.span(...)`` block files the
        interval under it.
        """
        stack = self._stack()
        parent_id: Optional[int] = None
        if stack:
            parent_id = stack[-1].span_id
            if trace is None:
                trace = stack[-1].trace
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        self._record(
            {
                "name": name,
                "trace": trace,
                "id": span_id,
                "parent": parent_id,
                "start": float(start),
                "end": float(end),
                "proc": "main",
                "thread": threading.current_thread().name,
                "attrs": dict(attrs),
            }
        )

    def counter(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        self.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.histogram(name, buckets=DEFAULT_BUCKETS, **labels).observe(value)

    # -- buffers -------------------------------------------------------
    def export_spans(self) -> List[Dict[str, Any]]:
        """Snapshot of every finished span, in completion order."""
        with self._lock:
            return [dict(span) for span in self._spans]

    def export_buffer(self) -> Dict[str, Any]:
        """Spans + metrics in the wire form pool workers ship back."""
        return {"spans": self.export_spans(), "metrics": self.metrics.export()}

    def merge_buffer(self, buffer: Mapping[str, Any], proc: str = "") -> None:
        """Fold a worker's :meth:`export_buffer` into this recorder.

        Span ids are remapped into this recorder's id space (parent
        links preserved); every merged span is relabelled with *proc*
        so exporters can lane them per worker.  Call exactly once per
        buffer — merging is additive.
        """
        spans = list(buffer.get("spans", ()))
        with self._lock:
            id_map: Dict[Any, int] = {}
            for span in spans:
                id_map[span.get("id")] = self._next_id
                self._next_id += 1
        for span in spans:
            merged = dict(span)
            merged["id"] = id_map[span.get("id")]
            parent = span.get("parent")
            merged["parent"] = id_map.get(parent) if parent is not None else None
            if proc:
                merged["proc"] = proc
            self._record(merged)
        metrics = buffer.get("metrics")
        if metrics:
            self.metrics.merge(metrics)

    def clear(self) -> None:
        """Drop recorded spans (metrics keep accumulating)."""
        with self._lock:
            self._spans = []
            self.dropped = 0


_NULL = NullRecorder()
_recorder: Any = _NULL
_swap_lock = threading.Lock()


def get_recorder() -> Any:
    """The process-wide active recorder (null unless enabled)."""
    return _recorder


def set_recorder(recorder: Any) -> Any:
    """Install *recorder* as the active one; returns the previous."""
    global _recorder
    with _swap_lock:
        previous = _recorder
        _recorder = recorder
    return previous


def enable(max_spans: int = DEFAULT_MAX_SPANS) -> Recorder:
    """Switch tracing on (idempotent); returns the live recorder."""
    current = _recorder
    if isinstance(current, Recorder):
        return current
    recorder = Recorder(max_spans=max_spans)
    set_recorder(recorder)
    return recorder


def disable() -> None:
    """Switch tracing off (back to the null recorder)."""
    set_recorder(_NULL)


@contextmanager
def capture(max_spans: int = DEFAULT_MAX_SPANS) -> Iterator[Recorder]:
    """A scoped recorder: enabled inside the block, restored after.

    The CLI's profiling front end (``repro trace record``, one capture
    per repetition), the pool workers' shipped buffers, and the obs
    tests all record through this — whatever recorder was active
    before is reinstated on exit.
    """
    recorder = Recorder(max_spans=max_spans)
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
