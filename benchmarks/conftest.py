"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one published artefact (table or
figure) of the paper, printing measured-vs-paper rows, and times the
regeneration with pytest-benchmark.  Printing happens once per module via
session-scoped fixtures so ``--benchmark-only`` output stays readable.
"""

from __future__ import annotations

import pytest


def paper_report(name: str, specs):
    """Run *specs* and report paper analyzer *name* over their records."""
    from repro.flow import run_many
    from repro.results import RunSet, analyze

    records = tuple(result.as_record() for result in run_many(specs))
    return analyze(name, RunSet(records))


def print_report(title: str, text: str) -> None:
    """Emit one experiment report to stdout (shown with `pytest -s`)."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{text}\n")
