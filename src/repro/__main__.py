"""Command-line entry point: the unified flow CLI.

Usage::

    python -m repro run --benchmark Bm1 --policy thermal
    python -m repro sweep --workers 4 --cache-dir .flowcache
    python -m repro scenarios run paper-tables --store runs/
    python -m repro results report table3 --store runs/
    python -m repro list policies

See ``python -m repro --help`` and :mod:`repro.cli`.
"""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
