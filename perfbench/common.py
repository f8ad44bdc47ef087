"""Shared helpers of the benchmark: paths, statistics, fingerprint, children.

The benchmark runs from the root of a source checkout.  It never
installs the package; every process it starts imports ``repro`` from
``<root>/src`` through ``PYTHONPATH``.  Everything it writes lives under
``<root>/.perfbench_tmp`` (scratch stores, removed at exit) and
``<root>/perfbench_out`` (span dumps of traced runs).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / "perfbench_out"

#: A seed kept out of every tuning run; later performance claims are
#: re-checked on it (see NOTES.md).
HELD_OUT_SEED = 7919

#: Wall-clock budget of one child process; a child still running after
#: this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (missing sources, a child failed)."""


def require_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run the benchmark from "
            f"the root of a full checkout"
        )


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``.perfbench_tmp``, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def run_child(args: Sequence[str], out_path: Path) -> Dict[str, Any]:
    """Run ``python3 perfbench/<args>`` to completion; return its JSON report.

    The child writes its report to *out_path*; a non-zero exit, a
    timeout or a missing report raises :class:`BenchError`.
    """
    cmd = [sys.executable, *args, "--out", str(out_path)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {exc.timeout}s") from exc
    if proc.returncode != 0 or not out_path.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-15:]
        raise BenchError(
            f"child {args} exited {proc.returncode}:\n" + "\n".join(tail)
        )
    return json.loads(out_path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise BenchError("mean of an empty sample")
    return sum(values) / len(values)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child (MiB).

    Linux reports ``ru_maxrss`` in KiB; ``RUSAGE_CHILDREN`` holds the
    maximum over every waited-for descendant.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 prefix over every ``src/**/*.py`` (path + bytes).

    Identifies the measured code in checkouts that are not git
    repositories.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def blas_config(numpy_module: Any) -> str:
    try:
        config = numpy_module.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def fingerprint(workload: str, seed: int) -> Dict[str, Any]:
    """Host + code identity stamped on every benchmark output.

    Imports numpy and repro, so call it in a process that has them on
    its path already (a child, or the serve client).
    """
    import numpy

    import repro

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_config(numpy),
        "repro_version": getattr(repro, "__version__", "unknown"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def quality_means(designs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Mean design quality over final designs (the end-to-end quality metrics)."""
    if not designs:
        raise BenchError("no final designs to score")
    return {
        "max_temp_c": mean(d["max_temperature"] for d in designs),
        "avg_temp_c": mean(d["avg_temperature"] for d in designs),
        "power_w": mean(d["total_power"] for d in designs),
        "deadline_met_frac": mean(1.0 if d["meets_deadline"] else 0.0 for d in designs),
    }
