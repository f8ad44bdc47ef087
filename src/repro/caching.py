"""Shared bounded-cache policy: in-memory LRU + on-disk prune sweeps.

Two cache layers grew out of the batch and serving work and both need
the *same* eviction story so operators reason about one policy:

* :class:`LRUCache` — a thread-safe, size-aware LRU used by the serving
  layer's :class:`~repro.serve.cache.EngineCache` (precomputed thermal
  engines are expensive to make and cheap to keep — until they aren't)
  and by the process workload memo of
  :func:`~repro.scenarios.workloads.build_workload`.  Entries are
  bounded by count and/or by a caller-estimated byte size; hits refresh
  recency, eviction drops the least recently used entry first, and
  hit/miss/eviction counters are kept for the ``/stats`` endpoint.
* :func:`prune_dir` — the on-disk twin for file caches that only grow
  (the ``run_many`` result cache).  "Least recently used" on disk is
  oldest-mtime-first; the sweep removes files until the directory fits
  the same max-entries/max-bytes budget.

Neither layer expires by wall-clock age — the platform's determinism
rules (DET002) keep wall time out of library decisions, and LRU over
content-hashed keys never serves a stale value anyway (a changed input
is a *different* key).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .errors import ReproError

__all__ = ["DEFAULT_MAX_ENTRIES", "LRUCache", "PruneResult", "prune_dir"]

#: Default entry budget of the in-memory caches: the workload memo, and
#: the serve platform cache unless ``--cache-entries`` says otherwise.
DEFAULT_MAX_ENTRIES = 32


class LRUCache:
    """A thread-safe LRU mapping bounded by entry count and/or bytes.

    Parameters
    ----------
    max_entries:
        Maximum live entries; ``None`` means unbounded by count.  ``0``
        disables storage entirely (every ``get`` misses) — the "cold
        cache" configuration benchmarks compare against.
    max_bytes:
        Maximum summed entry size; ``None`` means unbounded by bytes.
        Sizes are whatever the caller passes to :meth:`put` — estimates
        are fine, the budget is advisory capacity planning, not
        accounting.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        if max_entries is not None and max_entries < 0:
            raise ReproError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ReproError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Summed size of the live entries (caller-estimated)."""
        with self._lock:
            return self._bytes

    def get(self, key: Any) -> Optional[Any]:
        """The cached value for *key* (refreshing recency), or ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
            return None

    def put(self, key: Any, value: Any, size: int = 0) -> None:
        """Insert (or refresh) *key* and evict LRU entries over budget."""
        with self._lock:
            if self.max_entries == 0:
                return
            if key in self._entries:
                self._bytes -= self._entries.pop(key)[1]
            self._entries[key] = (value, int(size))
            self._bytes += int(size)
            while self._over_budget() and len(self._entries) > 1:
                self._evict_one()
            # a single entry larger than max_bytes still lives (evicting
            # it would make the cache useless for exactly the workloads
            # that need it most); the count budget is strict
            if (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            ):
                self._evict_one()

    def _over_budget(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        return self.max_bytes is not None and self._bytes > self.max_bytes

    def _evict_one(self) -> None:
        _key, (_value, size) = self._entries.popitem(last=False)
        self._bytes -= size
        self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are provenance)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> Dict[str, int]:
        """Counters + occupancy for stats endpoints and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (
            f"LRUCache(entries={len(self)}, max_entries={self.max_entries}, "
            f"max_bytes={self.max_bytes})"
        )


@dataclass
class PruneResult:
    """What one :func:`prune_dir` sweep did."""

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    removed_bytes: int = 0
    kept_bytes: int = 0
    removed_paths: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``repro cache prune`` report row)."""
        return {
            "scanned": self.scanned,
            "removed": self.removed,
            "kept": self.kept,
            "removed_bytes": self.removed_bytes,
            "kept_bytes": self.kept_bytes,
        }


def prune_dir(
    directory: Union[str, Path],
    suffix: str,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
) -> PruneResult:
    """Evict oldest-mtime-first until ``*suffix`` files fit the budget.

    The on-disk counterpart of :class:`LRUCache`: mtime approximates
    recency (reads do not refresh it, so this is strictly an
    oldest-*written*-first sweep — fine for content-addressed caches
    where every entry is equally valid).  Ties on mtime break by name so
    the sweep is deterministic.  ``dry_run=True`` reports what would be
    removed without unlinking.

    Missing directories are an empty (not an error) result — pruning a
    cache that was never populated is a no-op, exactly like clearing it.
    """
    if max_entries is not None and max_entries < 0:
        raise ReproError(f"max_entries must be >= 0, got {max_entries}")
    if max_bytes is not None and max_bytes < 0:
        raise ReproError(f"max_bytes must be >= 0, got {max_bytes}")
    result = PruneResult()
    root = Path(directory)
    if not root.is_dir():
        return result

    entries: List[Tuple[float, str, Path, int]] = []
    for path in root.glob(f"*{suffix}"):
        try:
            stat = path.stat()
        except OSError:
            continue  # raced with a concurrent prune/clear
        entries.append((stat.st_mtime, path.name, path, stat.st_size))
    entries.sort()  # oldest mtime first, name-stable on ties
    result.scanned = len(entries)

    keep_count = len(entries)
    keep_bytes = sum(entry[3] for entry in entries)
    removable = 0
    for _mtime, _name, _path, size in entries:
        over = (
            max_entries is not None and keep_count > max_entries
        ) or (max_bytes is not None and keep_bytes > max_bytes)
        if not over:
            break
        removable += 1
        keep_count -= 1
        keep_bytes -= size

    for _mtime, _name, path, size in entries[:removable]:
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue  # raced with a concurrent prune/clear
        result.removed += 1
        result.removed_bytes += size
        result.removed_paths.append(str(path))
    result.kept = result.scanned - result.removed
    result.kept_bytes = sum(size for _m, _n, _p, size in entries[removable:])
    return result
