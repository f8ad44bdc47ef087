"""Sub-spec hashing + the warm platform :class:`EngineCache` behind the daemon.

The insight the cache is built on: a :class:`~repro.flow.FlowSpec` is a
tree, and the expensive construction stage depends on a *subtree*, not
the whole spec.  Two specs that differ only in policy weight share the
same thermal platform (floorplan, RC network, Cholesky factor, query
engine) — exactly the repeated-platform shape of a policy sweep arriving
one request at a time.  So the cache keys on **sub-spec content hashes**:

* :func:`floorplan_subspec_hash` — architecture + floorplan + catalogue;
* :func:`solver_subspec_hash` — the thermal solver knobs;
* :func:`platform_cache_key` — floorplan hash + solver hash; keys the
  prebuilt thermal platform.

Hashes are SHA-256 prefixes of canonical (sorted-key) JSON of the
sub-spec dicts — the same construction as
:func:`~repro.flow.spec.spec_hash`, so they are stable across processes
and pinnable in tests (tests/test_serve.py pins literals).

This module builds nothing itself: a miss calls
:func:`repro.flow.runner.build_platform`, the one platform construction
site, and workloads come from the process memo of
:func:`repro.scenarios.workloads.build_workload`, whose counters fill the
``workloads`` row of :meth:`EngineCache.stats`.  Platforms live in one
:class:`~repro.caching.LRUCache` bounded by count and bytes.  A *hit*
leases fresh-counter forks of the shared immutable state (see
:meth:`HotSpotModel.from_prebuilt
<repro.thermal.HotSpotModel.from_prebuilt>`), so concurrent worker
threads never share mutable query counters.  ``max_entries=0`` disables
storage — every request builds its platform fresh, which is the daemon's
"cold" configuration and the baseline benchmarks compare against.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, Optional, Tuple

from ..caching import DEFAULT_MAX_ENTRIES, LRUCache
from ..flow.runner import PrebuiltPlatform, build_platform, platform_floorplan_spec
from ..flow.spec import FlowSpec
from ..scenarios.workloads import workload_cache_stats
from ..thermal.hotspot import HotSpotModel

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "EngineCache",
    "subspec_hash",
    "floorplan_subspec_hash",
    "solver_subspec_hash",
    "platform_cache_key",
]

#: Hash prefix length, matching :func:`repro.flow.spec.spec_hash`.
_HASH_LEN = 20


def subspec_hash(payload: Any) -> str:
    """Content hash of a JSON-ready payload (sorted keys, SHA-256[:20])."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_HASH_LEN]


def floorplan_subspec_hash(spec: FlowSpec) -> str:
    """Hash of everything the die layout depends on.

    Architecture (PE types and count — they set the block list), the
    resolved floorplan spec (layout algorithm + its seed/GA budget), and
    the catalogue (it resolves the PE type names to physical PEs).
    """
    return subspec_hash(
        {
            "architecture": spec.architecture.to_dict(),
            "floorplan": platform_floorplan_spec(spec).to_dict(),
            "catalogue": spec.library.catalogue,
        }
    )


def solver_subspec_hash(spec: FlowSpec) -> str:
    """Hash of the thermal solver knobs (solver name + ambient)."""
    return subspec_hash(spec.thermal.to_dict())


def platform_cache_key(spec: FlowSpec) -> str:
    """The engine-cache key for the prebuilt thermal platform."""
    return f"{floorplan_subspec_hash(spec)}:{solver_subspec_hash(spec)}"


def _state_nbytes(state: Tuple[Any, Any, Any]) -> int:
    """Rough resident size of a ``prebuilt_state`` (the dense arrays)."""
    _network, solver, engine = state
    total = 0
    for array in (
        getattr(engine, "response", None),
        getattr(engine, "avg_sensitivity", None),
    ):
        total += getattr(array, "nbytes", 0)
    factor = getattr(solver, "_factor", None)
    if factor:
        total += getattr(factor[0], "nbytes", 0)
    return total or 4096


class EngineCache:
    """Content-hash-keyed LRU over prebuilt thermal platforms.

    The duck-typed cache :class:`~repro.flow.Flow` accepts: it exposes
    ``platform_for(spec)``, which builds on miss and stores, so a cold
    entry costs one construction and every subsequent spec sharing the
    sub-tree hits warm state.  Thread-safe: the LRU locks internally,
    and every lease forks fresh counters so worker threads never share
    mutable solver state.  Two threads missing the same key concurrently
    both build (last put wins) — wasted work, never wrong results, and
    rare enough in practice not to be worth a per-key lock.

    ``max_entries=0`` disables storage (every request cold-builds its
    platform) — the benchmark baseline and an operator escape hatch.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_bytes: Optional[int] = None,
    ):
        self.platforms = LRUCache(max_entries=max_entries, max_bytes=max_bytes)
        self._lock = threading.Lock()
        self.platform_bypasses = 0

    # -- the Flow cache hook -------------------------------------------
    def platform_for(self, spec: FlowSpec) -> Optional[PrebuiltPlatform]:
        """A :class:`~repro.flow.PrebuiltPlatform` lease, or ``None``.

        ``None`` means bypass — the flow builds its own platform.  Only
        the built-in HotSpot solver is engine-cached (it is the one with
        extractable prebuilt state); other solvers bypass.
        """
        if spec.thermal.solver != "hotspot":
            with self._lock:
                self.platform_bypasses += 1
            return None
        key = platform_cache_key(spec)
        entry = self.platforms.get(key)
        if entry is None:
            built = build_platform(spec)
            state = built.thermal.prebuilt_state()
            entry = (built, state)
            self.platforms.put(key, entry, size=_state_nbytes(state))
        built, state = entry
        return PrebuiltPlatform(
            architecture=built.architecture,
            floorplan=built.floorplan,
            thermal=HotSpotModel.from_prebuilt(
                built.floorplan, built.thermal.package, *state
            ),
        )

    # -- introspection -------------------------------------------------
    def clear(self) -> None:
        """Drop every cached platform (counters survive — provenance)."""
        self.platforms.clear()

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` cache rows: the workload memo, this platform
        LRU, and the platform bypass count."""
        with self._lock:
            bypasses = self.platform_bypasses
        return {
            "workloads": workload_cache_stats(),
            "platforms": self.platforms.stats(),
            "platform_bypasses": bypasses,
        }

    def __repr__(self) -> str:
        return f"EngineCache(platforms={len(self.platforms)})"
