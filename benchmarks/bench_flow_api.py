"""Benchmark: flow-facade overhead and ``run_many`` scaling.

Two contracts guard the flow API's performance story:

* **facade overhead < 5 %** — ``Flow.run(platform_spec(...))`` vs wiring
  Figure 1b by hand from the lower layers (platform architecture and
  floorplan, HotSpot model, list scheduler, evaluation) over a pre-built
  workload.  The facade adds spec hashing, registry lookups and workload
  memoisation; none of that may cost real time against the scheduler +
  HotSpot inner loop.
* **run_many scaling** — the 8-spec ablation sweep (Bm1–Bm4 x
  {heuristic3, thermal}) through ``workers=4`` must beat serial ≥ 2x on
  multi-core hosts; on any host a warm cache must beat recomputation
  ≥ 2x with zero scheduler invocations.

The measured numbers are emitted as one JSON object on stdout (marker
``FLOW_API_BENCH_JSON``) so future PRs can track the trajectory:
``pytest benchmarks/bench_flow_api.py -s``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import (
    HotSpotModel,
    ListScheduler,
    benchmark,
    default_platform,
    evaluate_schedule,
    library_for_graph,
    platform_floorplan,
    policy_by_name,
)
from repro.flow import Flow, platform_spec, run_many

from conftest import print_report

#: Repetitions for the overhead measurement (platform flow is ~10 ms).
REPEATS = 20


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def measurements():
    graph = benchmark("Bm1")
    library = library_for_graph(graph)
    flow = Flow()
    spec = platform_spec("Bm1", policy="thermal")
    flow.run(spec)  # warm the workload memo, like the direct path's prebuild

    def direct_platform_run():
        architecture = default_platform()
        hotspot = HotSpotModel(platform_floorplan(architecture))
        scheduler = ListScheduler(graph, architecture, library, thermal=hotspot)
        schedule = scheduler.run(policy_by_name("thermal"))
        return evaluate_schedule(schedule, hotspot=hotspot)

    direct = _time(direct_platform_run, REPEATS)
    facade = _time(lambda: flow.run(spec), REPEATS)

    sweep = [
        platform_spec(bench, policy=policy)
        for bench in ("Bm1", "Bm2", "Bm3", "Bm4")
        for policy in ("heuristic3", "thermal")
    ]
    started = time.perf_counter()
    run_many(sweep)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    run_many(sweep, workers=4)
    pool_s = time.perf_counter() - started

    import tempfile

    with tempfile.TemporaryDirectory(prefix="flowbench-") as cache:
        started = time.perf_counter()
        run_many(sweep, cache_dir=cache)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        run_many(sweep, cache_dir=cache)
        warm_s = time.perf_counter() - started

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    data = {
        # the key keeps its pre-1.11 name: the removed platform-flow
        # entry point made these same calls, so the recorded trajectory
        # stays comparable across versions
        "direct_platform_flow_s": round(direct, 6),
        "facade_flow_run_s": round(facade, 6),
        "facade_overhead_fraction": round(facade / direct - 1.0, 4),
        "sweep_specs": len(sweep),
        "sweep_serial_s": round(serial_s, 4),
        "sweep_workers4_s": round(pool_s, 4),
        "sweep_pool_speedup": round(serial_s / pool_s, 3),
        "sweep_cold_cache_s": round(cold_s, 4),
        "sweep_warm_cache_s": round(warm_s, 6),
        "sweep_cache_speedup": round(cold_s / warm_s, 1),
        "cpus": cpus,
    }
    print_report(
        "Flow API overhead / scaling",
        "FLOW_API_BENCH_JSON " + json.dumps(data, indent=2),
    )
    return data


def test_facade_overhead_under_5_percent(measurements):
    assert measurements["facade_overhead_fraction"] < 0.05, measurements


def test_pool_speedup_on_multicore(measurements):
    """workers=4 must win >= 2x where the hardware can express it."""
    if measurements["cpus"] < 2:
        pytest.skip(
            f"{measurements['cpus']} CPU visible; process-pool wall-clock "
            f"speedup is not measurable on this host"
        )
    assert measurements["sweep_pool_speedup"] >= 2.0, measurements


def test_cache_speedup_at_least_2x(measurements):
    """A warm cache replays the sweep >= 2x faster on any host."""
    assert measurements["sweep_cache_speedup"] >= 2.0, measurements


def test_benchmark_facade(benchmark):
    """pytest-benchmark hook for the facade hot path."""
    flow = Flow()
    spec = platform_spec("Bm1", policy="heuristic3")
    flow.run(spec)
    benchmark(flow.run, spec)
