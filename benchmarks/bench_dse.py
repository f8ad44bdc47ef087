"""Benchmark: DSE thermal screening scale and search throughput.

Two contracts guard the DSE subsystem's performance story:

* **screening scale** — the driver's screen function
  (:func:`~repro.dse.driver.screen_placement`: network build + Cholesky
  + per-block influence solves for every proposed move) must sustain
  ≥1k candidate evaluations inside the smoke budget
  (``BENCH_DSE_EVAL_BUDGET_S``), which is what lets the mutation
  operators thermally screen every proposed move;
* **end-to-end throughput ≥ 10x** (``BENCH_DSE_MIN_E2E_SPEEDUP``) — the
  search's evaluation layer (``evaluate_population`` over the
  content-addressed :class:`~repro.results.store.ResultStore`, i.e. the
  path every resumed or re-visited candidate takes) vs paying a cold
  ``run_flow`` per candidate.

The measured numbers are written to ``BENCH_dse.json`` (path override via
``BENCH_DSE_JSON``) so CI can archive the perf trajectory and gate on the
floors: ``pytest benchmarks/bench_dse.py -s``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.dse import DseConfig, run_dse
from repro.dse.candidate import CandidateSpec
from repro.dse.driver import DSE_SUITE, screen_placement
from repro.dse.evaluate import evaluate_population
from repro.flow.runner import run_flow
from repro.obs import Counters
from repro.results.store import ResultStore

from conftest import print_report

#: Moves screened through the driver's screen function (the ≥1k scale
#: contract).
SCREEN_MOVES = 1000
#: Timing passes for the throughput measurement; the best is kept.
PASSES = 3

#: Hard gate on replayed-search throughput vs cold per-candidate flows.
MIN_E2E_SPEEDUP = float(os.environ.get("BENCH_DSE_MIN_E2E_SPEEDUP", "10"))
#: Wall-clock budget for the SCREEN_MOVES screening pass.
EVAL_BUDGET_S = float(os.environ.get("BENCH_DSE_EVAL_BUDGET_S", "30"))

SIDE = 8          # 8x8 abutting grid ...
PITCH = 2.5       # ... at 2.5 mm pitch
LOOSE = "pe27"    # interior block shrunk so it can slide without overlap


def moved(index: int):
    """Placement *index*: the grid with the loose block nudged by a
    distinct sub-pitch offset (slack is 0.2 mm on the +x/+y side, so
    moves never overlap)."""
    dx = 0.0002 * (index % 991)   # 0 .. 0.198, period co-prime with moves
    dy = 0.00015 * (index % 997)
    entries = []
    for row in range(SIDE):
        for col in range(SIDE):
            name = f"pe{row * SIDE + col}"
            x, y = col * PITCH, row * PITCH
            if name == LOOSE:
                entries.append((name, x + dx, y + dy, 2.3, 2.3))
            else:
                entries.append((name, x, y, PITCH, PITCH))
    return tuple(entries)


def _best_of(fn, passes: int = PASSES) -> float:
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    placements = [moved(i) for i in range(SCREEN_MOVES)]

    # -- screening scale: >= 1k evaluations in budget ------------------
    stats = Counters(("full_rebuilds",))
    screen_started = time.perf_counter()
    for placement in placements:
        screen_placement(placement, stats)
    screen_s = time.perf_counter() - screen_started

    # -- end-to-end: store-served evaluations vs cold flows ------------
    config = DseConfig(
        benchmark="Bm3",
        strategy="greedy",
        seed=3,
        generations=2,
        population=4,
        counts=(16,),
        dvfs_options=(True,),
    )
    out_dir = tmp_path_factory.mktemp("dse-bench")
    cold_started = time.perf_counter()
    cold_result = run_dse(config, out_dir)  # pays every flow once
    cold_run_s = time.perf_counter() - cold_started

    store = ResultStore(out_dir / "store")
    trajectory = [
        json.loads(line)
        for line in (out_dir / "trajectory.jsonl").read_text().splitlines()
    ]
    generation_zero = [
        CandidateSpec.from_dict(entry["candidate"])
        for entry in trajectory
        if entry["generation"] == 0
    ]
    evaluate_population(  # warm the store index once
        generation_zero, 0, store, suite=DSE_SUITE, replay_only=True
    )
    warm_eval_s = _best_of(
        lambda: evaluate_population(
            generation_zero, 0, store, suite=DSE_SUITE, replay_only=True
        ),
        passes=5,
    )
    warm_per_candidate_s = warm_eval_s / len(generation_zero)

    spec = cold_result.front[0].candidate.to_flow_spec()
    run_flow(spec)  # absorb one-time import/library warmup
    cold_flow_s = _best_of(lambda: run_flow(spec), passes=PASSES)

    data = {
        "screening": {
            "blocks": SIDE * SIDE,
            "evaluations": stats["full_rebuilds"],
            "total_s": round(screen_s, 4),
            "per_eval_us": round(1e6 * screen_s / SCREEN_MOVES, 2),
            "budget_s": EVAL_BUDGET_S,
        },
        "end_to_end": {
            "benchmark": config.benchmark,
            "strategy": config.strategy,
            "evaluations": cold_result.evaluations,
            "cold_run_s": round(cold_run_s, 4),
            "cold_flow_ms": round(1e3 * cold_flow_s, 3),
            "warm_eval_ms": round(1e3 * warm_per_candidate_s, 4),
            "speedup": round(cold_flow_s / warm_per_candidate_s, 2),
        },
        "gates": {
            "min_e2e_speedup": MIN_E2E_SPEEDUP,
            "eval_budget_s": EVAL_BUDGET_S,
        },
    }

    out_path = os.environ.get("BENCH_DSE_JSON", "BENCH_dse.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    print_report(
        f"DSE screening and throughput (written to {out_path})",
        json.dumps(data, indent=2),
    )
    return data


def test_screening_scale_within_budget(measurements):
    """At least 1k candidate evaluations inside the smoke budget."""
    screening = measurements["screening"]
    assert screening["evaluations"] >= 1000
    assert screening["total_s"] <= EVAL_BUDGET_S


def test_end_to_end_throughput_floor(measurements):
    """Store-served candidate evaluations beat cold per-candidate flows
    by the gated ratio — the resume and re-visit path stays cheap."""
    assert measurements["end_to_end"]["speedup"] >= MIN_E2E_SPEEDUP

