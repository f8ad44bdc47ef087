"""The repository benchmark: one command, four workloads, validated designs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 2005

``NAME`` is one of ``paper-tables``, ``sched-scale``, ``serve-mixed`` and
``dse-search`` (``BENCHMARK.json`` says why each was chosen; NOTES.md
records the measured traffic facts).  A run builds its inputs from
``--seed``, measures for about ``--seconds`` seconds, validates every
design it produced with an independent checker, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it is the host fingerprint.  ``--workload all``
runs each workload in a process of its own and prints its metrics as a
table.  The exit
code is 0 only when every design validated.

Batch workloads run one fresh process per pass (``passes.py``) until the
measured operation time reaches ``--seconds``; ``serve-mixed`` drives a
``repro serve`` child at fixed rates (``serve_load.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import (
    HERE,
    OUT_ROOT,
    ROOT,
    SRC,
    BenchError,
    fingerprint,
    median,
    peak_rss_mb,
    percentile,
    quality_means,
    require_sources,
    run_child,
    scratch_dir,
)

WORKLOADS = ("paper-tables", "sched-scale", "serve-mixed", "dse-search")
#: Set-up samples taken per run; the reported set-up time is their median.
SETUP_SAMPLES = 3
#: Budget of one workload's run under ``--workload all``.
WORKLOAD_TIMEOUT_S = 600


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# batch workloads: one process per pass
# ----------------------------------------------------------------------
#: Passes that make up one run's input set: dse-search is an ensemble of
#: five differently seeded searches per benchmark (see passes.py).
ENSEMBLE = {"paper-tables": 1, "sched-scale": 1, "dse-search": 5}


def spawn_pass(workload: str, seed: int, scratch: Path, tag: str, **flags: int) -> Dict[str, Any]:
    args = ["perfbench/passes.py", "--workload", workload, "--seed", str(seed)]
    for name, value in flags.items():
        args += [f"--{name.replace('_', '-')}", str(value)]
    spawned = time.monotonic()
    report = run_child(args, scratch / f"{tag}.json")
    report["setup_s"] = report["ready_monotonic"] - spawned
    report["pass_s"] = sum(report.get("latencies_s", ()))  # absent when setup-only
    return report


def batch_run(workload: str, seed: int, seconds: float, scratch: Path) -> Dict[str, Any]:
    """Rounds over the ensemble's passes until the timed operations reach
    *seconds*; throughput and latency are medians over rounds, a round
    (one pass per member) being the workload's complete result."""
    members = ENSEMBLE[workload]
    passes: List[Dict[str, Any]] = []
    while len(passes) % members or sum(p["pass_s"] for p in passes) < seconds:
        index = len(passes)
        # a member's first pass validates every design in full; its
        # repeats must reproduce those designs exactly
        passes.append(spawn_pass(workload, seed, scratch, f"pass{index}",
                                 member=index % members,
                                 full_validation=int(index < members)))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_pass(workload, seed, scratch, f"setup{len(setups)}",
                                 setup_only=1)["setup_s"])
    rounds = [passes[start:start + members] for start in range(0, len(passes), members)]
    round_s = [sum(p["pass_s"] for p in group) for group in rounds]
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": median(
            [sum(p["ops"] for p in group) / took for group, took in zip(rounds, round_s)]
        ),
        "latency_p50_ms": 1000.0 * median(round_s),
        "latency_p99_ms": 1000.0 * percentile(round_s, 0.99),
        "peak_rss_mb": peak_rss_mb(),
        **quality_means([d for p in passes[:members] for d in p["designs"]]),
    }
    problems = [problem for p in passes for problem in p["problems"]]
    failed = sum(p["failed"] for p in passes)
    for index in range(members, len(passes)):
        if passes[index]["design_digest"] != passes[index - members]["design_digest"]:
            problems.append(f"pass {index} did not reproduce the designs of pass {index - members}")
            failed += 1
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "fingerprint": passes[0]["fingerprint"],
        "detail": f"{len(passes)} pass(es) of {sum(p['ops'] for p in passes)} operations",
    }


def batch_traced(workload: str, seed: int, scratch: Path) -> Dict[str, Any]:
    """One traced pass, plus one untraced pass for the tracing overhead."""
    traced = spawn_pass(workload, seed, scratch, "traced", trace=1)
    plain = spawn_pass(workload, seed, scratch, "plain", full_validation=0)
    layers = dict(traced["layers"])
    layers["trace.untraced_wall_s"] = plain["pass_s"]
    layers["trace.overhead_ratio"] = (
        layers["trace.wall_s"] / layers["trace.untraced_wall_s"] - 1.0
    )
    failed = traced["failed"] + plain["failed"]
    problems = traced["problems"] + plain["problems"]
    if traced["design_digest"] != plain["design_digest"]:
        problems.append("tracing changed the designs")
        failed += 1
    return {
        "attempted": traced["attempted"] + plain["attempted"],
        "failed": failed,
        "problems": problems,
        "metrics": layers,
        "fingerprint": traced["fingerprint"],
        "detail": f"spans in {OUT_ROOT.name}/trace-{workload}-s{seed}.jsonl",
    }


# ----------------------------------------------------------------------
# serve-mixed: this process is the load generator
# ----------------------------------------------------------------------
def serve_run(seed: int, seconds: float, scratch: Path, trace: bool) -> Dict[str, Any]:
    import serve_load

    run = serve_load.ServeRun(seed, seconds)
    untraced = run.measure(scratch / "serve")
    layers: Dict[str, float] = dict(untraced["layers"])
    if trace:
        spans = OUT_ROOT / f"trace-serve-mixed-s{seed}.jsonl"
        traced = run.measure_traced(scratch / "serve-traced", spans)
        layers.update({k: v for k, v in traced.items() if k != "reference_busy_s"})
        # wall time is fixed by the open loop; compare the daemon's busy time
        layers["trace.untraced_wall_s"] = untraced["reference_busy_s"]
        layers["trace.wall_s"] = traced["reference_busy_s"]
        layers["trace.overhead_ratio"] = (
            traced["reference_busy_s"] / untraced["reference_busy_s"] - 1.0
        )
    problems, designs, failed = run.validate(untraced["store_dir"], untraced["stored"])
    reference = untraced["steps"][0]
    metrics = {
        "setup_s": run.setup_s(),
        "ops_per_s": untraced["service_rps"],
        "latency_p50_ms": reference["p50_ms"],
        "latency_p99_ms": reference["p99_ms"],
        "peak_rss_mb": peak_rss_mb(),
        **quality_means(designs),
    }
    steps = ", ".join(
        f"{int(s['rate'])}/s p99 {s['p99_ms']:.1f} ms late {s['late_p99_ms']:.1f} ms "
        f"failed {s['failed']}{'' if s['sustained'] else ' (over limit)'}"
        for s in untraced["steps"]
    )
    return {
        "attempted": len(run.served),
        "failed": failed,
        "problems": problems,
        "metrics": layers if trace else metrics,
        "fingerprint": fingerprint("serve-mixed", seed),
        "detail": f"rates: {steps}",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    with scratch_dir(f"{name}-run-") as scratch:
        if name == "serve-mixed":
            return serve_run(seed, seconds, scratch, trace)
        if trace:
            return batch_traced(name, seed, scratch)
        return batch_run(name, seed, seconds, scratch)


def shaped(outcome: Dict[str, Any], declared: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The result line: exactly the declared metrics, with their units.

    Every end-to-end metric must have been measured; a per-layer metric
    of a layer the workload never enters reads 0.
    """
    values = outcome["metrics"]
    return {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {
                "value": float(values.get(m["name"], 0.0) if trace else values[m["name"]]),
                "unit": m["unit"],
            }
            for m in declared
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a process of its own (peak RSS is per process);
    one table of its metrics each, then a combined result line."""
    lines = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        out = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or len(out) < 2:
            raise BenchError(f"{name} produced no result (exit {proc.returncode})")
        line = lines[name] = json.loads(out[-1])
        print(f"\n== {name} (seed {seed}; {line['attempted']} attempted, "
              f"{line['failed']} failed, correct: {line['correct']}) ==")
        for metric, entry in line["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {out[-2]}")
    correct = all(line["correct"] for line in lines.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "workloads": lines,
    }, sort_keys=True))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        sys.path.insert(1, str(SRC))  # serve-mixed drives the daemon from here
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            return run_all(args.seed, seconds, args.trace)
        outcome = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in outcome["problems"][:20]:
        print(f"[{args.workload}] INVALID: {problem}", file=sys.stderr)
    print(f"[{args.workload}] {outcome['detail']}", file=sys.stderr)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = shaped(outcome, declared, bool(args.trace))
    print(json.dumps({"fingerprint": outcome["fingerprint"]}, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
