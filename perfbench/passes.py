"""One pass of a batch workload, run in a fresh process.

``python3 perfbench/passes.py --workload NAME --seed N --out FILE``
imports the program, builds the workload's inputs from the seed, runs
every operation once (timing each from outside), validates every design
it produced, and writes a JSON report to FILE.  ``run.py`` starts one
such process per pass, because command-line users pay the import and
the per-process memo fill on every run.

Workloads:

* ``paper-tables`` — the built-in 44-spec suite, spec by spec through
  ``run_many`` (the call ``run_scenario`` makes) into a fresh
  ``ResultStore``; the seed is the GA ``floorplan.seed`` of the
  co-synthesis rows (2005 reproduces Tables 1-3);
* ``sched-scale`` — the platform flow on generated 400-800 task graphs
  (``layered``, ``forkjoin``, ``wide``, plus an 800-task ``chain``),
  each under ``heuristic3`` and ``thermal``; the seed is the generator
  seed;
* ``dse-search`` — ``run_dse`` with ``nsga2`` on Bm2-Bm4 (DVFS options
  on, the default); member k of the run's five-pass ensemble searches
  with ``DseConfig.seed = seed * 100 + k``.

``--trace 1`` runs the operations under the outside-in tracer and adds
the per-layer metrics to the report; validation always runs untraced,
after the operations.  ``--setup-only 1`` stops once the first
operation could be issued (a set-up time sample).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import OUT_ROOT, fingerprint, scratch_dir, write_json
from validate import (
    check_record,
    check_record_against,
    check_result,
    inputs_for,
    record_summary,
    result_summary,
)

SCHED_GRAPHS = (
    ("layered", 400),
    ("layered", 800),
    ("forkjoin", 600),
    ("wide", 600),
    ("chain", 800),
)
SCHED_POLICIES = ("heuristic3", "thermal")
#: Ensemble member k (one pass; ``run.ENSEMBLE`` sets how many make a
#: round) searches each benchmark with ``DseConfig.seed = seed * 100 + k``
#: at the CLI's default size (4 generations x 8): the cost and front of
#: one search swing with its seed, an ensemble evens that out.
DSE_BENCHMARKS = ("Bm2", "Bm3", "Bm4")


class Pass:
    """What one pass did: timings, counts, designs and problems."""

    def __init__(self) -> None:
        self.latencies: List[float] = []  # one per user-visible operation
        self.ops = 0  # operations as ops_per_s counts them
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.designs: List[Dict[str, Any]] = []
        self.layers: Dict[str, float] = {}

    def fail(self, label: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems[:3])


class FlowPass:
    """``paper-tables`` / ``sched-scale``: flow runs validated directly."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        from repro.flow.batch import run_many
        from repro.flow.spec import FloorplanSpec, generated_source, platform_spec
        from repro.results.store import ResultStore
        from repro.scenarios import scenario_by_name

        self.run_many = run_many
        self.workload = workload
        if workload == "paper-tables":
            self.specs = [
                spec.with_(floorplan=FloorplanSpec(kind="genetic", seed=seed))
                if spec.flow == "cosynthesis"
                else spec
                for spec in scenario_by_name("paper-tables").expand()
            ]
            self.store = ResultStore(scratch / "store")
        else:
            self.specs = [
                platform_spec(
                    policy=policy, graph=generated_source(family, tasks=tasks, seed=seed)
                )
                for family, tasks in SCHED_GRAPHS
                for policy in SCHED_POLICIES
            ]
            self.store = None
        self.results: List[Any] = []

    def operate(self, run: Pass) -> None:
        for spec in self.specs:
            run.attempted += 1
            run.ops += 1
            start = time.perf_counter()
            try:
                (result,) = self.run_many([spec], store=self.store, suite=self.workload)
            except Exception as exc:  # a crashed flow is a failed operation
                run.latencies.append(time.perf_counter() - start)
                run.fail(spec.graph.name, [f"{type(exc).__name__}: {exc}"])
                continue
            run.latencies.append(time.perf_counter() - start)
            self.results.append((spec, result))

    def validate(self, run: Pass) -> None:
        for spec, result in self.results:
            problems = check_result(spec, result)
            if problems:
                run.fail(f"{spec.flow}/{spec.graph.name}/{spec.policy.name}", problems)
            run.designs.append(result_summary(result))
        if self.store is not None and len(self.store) != len(self.results):
            run.fail("store", [f"{len(self.store)} records for {len(self.results)} runs"])


class DsePass:
    """``dse-search``: searches store records; designs are re-run to validate.

    Records carry no schedule, so each stored record gets the checks a
    record supports; with *full* every distinct design is also re-run,
    its schedule validated, and the record held to the re-run exactly.
    """

    def __init__(self, seed: int, member: int, scratch: Path, full: bool) -> None:
        import repro.dse.driver
        from repro.dse.driver import DseConfig

        self.driver = repro.dse.driver  # looked up per call: the tracer patches it
        self.configs = [
            DseConfig(benchmark=bm, strategy="nsga2", seed=seed * 100 + member)
            for bm in DSE_BENCHMARKS
        ]
        self.scratch = scratch
        self.full = full
        self.searches: List[Any] = []

    def operate(self, run: Pass) -> None:
        for config in self.configs:
            start = time.perf_counter()
            result = self.driver.run_dse(config, self.scratch / config.benchmark)
            run.latencies.append(time.perf_counter() - start)
            run.ops += result.evaluations
            run.attempted += result.evaluations
            self.searches.append(result)

    def validate(self, run: Pass) -> None:
        from repro.flow.runner import Flow
        from repro.flow.spec import FlowSpec
        from repro.results.store import ResultStore

        totals = {"incremental": 0, "unchanged": 0, "full_rebuilds": 0}
        for result in self.searches:
            for name in totals:
                totals[name] += result.thermal_stats.get(name, 0)
            records: Dict[str, Any] = {}
            for record in ResultStore(result.out_dir / "store").iter_records():
                records.setdefault(record.spec_hash, record)
            for digest, record in sorted(records.items()):
                spec = FlowSpec.from_dict(record.spec)
                inputs = inputs_for(spec)
                problems = check_record(inputs, record.metrics)
                if self.full:
                    rerun = Flow().run(spec)
                    problems += check_result(spec, rerun, inputs)
                    problems += check_record_against(result_summary(rerun), record.metrics)
                if problems:
                    run.fail(f"dse/{result.config.benchmark}/{digest[:10]}", problems)
            for entry in result.front:
                record = records.get(entry.spec_hash)
                if record is None:
                    run.fail(f"dse/{entry.spec_hash[:10]}", ["front design not stored"])
                else:
                    run.designs.append(record_summary(record.metrics))
        screens = sum(totals.values())
        run.layers.update({
            "dse.thermal.screens": screens,
            "dse.thermal.incremental": totals["incremental"],
            "dse.thermal.full_rebuilds": totals["full_rebuilds"],
            "dse.thermal.incremental_ratio": totals["incremental"] / screens if screens else 0.0,
        })


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-tables", "sched-scale", "dse-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--member", type=int, default=0,
                        help="ensemble member (dse-search: pass k of the run)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--full-validation", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with scratch_dir(f"{args.workload}-") as scratch:
        if args.workload == "dse-search":
            work: Any = DsePass(args.seed, args.member, scratch, bool(args.full_validation))
        else:
            work = FlowPass(args.workload, args.seed, scratch)
        report: Dict[str, Any] = {"ready_monotonic": time.monotonic()}
        if args.setup_only:
            write_json(args.out, report)
            return 0

        run = Pass()
        if args.trace:
            import repro.obs
            from tracer import Tracer, install, layer_metrics

            tracer = Tracer()
            install(tracer)
            recorder = repro.obs.enable()
            try:
                work.operate(run)
            finally:
                tracer.restore()
                repro.obs.disable()
            run.layers.update(
                layer_metrics(tracer, sum(run.latencies), recorder.export_spans())
            )
            tracer.dump(
                OUT_ROOT / f"trace-{args.workload}-s{args.seed}.jsonl",
                fingerprint(args.workload, args.seed),
            )
        else:
            work.operate(run)
        work.validate(run)

    report.update(
        latencies_s=run.latencies,
        ops=run.ops,
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems[:20],
        designs=run.designs,
        design_digest=hashlib.sha256(
            json.dumps(run.designs, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        layers=run.layers,
        fingerprint=fingerprint(args.workload, args.seed),
    )
    write_json(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
