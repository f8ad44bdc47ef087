"""The ``serve-mixed`` workload: an open-loop load generator for ``repro serve``.

A ``repro serve --workers 2 --store DIR`` daemon runs as a child
process.  This process is the only client and keeps at most two
connections open (one per sender thread, ``ServeClient(max_retries=0)``
so a retry can never hide a refusal).  Load is an open loop of
independent users: request *i* of a phase is due at ``t0 + i / rate``,
whether or not earlier requests have been answered, and its latency is
timed from that due time — so a stall also charges the requests queued
behind it.  How late the generator itself ran (send time minus due time)
is reported per phase.

The request mix is drawn from the seed: mostly warm repeats of 32
platform specs (Bm1-4 × {heuristic3, thermal} × 4 weights), plus a
5 % share of first-seen specs with a ``genetic`` floorplan whose GA seed
is new, which forces a cold floorplan and thermal build.  Every
request asks the daemon to store its record.

A 429, any 5xx, a connection error or a timeout counts as a failed
request and as a miss of the latency limit, against requests attempted.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from common import ROOT, BenchError, child_env, median, percentile

BENCHMARKS = ("Bm1", "Bm2", "Bm3", "Bm4")
POLICIES = ("heuristic3", "thermal")
WEIGHTS = (None, 0.5, 1.0, 2.0)
#: One request in this many is a first-seen (cold) spec: a 5 % share.
COLD_EVERY = 20
#: Daemon worker threads and client connections, both matching nproc = 2.
WORKERS = 2
CONNECTIONS = 2
#: Reference rate (req/s) for the end-to-end latency figures, well below
#: the 50-120 req/s closed-loop capacity measured on a 2-CPU host; the
#: phase lasts this many times ``--seconds`` so its p99 rests on ~720
#: requests, 36 of them cold.
REFERENCE_RATE = 30.0
REFERENCE_SPAN = 3
#: Further fixed rates probed for ``serve.max_rps``.
LADDER = (60.0, 80.0)
LADDER_STEP_S = 2.0
#: p99 latency limit (ms) a rate must meet to count as sustained; the
#: generator must also never run later than this (no growing backlog).
LATENCY_LIMIT_MS = 100.0
REQUEST_TIMEOUT_S = 30.0
SETUP_REPEATS = 3
STARTUP_TIMEOUT_S = 60.0


def warm_specs() -> List[Any]:
    from repro.flow.spec import platform_spec

    return [
        platform_spec(bm, policy=policy, weight=weight)
        for bm in BENCHMARKS
        for policy in POLICIES
        for weight in WEIGHTS
    ]


def request_mix(seed: int, count: int, warm: List[Any], first_cold: int) -> List[Any]:
    """*count* specs of the seeded mix; cold GA seeds start after *first_cold*.

    Every ``COLD_EVERY``-th request is cold, cycling through the
    benchmark × policy pairs, so each phase carries the same cold work
    whatever the seed; the seed picks the warm repeats and the GA seeds.
    """
    from repro.flow.spec import FloorplanSpec, platform_spec

    rng = random.Random(seed * 7_919 + first_cold)
    pairs = [(bm, policy) for bm in BENCHMARKS for policy in POLICIES]
    specs = []
    for index in range(count):
        if index % COLD_EVERY == COLD_EVERY // 2:
            cold = first_cold + index // COLD_EVERY
            bm, policy = pairs[cold % len(pairs)]
            specs.append(
                platform_spec(bm, policy=policy,
                              floorplan=FloorplanSpec(kind="genetic", seed=seed * 100_000 + cold))
            )
        else:
            specs.append(warm[rng.randrange(len(warm))])
    return specs


# ----------------------------------------------------------------------
# the daemon child
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` child process bound to an ephemeral port.

    ``trace_out`` starts it through ``perfbench/daemon.py``, which installs
    the outside-in tracer first and, when the daemon is stopped, writes the
    per-layer metrics to ``trace_out`` and the spans to ``spans_out``.
    """

    def __init__(
        self,
        workdir: Path,
        trace_out: Optional[Path] = None,
        spans_out: Optional[Path] = None,
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.store_dir = workdir / "store"
        self.log = workdir / "daemon.log"
        self.stdout = workdir / "daemon.out"
        serve_args = [
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--store", str(self.store_dir), "--timeout", str(REQUEST_TIMEOUT_S),
        ]
        if trace_out is None:
            cmd = [sys.executable, "-u", "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, "-u", str(ROOT / "perfbench" / "daemon.py"),
                   "--trace-out", str(trace_out), "--spans", str(spans_out), *serve_args]
        with self.stdout.open("w") as out, self.log.open("w") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        self.url = self._wait_for_url()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.stdout.read_text()
            for line in text.splitlines():
                if line.startswith("serving on "):
                    return line.split()[2]
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise BenchError(f"repro serve did not start:\n{self.log.read_text()[-2000:]}")

    def stop(self) -> None:
        """Interrupt (graceful drain), wait, and kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def wait_healthy(url: str) -> None:
    from repro.serve.client import ServeClient

    client = ServeClient(url, timeout_s=2.0, max_retries=0)
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while not client.health():
        if time.monotonic() > deadline:
            raise BenchError(f"daemon at {url} never became healthy")
        time.sleep(0.005)


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
class Outcome(NamedTuple):
    """One request: its due, send and answer times and what came back."""

    due: float
    sent: float
    done: float
    spec: Any
    metrics: Optional[Dict[str, Any]]  # the served record's metrics
    error: str  # empty when served


def run_phase(
    url: str, specs: List[Any], rate: Optional[float], senders: int = CONNECTIONS
) -> List[Outcome]:
    """Send *specs* at *rate* req/s over *senders* connections.

    ``rate=None`` is a closed loop: each sender sends its next request
    as soon as the previous one is answered.
    """
    from repro.errors import ServeError
    from repro.serve.client import ServeClient

    outcomes: List[Optional[Outcome]] = [None] * len(specs)
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.02

    def sender() -> None:
        client = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S, max_retries=0)
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(specs):
                return
            due = t0 + index / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            metrics, error = None, ""
            try:
                metrics = client.submit(specs[index], suite="serve-mixed")["record"]["metrics"]
            except ServeError as exc:  # refusals, 5xx, timeouts, resets
                error = f"{type(exc).__name__}: {exc}"
            outcomes[index] = Outcome(due, sent, time.perf_counter(), specs[index],
                                      metrics, error)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S * len(specs))
    if any(thread.is_alive() for thread in threads) or None in outcomes:
        raise BenchError("load generator threads did not finish")
    return outcomes  # type: ignore[return-value]


def phase_stats(outcomes: List[Outcome], rate: float) -> Dict[str, float]:
    """Latency from due time, generator lateness, failures, verdict."""
    failed = sum(1 for o in outcomes if o.error)
    latencies = [
        (o.done - o.due) * 1000.0 if not o.error else REQUEST_TIMEOUT_S * 1000.0
        for o in outcomes
    ]
    late = [(o.sent - o.due) * 1000.0 for o in outcomes]
    stats = {
        "rate": rate,
        "requests": len(outcomes),
        "failed": failed,
        "p50_ms": percentile(latencies, 0.50),
        "p99_ms": percentile(latencies, 0.99),
        "late_p99_ms": percentile(late, 0.99),
        "late_max_ms": max(late),
    }
    stats["sustained"] = (
        failed == 0
        and stats["p99_ms"] <= LATENCY_LIMIT_MS
        and stats["late_max_ms"] <= LATENCY_LIMIT_MS
    )
    return stats


def scrape(url: str) -> Dict[str, float]:
    """``/stats`` and ``/metrics`` figures the per-layer report uses."""
    from repro.serve.client import ServeClient

    client = ServeClient(url, timeout_s=10.0, max_retries=0)
    stats = client.stats()
    sums: Dict[str, float] = {}
    for line in client.metrics().splitlines():
        for name in ("queue_s", "run_s"):
            for suffix in ("_sum", "_count"):
                prefix = f"repro_serve_request_{name}{suffix}"
                if line.startswith(prefix + " ") or line.startswith(prefix + "{"):
                    sums[name + suffix] = sums.get(name + suffix, 0.0) + float(line.split()[-1])
    cache = stats.get("cache", {})

    def hits(layer: str) -> Tuple[float, float]:
        entry = cache.get(layer, {})
        return float(entry.get("hits", 0)), float(entry.get("misses", 0))

    return {
        "queue_s_sum": sums.get("queue_s_sum", 0.0),
        "run_s_sum": sums.get("run_s_sum", 0.0),
        "count": sums.get("run_s_count", 0.0),
        "rejected": float(stats.get("rejected", 0)),
        "platform_hits": hits("platforms")[0],
        "platform_misses": hits("platforms")[1],
        "workload_hits": hits("workloads")[0],
        "workload_misses": hits("workloads")[1],
    }


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
class ServeRun:
    """Everything one ``serve-mixed`` run measured and served."""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.warm = warm_specs()
        reference_count = int(REFERENCE_RATE * REFERENCE_SPAN * seconds)
        self.reference = request_mix(seed, reference_count, self.warm, 0)
        self.ladder = []
        first_cold = 1_000
        for rate in LADDER:
            self.ladder.append(
                (rate, request_mix(seed, int(rate * LADDER_STEP_S), self.warm, first_cold))
            )
            first_cold += 1_000
        self.served: List[Outcome] = []
        self.setups: List[float] = []

    def start(self, workdir: Path, *trace_paths: Path) -> Daemon:
        """Start a daemon and run the warm-up pass; record the set-up time."""
        begin = time.monotonic()
        daemon = Daemon(workdir, *trace_paths)
        try:
            wait_healthy(daemon.url)
            self.served += run_phase(daemon.url, self.warm, None, senders=1)
        except BaseException:
            daemon.stop()
            raise
        self.setups.append(time.monotonic() - begin)
        return daemon

    def measure(self, workdir: Path) -> Dict[str, Any]:
        """Set up (repeatedly), then the reference phase and the ladder."""
        for index in range(SETUP_REPEATS - 1):
            self.start(workdir / f"setup{index}").stop()
        daemon = self.start(workdir / "load")
        try:
            before = scrape(daemon.url)
            started = time.perf_counter()
            reference = run_phase(daemon.url, self.reference, REFERENCE_RATE)
            after_reference = scrape(daemon.url)
            steps = [phase_stats(reference, REFERENCE_RATE)]
            loaded = list(reference)
            for rate, specs in self.ladder:
                outcomes = run_phase(daemon.url, specs, rate)
                steps.append(phase_stats(outcomes, rate))
                loaded += outcomes
            load_wall = time.perf_counter() - started
            after = scrape(daemon.url)
        finally:
            daemon.stop()
        self.served += loaded
        reference_busy_s = after_reference["run_s_sum"] - before["run_s_sum"]
        return {
            # requests per second the workers sustain, from their busy time
            # per request at the reference rate (a closed-loop capacity
            # swung 50-120 req/s between runs of one seed on a 2-CPU host)
            "service_rps": WORKERS * (after_reference["count"] - before["count"])
            / reference_busy_s,
            "steps": steps,
            "store_dir": daemon.store_dir,
            # the load daemon stores its warm-up pass and every served request
            "stored": len(self.warm) + sum(1 for o in loaded if not o.error),
            "reference_busy_s": reference_busy_s,
            "layers": self.daemon_layers(before, after, load_wall, steps),
        }

    def measure_traced(self, workdir: Path, spans_out: Path) -> Dict[str, Any]:
        """The reference phase against a traced daemon (per-layer spans)."""
        trace_out = workdir / "layers.json"
        daemon = self.start(workdir / "traced", trace_out, spans_out)
        try:
            before = scrape(daemon.url)
            reference = run_phase(daemon.url, self.reference, REFERENCE_RATE)
            after = scrape(daemon.url)
        finally:
            daemon.stop()
        self.served += reference
        layers = json.loads(trace_out.read_text(encoding="utf-8"))
        layers["reference_busy_s"] = after["run_s_sum"] - before["run_s_sum"]
        return layers

    @staticmethod
    def daemon_layers(before: Dict[str, float], after: Dict[str, float],
                      load_wall: float, steps: List[Dict[str, Any]]) -> Dict[str, float]:
        delta = {key: after[key] - before[key] for key in after}
        layers = {
            "serve.queue_wait_ms": 1000.0 * delta["queue_s_sum"] / delta["count"]
            if delta["count"] else 0.0,
            "serve.cache.platform_hit_ratio": _ratio(after["platform_hits"], after["platform_misses"]),
            "serve.cache.workload_hit_ratio": _ratio(after["workload_hits"], after["workload_misses"]),
            "serve.rejected": after["rejected"],
            "serve.worker_utilization": delta["run_s_sum"] / (WORKERS * load_wall),
            "serve.max_rps": max((s["rate"] for s in steps if s["sustained"]), default=0.0),
        }
        for step in steps:
            rate = int(step["rate"])
            layers[f"serve.rate{rate}.p99_ms"] = step["p99_ms"]
            layers[f"serve.rate{rate}.late_p99_ms"] = step["late_p99_ms"]
            layers[f"serve.rate{rate}.failed"] = step["failed"]
        return layers

    def validate(
        self, store_dir: Path, stored: int
    ) -> Tuple[List[str], List[Dict[str, Any]], int]:
        """Re-run every distinct served spec in-process and hold the served
        records to the validated re-runs; returns (problems, designs, failed).

        A refused or failed request counts as failed but is no validation
        problem; the store must hold one record per answered request of
        the load daemon (a timed-out request may still land, so the count
        is only checked when none failed).
        """
        from repro.flow.runner import Flow
        from repro.flow.spec import spec_hash
        from repro.results.store import ResultStore
        from validate import check_record_against, check_result, inputs_for, result_summary

        problems: List[str] = []
        failed = 0
        reference: Dict[str, Dict[str, Any]] = {}
        flow = Flow()
        for outcome in self.served:
            if outcome.error:
                failed += 1
                continue
            digest = spec_hash(outcome.spec)
            if digest not in reference:
                result = flow.run(outcome.spec)
                found = check_result(outcome.spec, result, inputs_for(outcome.spec))
                reference[digest] = result_summary(result)
                if found:
                    failed += 1
                    problems += [f"{digest[:10]}: {p}" for p in found[:3]]
            mismatch = check_record_against(reference[digest], outcome.metrics)
            if mismatch:
                failed += 1
                problems += [f"served {digest[:10]}: {p}" for p in mismatch[:3]]
        if not any(o.error for o in self.served) and len(ResultStore(store_dir)) != stored:
            problems.append(
                f"store holds {len(ResultStore(store_dir))} records, {stored} were served"
            )
        return problems, list(reference.values()), failed

    def setup_s(self) -> float:
        return median(self.setups)
