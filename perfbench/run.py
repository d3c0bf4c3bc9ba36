"""End-to-end benchmark of the distributed join simulator.

Runs one workload through ``repro.core.system.DistributedJoinSystem``,
serially in this process, checks every simulation's output, and prints
each metric with its unit; the last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).

    python3 perfbench/run.py --workload dftt_zipf20 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload base_zipf20 --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --check            # pinned digests + naive-kernel parity

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics from separate traced
simulations and writes their spans to ``perfbench/out/``.  Metric
definitions and the layer map are in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
"""Fresh interpreters started per run to time set-up (median reported)."""

# (name, unit, clock, better) -- the order is the print order.
END_TO_END = [
    ("setup_s", "s", "host", "lower"),
    ("run_s", "s", "host", "lower"),
    ("cpu_s", "s", "host", "lower"),
    ("tuples_per_s", "tuples/s", "host", "higher"),
    ("peak_rss_mb", "MB", "host", "lower"),
    ("recall", "fraction", "sim", "higher"),
    ("msgs_per_result", "msgs", "sim", "lower"),
    ("sim_latency_p95_s", "s", "sim", "lower"),
]
REPORTED_ONLY = [
    ("epsilon", "fraction", "sim", "lower"),
    ("failed_frac", "fraction", "-", "lower"),
]
"""Printed beside the end-to-end metrics but kept out of the JSON line:
both read exactly 0 on some or all workloads (see METRICS.md)."""

# (name, unit, better)
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("setup.construct_s", "s", "lower"),
    ("setup.schedule_s", "s", "lower"),
    ("sched.events", "count", "lower"),
    ("sched.events_per_s", "1/s", "higher"),
    ("sched.self_s", "s", "lower"),
    ("node.event_self_s", "s", "lower"),
    ("node.enqueue_calls", "count", "lower"),
    ("node.enqueue_self_s", "s", "lower"),
    ("node.max_queue_depth", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "bytes", "lower"),
    ("net.send_self_s", "s", "lower"),
    ("net.link_send_self_s", "s", "lower"),
    ("net.stats_self_s", "s", "lower"),
    ("policy.choose_calls", "count", "lower"),
    ("policy.choose_self_s", "s", "lower"),
    ("policy.similarity_calls", "count", "lower"),
    ("policy.similarity_self_s", "s", "lower"),
    ("policy.waterfill_calls", "count", "lower"),
    ("policy.waterfill_self_s", "s", "lower"),
    ("policy.join_estimate_calls", "count", "lower"),
    ("policy.join_estimate_self_s", "s", "lower"),
    ("policy.fanout", "peers", "lower"),
    ("summary.insert_calls", "count", "lower"),
    ("summary.insert_self_s", "s", "lower"),
    ("summary.remote_apply_calls", "count", "lower"),
    ("summary.remote_apply_self_s", "s", "lower"),
    ("summary.bytes", "bytes", "lower"),
    ("join.inserts", "count", "lower"),
    ("join.insert_self_s", "s", "lower"),
    ("join.probes", "count", "lower"),
    ("join.probe_self_s", "s", "lower"),
    ("join.probe_hit_ratio", "ratio", "higher"),
    ("accounting.ops", "count", "lower"),
    ("accounting.replay_s", "s", "lower"),
    ("recovery.checkpoints", "count", "lower"),
    ("recovery.checkpoint_self_s", "s", "lower"),
    ("recovery.checkpoint_bytes", "bytes", "lower"),
    ("recovery.restart_self_s", "s", "lower"),
    ("recovery.state_transfer_bytes", "bytes", "lower"),
    ("reliable.sends", "count", "lower"),
    ("reliable.self_s", "s", "lower"),
    ("reliable.heartbeat_self_s", "s", "lower"),
    ("reliable.retransmits", "count", "lower"),
    ("overload.shed_tuples", "count", "lower"),
    ("overload.transitions", "count", "lower"),
    ("telemetry.emits", "count", "lower"),
    ("telemetry.emit_self_s", "s", "lower"),
    ("telemetry.sample_self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


@dataclass
class Simulation:
    result: object
    events: int
    run_s: float
    cpu_s: float
    tracer: Optional[Tracer] = None


def simulate(ns, config, tracer: Optional[Tracer] = None) -> Simulation:
    """Build, schedule and run one simulation; only ``run()`` is timed.

    With a tracer, its wrappers are installed before construction (so
    lazily bound methods pick them up), spans recorded during set-up are
    dropped, and the wrappers are removed again whatever happens.
    """
    gc.collect()
    try:
        if tracer is not None:
            tracer.install(ns)
        system = ns.DistributedJoinSystem(config, shards=1)
        system.schedule_workload()
        if tracer is not None:
            tracer.reset()
        wall, cpu = time.perf_counter(), time.process_time()
        result = system.run()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Simulation(result, system.scheduler.events_processed, wall, cpu, tracer)


class Checker:
    """Runs simulations, checks each output, and counts failures."""

    def __init__(self, ns, workload: workloads.Workload, seed: int) -> None:
        self.ns = ns
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: List[str] = []
        self._reference: Optional[bytes] = None

    def run(self, seed: int, tracer: Optional[Tracer] = None) -> Optional[Simulation]:
        """One checked simulation at ``seed``; ``None`` if it failed."""
        self.attempted += 1
        label = "seed %d%s" % (seed, " traced" if tracer is not None else "")
        try:
            config = workloads.build_config(self.ns, self.workload.name, seed)
            sim = simulate(self.ns, config, tracer)
        except Exception:
            self.failures.append("%s raised:\n%s" % (label, traceback.format_exc()))
            return None
        errors = workloads.invariant_errors(sim.result)
        blob = workloads.result_bytes(sim.result)
        if seed == self.workload.default_seed:
            actual = workloads.digest(sim.result)
            if actual != self.workload.digest:
                errors.append("digest %s != pinned %s" % (actual, self.workload.digest))
        if seed == self.seed:
            # Every repetition, traced or not, must be byte-identical.
            if self._reference is None:
                self._reference = blob
            elif blob != self._reference:
                errors.append("result differs from the first run of this seed")
        if errors:
            self.failures.append("%s: %s" % (label, "; ".join(errors)))
            return None
        return sim


def repeat_for(seconds: float, body: Callable[[], bool]) -> None:
    """Call ``body`` until ``seconds`` would be exceeded by one more call.

    Runs at least once; stops early when ``body`` returns ``False``.
    """
    spent: List[float] = []
    while True:
        start = time.perf_counter()
        keep_going = body()
        spent.append(time.perf_counter() - start)
        if not keep_going or sum(spent) + statistics.median(spent) > seconds:
            return


def measure_setup(name: str, seed: int) -> Dict[str, float]:
    """Median ``import_s`` / ``construct_s`` / ``schedule_s`` / ``total_s``
    over :data:`SETUP_PROBES` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        sample = json.loads(completed.stdout.strip().splitlines()[-1])
        sample["total_s"] = sum(sample.values())
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def end_to_end_metrics(
    setup: Dict[str, float], sims: List[Simulation], tuples: int
) -> Dict[str, float]:
    result = sims[-1].result
    run_s = statistics.median(s.run_s for s in sims)
    return {
        "setup_s": setup["total_s"],
        "run_s": run_s,
        "cpu_s": statistics.median(s.cpu_s for s in sims),
        "tuples_per_s": tuples / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recall": result.reported_pairs / result.truth_pairs,
        "msgs_per_result": result.messages_per_result_tuple,
        "sim_latency_p95_s": result.latency["p95"],
        "epsilon": result.epsilon,
    }


def layer_metrics(
    setup: Dict[str, float], untraced: List[Simulation], traced: List[Simulation]
) -> Dict[str, float]:
    """Per-layer metrics: self times are medians over the traced runs,
    counts come from the last one (they repeat exactly)."""
    per_run = [sim.tracer.layer_totals() for sim in traced]
    last, tracer = traced[-1], traced[-1].tracer
    result = last.result

    def calls(*names: str) -> int:
        return sum(per_run[-1].get(name, (0, 0.0))[0] for name in names)

    def self_s(*names: str) -> float:
        return statistics.median(
            sum(totals.get(name, (0, 0.0))[1] for name in names) for totals in per_run
        )

    untraced_s = statistics.median(s.run_s for s in untraced)
    traced_s = statistics.median(s.run_s for s in traced)
    unattributed = statistics.median(
        sim.run_s - sum(seconds for _, seconds in totals.values())
        for sim, totals in zip(traced, per_run)
    )
    chooses = calls("policy.choose")
    probes = calls("join.probe")
    return {
        "setup.import_s": setup["import_s"],
        "setup.construct_s": setup["construct_s"],
        "setup.schedule_s": setup["schedule_s"],
        "sched.events": last.events,
        "sched.events_per_s": last.events / untraced_s,
        "sched.self_s": self_s("sched.run"),
        "node.event_self_s": self_s("node.event"),
        "node.enqueue_calls": calls("node.enqueue"),
        "node.enqueue_self_s": self_s("node.enqueue"),
        "node.max_queue_depth": max(
            d["max_queue_depth"] for d in result.node_diagnostics.values()
        ),
        "net.messages": result.traffic["total_messages"],
        "net.bytes": result.traffic["total_bytes"],
        "net.send_self_s": self_s("net.send"),
        "net.link_send_self_s": self_s("net.link_send"),
        "net.stats_self_s": self_s("net.stats"),
        "policy.choose_calls": chooses,
        "policy.choose_self_s": self_s("policy.choose"),
        "policy.similarity_calls": calls("policy.similarity"),
        "policy.similarity_self_s": self_s("policy.similarity"),
        "policy.waterfill_calls": calls("policy.waterfill"),
        "policy.waterfill_self_s": self_s("policy.waterfill"),
        "policy.join_estimate_calls": calls("policy.join_estimate"),
        "policy.join_estimate_self_s": self_s("policy.join_estimate"),
        "policy.fanout": tracer.fanout / chooses if chooses else 0.0,
        "summary.insert_calls": calls("summary.insert"),
        "summary.insert_self_s": self_s("summary.insert"),
        "summary.remote_apply_calls": calls("summary.remote_apply"),
        "summary.remote_apply_self_s": self_s("summary.remote_apply"),
        "summary.bytes": result.traffic["summary_bytes"],
        "join.inserts": calls("join.insert"),
        "join.insert_self_s": self_s("join.insert"),
        "join.probes": probes,
        "join.probe_self_s": self_s("join.probe"),
        "join.probe_hit_ratio": tracer.probe_hits / probes if probes else 0.0,
        "accounting.ops": tracer.accounting_ops,
        "accounting.replay_s": self_s("accounting.replay"),
        "recovery.checkpoints": result.recovery.get("checkpoints_taken", 0.0),
        "recovery.checkpoint_self_s": self_s("recovery.checkpoint"),
        "recovery.checkpoint_bytes": result.recovery.get("checkpoint_bytes", 0.0),
        "recovery.restart_self_s": self_s("recovery.restart"),
        "recovery.state_transfer_bytes": result.recovery.get(
            "state_transfer_bytes", 0.0
        ),
        "reliable.sends": calls("reliable.send"),
        "reliable.self_s": self_s("reliable.send", "reliable.receive", "reliable.health"),
        "reliable.heartbeat_self_s": self_s("reliable.heartbeat"),
        "reliable.retransmits": result.reliability.get("retransmits", 0.0),
        "overload.shed_tuples": result.overload.get("shed_tuples", 0.0),
        "overload.transitions": result.overload.get("mode_transitions", 0.0),
        "telemetry.emits": calls("telemetry.emit"),
        "telemetry.emit_self_s": self_s("telemetry.emit", "telemetry.message"),
        "telemetry.sample_self_s": self_s("telemetry.sample"),
        "trace.run_s": traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unattributed_s": unattributed,
    }


def environment(ns) -> str:
    import numpy

    return "nproc=%d python=%s numpy=%s kernels=%s shards=1 machine=%s" % (
        len(os.sched_getaffinity(0)),
        platform.python_version(),
        numpy.__version__,
        ns.kernel_mode(),
        platform.machine(),
    )


def benchmark(args, ns) -> int:
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    checker = Checker(ns, workload, seed)
    print("env: %s" % environment(ns))
    setup = measure_setup(workload.name, seed)
    tuples = workloads.build_config(ns, workload.name, seed).workload.total_tuples
    # Untimed warm-up at the default seed, which also checks the pinned digest.
    checker.run(workload.default_seed)
    untraced: List[Simulation] = []
    traced: List[Simulation] = []

    def once() -> bool:
        sim = checker.run(seed)
        if sim is None:
            return False
        untraced.append(sim)
        if args.trace:
            sim = checker.run(seed, Tracer())
            if sim is None:
                return False
            traced.append(sim)
        return True

    repeat_for(args.seconds, once)
    metrics: Dict[str, float] = {}
    if args.trace and traced:
        metrics = layer_metrics(setup, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        traced[-1].tracer.save(OUT_DIR / ("%s-seed%d.npz" % (workload.name, seed)))
    elif not args.trace and untraced:
        metrics = end_to_end_metrics(setup, untraced, tuples)
    failed = len(checker.failures)
    metrics["failed_frac"] = failed / checker.attempted
    print(
        "workload=%s seed=%d seconds=%d trace=%d simulations=%d (untraced %d, traced %d)"
        % (workload.name, seed, args.seconds, args.trace, checker.attempted,
           len(untraced), len(traced))
    )
    rows = (
        [(name, unit, "layer", better) for name, unit, better in PER_LAYER]
        if args.trace
        else END_TO_END
    )
    for name, unit, clock, better in rows + REPORTED_ONLY:
        if name in metrics:
            print("  %-32s %16.6g %-9s %-6s %s is better" % (name, metrics[name], unit, clock, better))
    reported = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit, _, _ in rows
        if name in metrics
    }
    for failure in checker.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


def check(args, ns) -> int:
    """Default seed of each workload: pinned digest, fast and naive kernels."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    ok = True
    for name in names:
        workload = workloads.WORKLOADS[name]
        for mode in ("fast", "naive"):
            checker = Checker(ns, workload, workload.default_seed)
            if mode == "naive":
                os.environ["REPRO_NAIVE_KERNELS"] = "1"
            try:
                sim = checker.run(workload.default_seed)
            finally:
                os.environ.pop("REPRO_NAIVE_KERNELS", None)
            ok = ok and sim is not None
            print(
                "%-14s seed=%-3d kernels=%-5s %s"
                % (name, workload.default_seed, mode,
                   "ok run_s=%.3f" % sim.run_s if sim else "; ".join(checker.failures))
            )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="SystemConfig.seed (default: the workload's)")
    parser.add_argument("--seconds", type=int, default=10, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--check", action="store_true",
        help="check pinned digests under fast and naive kernels, then exit",
    )
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required")
    for name in workloads.PINNED_ENV:
        os.environ.pop(name, None)
    ns = workloads.import_repro()
    return check(args, ns) if args.check else benchmark(args, ns)


if __name__ == "__main__":
    sys.exit(main())
