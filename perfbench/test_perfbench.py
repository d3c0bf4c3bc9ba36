"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, probe_targets, self_times

NS = workloads.import_repro()


def small_config(name, tuples):
    config = workloads.build_config(NS, name, workloads.WORKLOADS[name].default_seed)
    return config.with_overrides(
        workload=config.workload.with_overrides(total_tuples=tuples)
    )


def test_self_times_of_a_synthetic_nest():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_folds_reentry_and_sums_layers():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return [1, 2]

    def inner(depth):
        return inner(depth - 1) if depth else traced_leaf()

    traced_leaf = tracer.wrap(leaf, "leaf", on_result=lambda args, r: None)
    inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: inner(2) + traced_leaf(), "outer")
    assert outer() == [1, 2, 1, 2]
    totals = tracer.layer_totals()
    # Recursive ``inner`` calls fold into one span; each span takes two ticks.
    assert totals["outer"][0] == 1 and totals["inner"][0] == 1
    assert totals["leaf"][0] == 2
    assert sum(seconds for _, seconds in totals.values()) == tracer.end[0] - tracer.start[0]
    assert totals["leaf"][1] == 2.0


def _current(targets):
    return [vars(owner)[attribute] for _, owner, attribute in targets]


def test_uninstall_restores_every_original():
    targets = probe_targets(NS) + [("", NS.EventScheduler, "schedule_at")]
    by_name = [
        (sys.modules["repro.core.system"], "replay_accounting"),
        (sys.modules["repro.core.policies.dft"], "similarity"),
    ]
    before = _current(targets)
    imported = [vars(module)[name] for module, name in by_name]
    tracer = Tracer().install(NS)
    try:
        assert all(a is not b for a, b in zip(_current(targets), before))
        assert all(vars(m)[n] is not f for (m, n), f in zip(by_name, imported))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(_current(targets), before))
    assert all(vars(m)[n] is f for (m, n), f in zip(by_name, imported))


@pytest.mark.parametrize(
    "name,tuples", [("dftt_zipf20", 300), ("base_zipf20", 300), ("bloom_faults8", 1500)]
)
def test_traced_run_equals_untraced_and_self_times_add_up(name, tuples):
    config = small_config(name, tuples)
    plain = run.simulate(NS, config)
    traced = run.simulate(NS, config, Tracer())
    assert workloads.result_bytes(traced.result) == workloads.result_bytes(plain.result)
    assert workloads.invariant_errors(plain.result) == []
    totals = traced.tracer.layer_totals()
    attributed = sum(seconds for _, seconds in totals.values())
    unattributed = traced.run_s - attributed
    assert 0.0 <= unattributed <= 0.25 * traced.run_s
    assert totals["sched.run"][0] == 1
    assert totals["accounting.replay"][0] == 1
    assert traced.tracer.accounting_ops > 0


def test_benchmark_json_matches_the_metric_tables():
    with open(workloads.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, _, better in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
