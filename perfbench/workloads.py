"""The benchmark's workloads, the program under test, and output checks.

Nothing here imports ``repro`` at module import time: the set-up probe
(``setup_probe.py``) times that import, so it happens inside
:func:`import_repro`.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PINNED_ENV = ("REPRO_NAIVE_KERNELS", "REPRO_SHARDS")
"""Environment switches the benchmark clears: naive kernels would time
the reference path, and ``REPRO_SHARDS`` would silently swap in the
sharded engine (the benchmark also passes ``shards=1`` explicitly)."""

BLOOM_FAULT_PLAN = (
    "loss@t=3,d=2,p=0.3;crash@t=6,node=3,downtime=3;"
    "overload@t=10,d=4,node=1,factor=12"
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    digest: str
    """sha256 of :func:`result_bytes` for ``default_seed`` (see ``--check``)."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dftt_zipf20",
            "DFTT on 20 nodes, 4000 Zipf tuples: the policy decision layer "
            "(similarity, water-filling) dominates",
            3,
            "80e2fc4d7d61d55a1734cee50c7909c7238e47e2a0f2fb9f856a9753c8275f58",
        ),
        Workload(
            "base_zipf20",
            "same inputs under BASE broadcast: scheduler, node glue, link send "
            "and traffic stats dominate; no policy work",
            3,
            "4bac0f4bafd2af96ff511f2dfb40d1a26ad5a11892d103df93df05f860efa56e",
        ),
        Workload(
            "bloom_faults8",
            "BLOOM on 8 nodes with loss, a crash and an overload: recovery, "
            "reliable transport, shedding and telemetry are exercised",
            11,
            "cf494cafab059e370356c1bee330122a0e5dec68bf775a6c02aa479ad775d6bf",
        ),
    )
}


def import_repro() -> SimpleNamespace:
    """Import the program from ``src/`` and return the names the benchmark uses.

    Raises ``SystemExit`` when ``src/repro`` is absent, or when ``repro``
    resolves to a copy outside this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("error: %s/repro not found; run from a full checkout" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit("error: imported repro from %s, not %s" % (repro.__file__, SRC))
    from repro.config import Algorithm, PolicyConfig, SystemConfig, WorkloadConfig
    from repro.core import correlation
    from repro.core.flow import FlowController
    from repro.core.health import PeerHealthMonitor
    from repro.core.node import JoinProcessingNode
    from repro.core.policies import ForwardingPolicy
    from repro.core.policies.dftt import DfttPolicy
    from repro.core.system import DistributedJoinSystem
    from repro.join.hash_join import SymmetricHashJoin
    from repro.metrics import accounting
    from repro.net.faults import FaultPlan
    from repro.net.link import Link
    from repro.net.reliable import ReliabilitySettings, ReliableTransport
    from repro.net.simulator import EventScheduler
    from repro.net.stats import TrafficStats
    from repro.net.topology import Network
    from repro.overload import OverloadSettings
    from repro.recovery.settings import RecoverySettings
    from repro.telemetry import TelemetryHub
    from repro.telemetry.manifest import kernel_mode
    from repro.telemetry.settings import TelemetrySettings

    policy_classes = []
    for module_name in ("base", "bloom", "dft", "dftt", "round_robin", "sketch"):
        module = importlib.import_module("repro.core.policies." + module_name)
        policy_classes.extend(
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, ForwardingPolicy)
        )
    names = dict(locals())
    names.pop("module", None)
    names.pop("module_name", None)
    return SimpleNamespace(**names)


def build_config(ns: SimpleNamespace, name: str, seed: int):
    """The ``SystemConfig`` of workload ``name`` with ``seed``."""
    if name in ("dftt_zipf20", "base_zipf20"):
        algorithm = ns.Algorithm.DFTT if name == "dftt_zipf20" else ns.Algorithm.BASE
        return ns.SystemConfig(
            num_nodes=20,
            window_size=128,
            policy=ns.PolicyConfig(algorithm=algorithm, kappa=4.0),
            workload=ns.WorkloadConfig(
                total_tuples=4000, domain=1024, alpha=0.4, arrival_rate=400.0
            ),
            seed=seed,
        )
    if name == "bloom_faults8":
        return ns.SystemConfig(
            num_nodes=8,
            window_size=512,
            policy=ns.PolicyConfig(algorithm=ns.Algorithm.BLOOM, kappa=16.0),
            workload=ns.WorkloadConfig(
                total_tuples=6000, domain=8192, alpha=0.4, arrival_rate=300.0
            ),
            reliability=ns.ReliabilitySettings(enabled=True),
            recovery=ns.RecoverySettings(
                enabled=True, checkpoint_interval_s=1.0, delta_state_transfer=True
            ),
            overload=ns.OverloadSettings.for_queue_bound(128),
            telemetry=ns.TelemetrySettings(enabled=True),
            faults=ns.FaultPlan.parse(BLOOM_FAULT_PLAN, num_nodes=8),
            seed=seed,
        )
    raise KeyError(name)


def result_bytes(result) -> bytes:
    """Canonical bytes of a ``RunResult`` without its ``manifest`` and
    ``profile`` (provenance and wall-clock data, which differ run to run)."""
    fields = {
        key: value
        for key, value in vars(result).items()
        if key not in ("manifest", "profile")
    }
    return json.dumps(fields, sort_keys=True, default=repr).encode()


def digest(result) -> str:
    return hashlib.sha256(result_bytes(result)).hexdigest()


def invariant_errors(result) -> List[str]:
    """Seed-independent output checks; empty when the result passes.

    ``duplicate_reports`` is not checked here: a pair found at two nodes
    is reported twice by design and deduplicated at the consumer (see
    ``repro.metrics.accounting``), so the count is legitimately nonzero
    on BASE.  The pinned digest covers it on each default seed.
    """
    errors = []
    if result.spurious_reports != 0:
        errors.append("spurious_reports=%d" % result.spurious_reports)
    if result.reported_pairs > result.truth_pairs:
        errors.append(
            "reported_pairs=%d > truth_pairs=%d"
            % (result.reported_pairs, result.truth_pairs)
        )
    return errors
