"""Outside-in span tracing of one simulation, layer by layer.

The tracer wraps public entry points of the simulator's modules from the
outside -- class attributes and module-level functions are swapped for
recording wrappers and swapped back afterwards -- so nothing under
``src/`` knows it is being traced.  Each call records one span (name,
start, end, parent span) in compact in-memory arrays.  A layer's *self
time* is the sum of its spans' durations minus the time their direct
child spans cover (:func:`self_times`).

Only synchronous, single-threaded code is traced, so spans nest
strictly.  A call into a probe whose span is already the innermost open
one (``super()`` chains, a batch entry point delegating to the scalar
one) is folded into that span instead of opening a nested copy, so span
counts are call counts of the outermost entry.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

CALLBACK_SPAN = "node.event"
"""Span name for every event callback, wrapped where it is scheduled."""


def probe_targets(ns) -> List[Tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every traced entry point.

    ``ns`` is the namespace from :func:`workloads.import_repro`.  Owners
    are classes (the attribute must be defined on the class itself) or
    the module that defines a function; a module function is also
    swapped in every ``repro`` module that imported it by name.
    """
    targets = [
        ("sched.run", ns.EventScheduler, "run"),
        ("node.enqueue", ns.JoinProcessingNode, "on_local_arrival"),
        ("node.enqueue", ns.JoinProcessingNode, "on_local_arrivals"),
        ("node.enqueue", ns.JoinProcessingNode, "on_message"),
        ("net.send", ns.Network, "send"),
        ("net.link_send", ns.Link, "send"),
        ("net.stats", ns.TrafficStats, "record"),
        ("net.stats", ns.TrafficStats, "record_loss"),
        ("policy.similarity", ns.correlation, "similarity"),
        ("policy.similarity", ns.correlation, "distribution_similarity"),
        ("policy.waterfill", ns.FlowController, "probabilities"),
        ("policy.join_estimate", ns.DfttPolicy, "join_estimate"),
        ("join.insert", ns.SymmetricHashJoin, "insert_local"),
        ("join.probe", ns.SymmetricHashJoin, "probe_remote"),
        ("accounting.replay", ns.accounting, "replay_accounting"),
        ("recovery.checkpoint", ns.JoinProcessingNode, "take_checkpoint"),
        ("recovery.restart", ns.JoinProcessingNode, "on_crash"),
        ("recovery.restart", ns.JoinProcessingNode, "on_restart"),
        ("reliable.send", ns.ReliableTransport, "send"),
        ("reliable.receive", ns.ReliableTransport, "on_receive"),
        ("reliable.receive", ns.ReliableTransport, "on_ack"),
        ("reliable.health", ns.PeerHealthMonitor, "heard"),
        ("reliable.heartbeat", ns.JoinProcessingNode, "send_heartbeats"),
        ("telemetry.emit", ns.TelemetryHub, "emit"),
        ("telemetry.message", ns.TelemetryHub, "on_message_send"),
        ("telemetry.message", ns.TelemetryHub, "on_message_deliver"),
        ("telemetry.message", ns.TelemetryHub, "on_message_drop"),
        ("telemetry.sample", ns.TelemetryHub, "sample_tick"),
    ]
    hooks = (
        ("policy.choose", "choose_destinations"),
        ("summary.insert", "on_local_insert"),
        ("summary.insert", "on_local_insert_batch"),
        ("summary.insert", "on_evictions"),
        ("summary.remote_apply", "on_remote_summary"),
    )
    for cls in ns.policy_classes:
        for span, attribute in hooks:
            if attribute in vars(cls):
                targets.append((span, cls, attribute))
    return targets


class Tracer:
    """Records spans for the probes it installs; see the module docstring.

    Use :meth:`install` / :meth:`uninstall` around the traced simulation,
    :meth:`reset` to drop spans recorded so far (construction-time calls),
    and :meth:`layer_totals` to read the result.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.fanout = 0
        """Destinations summed over outermost ``policy.choose`` spans."""
        self.probe_hits = 0
        """Outermost ``join.probe`` spans that returned at least one match."""
        self.accounting_ops = 0
        """Operations handed to ``accounting.replay``."""
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_span(self, name_id: int) -> Optional[int]:
        """Start a span, or return ``None`` when folded into the open one."""
        stack = self._stack
        if stack and self.span_name[stack[-1]] == name_id:
            return None
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self.start.append(self.clock())
        stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None):
        """A recording stand-in for ``fn`` under span ``name``.

        ``on_result(args, result)`` runs after each call that opened a span.
        """
        name_id = self.name_id(name)
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(name_id)
            if index is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def reset(self) -> None:
        """Forget every span recorded so far (wrappers stay installed)."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        for column in (self.span_name, self.start, self.end, self.parent):
            del column[:]
        self.fanout = 0
        self.probe_hits = 0
        self.accounting_ops = 0

    # -- installing -----------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self, ns) -> "Tracer":
        """Wrap every probe of :func:`probe_targets` plus event callbacks."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        on_result = {
            "policy.choose": self._count_fanout,
            "join.probe": self._count_probe_hit,
            "accounting.replay": self._count_ops,
        }
        for name, owner, attribute in probe_targets(ns):
            original = vars(owner)[attribute]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError("%s.%s is not a plain function" % (owner, attribute))
            traced = self.wrap(original, name, on_result.get(name))
            self._patch(owner, attribute, traced)
            if isinstance(owner, type):
                continue
            # Modules that imported the function by name hold their own
            # reference; swap those too.
            for module_name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and module_name.startswith("repro")
                    and vars(module).get(attribute) is original
                ):
                    self._patch(module, attribute, traced)
        schedule_at = vars(ns.EventScheduler)["schedule_at"]
        callback_id = self.name_id(CALLBACK_SPAN)
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(schedule_at)
        def traced_schedule_at(scheduler, when, callback, *args, **kwargs):
            def traced_callback():
                index = open_span(callback_id)
                try:
                    callback()
                finally:
                    if index is not None:
                        close_span(index)

            return schedule_at(scheduler, when, traced_callback, *args, **kwargs)

        self._patch(ns.EventScheduler, "schedule_at", traced_schedule_at)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _count_fanout(self, args, destinations) -> None:
        self.fanout += len(destinations)

    def _count_probe_hit(self, args, matches) -> None:
        if matches:
            self.probe_hits += 1

    def _count_ops(self, args, result) -> None:
        self.accounting_ops += len(args[0])

    # -- reading --------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (span count, self seconds)}`` over recorded spans."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        counts = np.bincount(spans["name"], minlength=len(self.names))
        seconds = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        return {
            name: (int(counts[index]), float(seconds[index]))
            for index, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write the recorded spans as an ``.npz`` (names + four columns)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    Spans nest strictly, so a span's children are disjoint sub-intervals
    of it and their summed durations are exactly the part they cover.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(duration)
    )
    return duration - covered
