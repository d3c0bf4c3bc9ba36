"""Unit tests for the full-mesh network."""

import numpy as np
import pytest

from repro.analysis import message_matrix
from repro.errors import ConfigurationError, SimulationError
from repro.net.link import LinkSpec
from repro.net.message import Message, MessageKind
from repro.net.simulator import EventScheduler
from repro.net.topology import Network


class Recorder:
    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def _network(n=3, spec=None):
    scheduler = EventScheduler()
    network = Network(scheduler, spec=spec or LinkSpec(), rng=np.random.default_rng(5))
    endpoints = [Recorder() for _ in range(n)]
    for node_id, endpoint in enumerate(endpoints):
        network.register(node_id, endpoint)
    return scheduler, network, endpoints


def test_register_rejects_duplicates():
    _, network, _ = _network(2)
    with pytest.raises(ConfigurationError):
        network.register(0, Recorder())


def test_send_delivers_to_destination_only():
    scheduler, network, endpoints = _network(3)
    message = Message(kind=MessageKind.TUPLE, source=0, destination=2)
    network.send(message)
    scheduler.run()
    assert endpoints[2].received == [message]
    assert endpoints[1].received == []


def test_self_send_rejected():
    _, network, _ = _network(2)
    with pytest.raises(SimulationError):
        network.send(Message(kind=MessageKind.TUPLE, source=1, destination=1))


def test_send_to_unregistered_endpoint_rejected():
    _, network, _ = _network(2)
    with pytest.raises(SimulationError):
        network.send(Message(kind=MessageKind.TUPLE, source=0, destination=9))


def test_links_are_per_direction():
    _, network, _ = _network(2)
    forward = network.link(0, 1)
    backward = network.link(1, 0)
    assert forward is not backward
    assert network.link(0, 1) is forward  # cached


def test_stats_accumulate_globally_and_per_sender():
    scheduler, network, _ = _network(3)
    for destination in (1, 2):
        network.send(Message(kind=MessageKind.TUPLE, source=0, destination=destination))
    network.send(Message(kind=MessageKind.SUMMARY, source=1, destination=0, summary_entries=4))
    scheduler.run()
    assert network.stats.total_messages == 3
    per_sender = message_matrix(network).sum(axis=1)
    assert per_sender[0] == 2
    assert per_sender[1] == 1
    assert network.stats.summary_entries == 4


def test_node_ids_sorted():
    _, network, _ = _network(3)
    assert network.node_ids == (0, 1, 2)


def test_backlog_reporting():
    scheduler, network, _ = _network(2, spec=LinkSpec(latency_min_s=0.0, latency_max_s=0.0))
    assert network.backlog_seconds(0, 1) == 0.0
    for _ in range(3):
        network.send(Message(kind=MessageKind.TUPLE, source=0, destination=1))
    assert network.backlog_seconds(0, 1) > 0.0
    assert network.total_backlog_seconds() == pytest.approx(network.backlog_seconds(0, 1))
    scheduler.run()
    assert network.total_backlog_seconds() == 0.0
