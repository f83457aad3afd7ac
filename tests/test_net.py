"""Tests for the simulated network."""

import pytest

from repro.net.conditions import NetworkConditions, lan_conditions, wan_conditions
from repro.net.network import Network
from repro.sim.node import Node
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Scheduler


class Sink(Node):
    """Records the messages delivered to it."""

    def __init__(self, name, scheduler):
        super().__init__(name, scheduler)
        self.delivered = []

    def on_message(self, message, arrival_time, size_bytes):
        self.delivered.append(message)


def build_network(conditions=None, seed=0):
    scheduler = Scheduler()
    network = Network(scheduler, conditions or NetworkConditions(), SimRandom(seed))
    sinks = {}
    for name in ("a", "b", "c"):
        sink = Sink(name, scheduler)
        network.register(name)
        sinks[name] = sink
    return scheduler, network, sinks


# -------------------------------------------------------------- conditions
def test_transit_time_scales_with_size():
    conditions = NetworkConditions(fixed_delay=40.0, per_byte_delay=0.1)
    assert conditions.transit_time(0) == pytest.approx(40.0)
    assert conditions.transit_time(1000) == pytest.approx(140.0)


def test_wan_slower_than_lan():
    assert wan_conditions().transit_time(100) > lan_conditions().transit_time(100)


def test_partition_is_symmetric_and_healable():
    conditions = NetworkConditions()
    conditions.partition("a", "b")
    assert conditions.is_partitioned("a", "b")
    assert conditions.is_partitioned("b", "a")
    conditions.heal("b", "a")
    assert not conditions.is_partitioned("a", "b")


def test_isolate_partitions_from_all_others():
    conditions = NetworkConditions()
    conditions.isolate("a", {"a", "b", "c"})
    assert conditions.is_partitioned("a", "b")
    assert conditions.is_partitioned("a", "c")
    assert not conditions.is_partitioned("b", "c")


# ----------------------------------------------------------------- network
def test_message_delivered_after_transit_time():
    scheduler, network, sinks = build_network(
        NetworkConditions(fixed_delay=10.0, per_byte_delay=0.0)
    )
    network.send("a", "b", "hello", size_bytes=100)
    scheduler.run()
    assert sinks["b"].delivered == ["hello"]
    assert scheduler.clock.now == pytest.approx(10.0)


def test_multicast_reaches_all_but_sender():
    scheduler, network, sinks = build_network()
    network.multicast("a", ["a", "b", "c"], "ping", size_bytes=10)
    scheduler.run()
    assert len(sinks["a"].delivered) == 0
    assert len(sinks["b"].delivered) == 1
    assert len(sinks["c"].delivered) == 1


def test_drop_probability_one_drops_everything():
    scheduler, network, sinks = build_network(NetworkConditions(drop_probability=1.0))
    for _ in range(10):
        network.send("a", "b", "x", size_bytes=10)
    scheduler.run()
    assert sinks["b"].delivered == []
    assert network.stats.messages_dropped == 10


def test_partitioned_nodes_cannot_communicate():
    conditions = NetworkConditions()
    scheduler, network, sinks = build_network(conditions)
    conditions.partition("a", "b")
    network.send("a", "b", "x", size_bytes=10)
    network.send("a", "c", "y", size_bytes=10)
    scheduler.run()
    assert sinks["b"].delivered == []
    assert len(sinks["c"].delivered) == 1


def test_duplicate_probability_delivers_extra_copies():
    scheduler, network, sinks = build_network(
        NetworkConditions(duplicate_probability=1.0, duplicate_copies=1)
    )
    network.send("a", "b", "x", size_bytes=10)
    scheduler.run()
    assert len(sinks["b"].delivered) == 2


def test_unknown_destination_counts_as_drop():
    scheduler, network, sinks = build_network()
    network.send("a", "ghost", "x", size_bytes=10)
    scheduler.run()
    assert network.stats.messages_dropped == 1


def test_not_before_delays_departure():
    scheduler, network, sinks = build_network(
        NetworkConditions(fixed_delay=10.0, per_byte_delay=0.0)
    )
    network.send("a", "b", "x", size_bytes=0, not_before=100.0)
    scheduler.run()
    assert scheduler.clock.now == pytest.approx(110.0)


def test_stats_track_messages_and_bytes():
    scheduler, network, sinks = build_network()
    network.send("a", "b", "x", size_bytes=100)
    network.send("a", "c", "y", size_bytes=50)
    assert network.stats.messages_sent == 2
    assert network.stats.bytes_sent == 150
    assert network.stats.per_type.get("str") == 2
