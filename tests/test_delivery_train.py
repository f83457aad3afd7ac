"""Delivery trains dispatch exactly like one heap slot per delivery.

A flush handed to ``Network.send_many`` becomes one ``DeliveryTrain`` — one
heap slot, walked in place by ``Scheduler.run``.  The contract is that
nobody can tell: every delivery happens at the time, and in the order among
everything else pending, that scheduling each copy as its own ``Event``
would give, and every loss, duplication and jitter draw is the one that
copy would have made.  ``PerCopyNetwork`` below *is* that reference (each
copy drawn for and scheduled on its own), and the property test runs random
scripts of multicasts, single sends, timers and cancellations against both,
on clean and impaired networks.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.conditions import NetworkConditions
from repro.net.network import Network
from repro.sim.events import DeliveryTrain, Event, EventKind
from repro.sim.node import Node
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Scheduler

NAMES = ("a", "b", "c", "d", "e")
#: Transit is 4 + size / 2 with sizes 0..8 and departures on a half-unit
#: grid: every time is a multiple of 0.5, so equal timestamps are common.
CONDITIONS = dict(fixed_delay=4.0, per_byte_delay=0.5)
#: A script stops reacting once this many messages and timers exist.
MESSAGE_CAP = 250


def per_copy_send(
    network: Network,
    source: str,
    destination: str,
    message: Any,
    size_bytes: int,
    not_before: Optional[float] = None,
) -> None:
    """One copy from ``source`` to ``destination``, the way a network that
    gives every copy its own heap slot sends it: unknown destination,
    stats, partition, loss draw, duplication draw, then per delivered copy
    a jitter draw and one ``Event`` whose callback hands the message to the
    node's ``on_message``."""
    stats = network.stats
    if destination not in network.endpoints():
        stats.messages_dropped += 1
        return
    now = network.scheduler.clock.now
    depart = max(now, not_before) if not_before is not None else now
    auth_size = getattr(message, "auth_size", None)
    stats.record(
        type(message).__name__, size_bytes, source,
        auth_size() if auth_size is not None else 0,
    )
    conditions, rng = network.conditions, network.rng
    if conditions.partitions and conditions.is_partitioned(source, destination):
        stats.messages_dropped += 1
        return
    if conditions.drop_probability and rng.chance(conditions.drop_probability):
        stats.messages_dropped += 1
        return
    copies = 1
    if conditions.duplicate_probability and rng.chance(conditions.duplicate_probability):
        copies += conditions.duplicate_copies
        stats.messages_duplicated += copies - 1
    for _ in range(copies):
        arrival = depart + conditions.transit_time(size_bytes, rng)
        network.scheduler.schedule(Event.make(
            arrival, EventKind.INTERNAL, destination,
            payload=(source, destination, message, size_bytes, depart),
            callback=functools.partial(
                _deliver, network.scheduler, destination, message, arrival, size_bytes
            ),
        ))


def _deliver(scheduler, destination, message, arrival, size_bytes):
    node = scheduler.nodes.get(destination)
    if node is not None:
        node.on_message(message, arrival, size_bytes)


class PerCopyNetwork(Network):
    """The reference: every copy of every run is its own ``per_copy_send``,
    hence its own draws, ``Event`` and heap slot."""

    def send(self, source, destination, message, size_bytes, not_before=None):
        per_copy_send(self, source, destination, message, size_bytes, not_before)

    def send_many(self, source, runs):
        for destinations, message, size_bytes, departures in runs:
            for destination, not_before in zip(destinations, departures):
                per_copy_send(self, source, destination, message, size_bytes, not_before)


class ScriptedNode(Node):
    """Logs what reaches it and reacts as the script says.

    A message or timer label is ``(ident, hops)``; with ``hops`` left the
    node plays reaction ``ident mod len(reactions)``: single sends, one
    flush of runs, timers, maybe a cancellation — all while the scheduler
    is in the middle of whatever train delivered the trigger."""

    def __init__(self, name, scheduler, network, reactions, log, idents):
        super().__init__(name, scheduler)
        network.register(name)
        self.network = network
        self.reactions = reactions
        self.log = log
        self.idents = idents
        self.timers: List[Event] = []
        self.explode_on: Any = None

    def on_message(self, message, arrival_time, size_bytes):
        assert arrival_time == self.now
        self.log.append((arrival_time, self.name, message))
        if message == self.explode_on:
            raise RuntimeError("handler failed")
        self.react(message)

    def on_timer(self, label):
        self.log.append((self.now, self.name, label))
        self.react(label)

    def fresh(self, hops):
        return (next(self.idents), hops)

    def react(self, trigger):
        ident, hops = trigger
        if hops == 0 or ident > MESSAGE_CAP:
            return
        sends, flush, timers, cancel = self.reactions[ident % len(self.reactions)]
        now = self.now
        for destination, size, offset in sends:
            self.network.send(
                self.name, NAMES[destination], self.fresh(hops - 1), size, now + offset
            )
        self.network.send_many(self.name, [
            (
                tuple(NAMES[d] for d in destinations),
                self.fresh(hops - 1),
                size,
                [now + offset for offset in offsets[:len(destinations)]],
            )
            for destinations, size, offsets in flush
        ])
        for delay in timers:
            self.timers.append(self.scheduler.schedule_after(
                delay, EventKind.TIMER, self.name, payload=self.fresh(hops - 1)
            ))
        if cancel and self.timers:
            self.timers.pop(0).cancel()


def build(network_class, reactions, impairments=None):
    """Five scripted nodes on a network with ``CONDITIONS`` plus
    ``impairments`` (``NetworkConditions`` fields, ``partition``: a pair of
    node indexes or ``None``)."""
    impairments = dict(impairments or {})
    partition = impairments.pop("partition", None)
    conditions = NetworkConditions(**CONDITIONS, **impairments)
    if partition is not None:
        conditions.partition(NAMES[partition[0]], NAMES[partition[1]])
    scheduler = Scheduler()
    network = network_class(scheduler, conditions, SimRandom(0))
    log: List[Tuple[float, str, Any]] = []
    idents = itertools.count(1)
    nodes = {
        name: ScriptedNode(name, scheduler, network, reactions, log, idents)
        for name in NAMES
    }
    return scheduler, network, nodes, log


def start(nodes):
    """Two triggers at the same instant, from outside any handler."""
    nodes["a"].react((0, 3))
    nodes["b"].react((1, 2))


half_units = st.integers(-2, 8).map(lambda n: n / 2)  # negative: clamped to now
destination = st.integers(0, len(NAMES) - 1)
size = st.integers(0, 8)
run = st.tuples(
    st.lists(destination, min_size=1, max_size=5),
    size,
    st.lists(half_units, min_size=5, max_size=5),
)
reaction = st.tuples(
    st.lists(st.tuples(destination, size, half_units), max_size=2),
    st.lists(run, max_size=3),
    st.lists(st.integers(0, 16).map(lambda n: n / 2), max_size=2),
    st.booleans(),
)
scripts = st.lists(reaction, min_size=1, max_size=5)
impairments = st.fixed_dictionaries({
    "drop_probability": st.sampled_from((0.0, 0.0, 0.2, 1.0)),
    "duplicate_probability": st.sampled_from((0.0, 0.0, 0.3, 1.0)),
    "duplicate_copies": st.integers(1, 2),
    "jitter": st.sampled_from((0.0, 0.0, 0.5, 3.0)),
    "partition": st.none() | st.tuples(destination, destination),
})


def run_in_pieces(scheduler, log, pieces):
    """Drive ``scheduler`` to the end through whatever mix of stopping
    rules ``pieces`` asks for; returns how many events the calls reported."""
    reported = 0
    for kind, amount in pieces:
        if kind == "max_events":
            reported += scheduler.run(max_events=amount)
        elif kind == "until":
            reported += scheduler.run(until=scheduler.clock.now + amount)
        else:
            target = len(log) + amount
            reported += scheduler.run(stop_when=lambda: len(log) >= target)
    return reported + scheduler.run()


@settings(max_examples=200, deadline=None)
@given(
    reactions=scripts,
    pieces=st.lists(
        st.tuples(st.sampled_from(("max_events", "until", "stop_when")),
                  st.integers(1, 7)),
        max_size=6,
    ),
    conditions=impairments,
)
def test_trains_dispatch_like_one_heap_slot_per_delivery(reactions, pieces, conditions):
    ref_scheduler, ref_network, ref_nodes, ref_log = build(
        PerCopyNetwork, reactions, conditions
    )
    start(ref_nodes)
    ref_scheduler.run()

    scheduler, network, nodes, log = build(Network, reactions, conditions)
    start(nodes)
    reported = run_in_pieces(scheduler, log, pieces)

    assert log == ref_log  # (time, target, message), in dispatch order
    assert reported == scheduler.dispatched == ref_scheduler.dispatched
    assert scheduler.pending == ref_scheduler.pending == 0
    assert network.stats.wire_totals() == ref_network.stats.wire_totals()
    assert network.stats.per_node == ref_network.stats.per_node
    assert network.stats.messages_dropped == ref_network.stats.messages_dropped
    assert network.stats.messages_duplicated == ref_network.stats.messages_duplicated
    assert network.rng._rng.getstate() == ref_network.rng._rng.getstate()
    assert ref_network.stats.messages_coalesced == 0
    if not any(kind == "until" for kind, _ in pieces):
        assert scheduler.clock.now == ref_scheduler.clock.now


# ------------------------------------------------------- the named cases
def quiet_world(*extra_nodes):
    """Five scripted nodes that only log, plus ``extra_nodes`` by name."""
    scheduler, network, nodes, log = build(Network, [((), (), (), False)])
    for name, node in extra_nodes:
        scheduler.register(name, node)
        network.register(name)
    return scheduler, network, nodes, log


def test_small_message_overtakes_a_large_one_and_a_timer_fires_between():
    scheduler, network, nodes, log = quiet_world()
    scheduler.schedule_at(6.0, EventKind.TIMER, "a", payload=("timer", 0))
    network.send_many("a", [
        (("b",), ("large", 0), 8, [0.0]),            # arrives 0 + 4 + 4
        (("c", "d"), ("small", 0), 0, [0.5, 0.5]),   # arrive 0.5 + 4, twice
    ])
    assert scheduler.pending == 4
    scheduler.run()
    assert log == [
        (4.5, "c", ("small", 0)),
        (4.5, "d", ("small", 0)),
        (6.0, "a", ("timer", 0)),
        (8.0, "b", ("large", 0)),
    ]
    assert network.stats.messages_coalesced == 2


def test_equal_timestamps_keep_creation_order_across_train_and_events():
    scheduler, network, nodes, log = quiet_world()
    scheduler.schedule_at(4.0, EventKind.TIMER, "e", payload=("before", 0))
    network.send_many("a", [(("d", "c", "b"), ("m", 0), 0, [0.0, 0.0, 0.0])])
    scheduler.schedule_at(4.0, EventKind.TIMER, "e", payload=("after", 0))
    scheduler.run()
    assert [(target, message[0]) for _time, target, message in log] == [
        ("e", "before"), ("d", "m"), ("c", "m"), ("b", "m"), ("e", "after"),
    ]


def test_a_raising_handler_leaves_the_rest_of_the_train_deliverable():
    scheduler, network, nodes, log = quiet_world()
    nodes["c"].explode_on = ("m", 0)
    network.send_many("a", [(("b", "c", "d", "e"), ("m", 0), 0, [0.0, 1.0, 2.0, 3.0])])
    with pytest.raises(RuntimeError):
        scheduler.run()
    assert [target for _time, target, _message in log] == ["b", "c"]
    assert scheduler.dispatched == 2 and scheduler.pending == 2
    assert scheduler.run() == 2
    assert [(time, target) for time, target, _message in log] == [
        (4.0, "b"), (5.0, "c"), (6.0, "d"), (7.0, "e"),
    ]


def test_step_pending_and_peek_see_the_rows_of_a_train():
    scheduler, network, nodes, log = quiet_world()
    network.send_many("a", [(("b", "c", "d"), ("m", 0), 2, [0.0, 2.0, 4.0])])
    cancelled = scheduler.schedule_at(1.0, EventKind.TIMER, "a", payload=("gone", 0))
    scheduler.schedule_at(8.0, EventKind.TIMER, "a", payload=("timer", 0))
    cancelled.cancel()
    assert scheduler.pending == 4 and log == []
    assert scheduler.step() and scheduler.pending == 3
    assert log == [(5.0, "b", ("m", 0))]
    assert scheduler.step() and scheduler.pending == 2
    assert log[-1] == (7.0, "c", ("m", 0))
    assert scheduler.step() and scheduler.pending == 1
    assert log[-1] == (8.0, "a", ("timer", 0))  # between the rows
    assert scheduler.step() and scheduler.pending == 0
    assert log[-1] == (9.0, "d", ("m", 0))
    assert not scheduler.step() and scheduler.pending == 0
    assert [(time, target) for time, target, _message in log] == [
        (5.0, "b"), (7.0, "c"), (8.0, "a"), (9.0, "d"),
    ]
    assert scheduler.dispatched == 4 and scheduler.clock.now == 9.0


def test_until_stops_between_rows_and_moves_the_clock_there():
    scheduler, network, nodes, log = quiet_world()
    network.send_many("a", [(("b", "c"), ("m", 0), 0, [0.0, 10.0])])
    assert scheduler.run(until=9.0) == 1
    assert scheduler.clock.now == 9.0 and scheduler.pending == 1
    assert scheduler.run() == 1
    assert [(time, target) for time, target, _message in log] == [(4.0, "b"), (14.0, "c")]


def test_unknown_destination_in_a_run_is_one_drop_and_the_rest_arrive():
    scheduler, network, nodes, log = quiet_world()
    network.send_many("a", [
        (("b", "ghost", "c"), ("m", 0), 0, [0.0, 1.0, 2.0]),
        (("ghost",), ("nobody hears this", 0), 0, [3.0]),
    ])
    scheduler.run()
    assert log == [(4.0, "b", ("m", 0)), (6.0, "c", ("m", 0))]
    assert network.stats.messages_dropped == 2
    assert network.stats.messages_sent == 2
    assert network.stats.per_type == {"tuple": 2}
    assert scheduler.dispatched == 2


def test_a_registered_endpoint_without_a_node_swallows_its_rows():
    scheduler, network, nodes, log = quiet_world()
    network.register("unplugged")
    network.send_many("a", [(("unplugged", "b"), ("m", 0), 0, [0.0, 0.0])])
    assert scheduler.run() == 2  # dispatched, like an Event for nobody
    assert log == [(4.0, "b", ("m", 0))]


def test_messages_coalesced_counts_deliveries_without_a_slot_of_their_own():
    scheduler, network, nodes, log = quiet_world()
    network.send("a", "b", "single", 0)
    assert network.stats.messages_coalesced == 0
    network.send_many("a", [(("b",), "alone in its flush", 0, [0.0])])
    assert network.stats.messages_coalesced == 0
    network.send_many("a", [
        (("b", "c", "d"), "multicast", 0, [0.0, 0.0, 0.0]),
        (("e",), "reply", 0, [0.0]),
    ])
    assert network.stats.messages_coalesced == 3
    assert len(scheduler._queue) == 3 and scheduler.pending == 6
    network.send_many("a", [])
    assert len(scheduler._queue) == 3

    # An impaired network draws per copy, but the copies still share a slot.
    lossy = Scheduler()
    impaired = Network(lossy, NetworkConditions(jitter=1.0, **CONDITIONS), SimRandom(1))
    for name in NAMES:
        impaired.register(name)
    impaired.send_many("a", [(("b", "c", "d"), "multicast", 0, [0.0, 0.0, 0.0])])
    assert impaired.stats.messages_coalesced == 3 - 1 and len(lossy._queue) == 1


def test_a_train_cannot_be_scheduled_in_the_past():
    scheduler = Scheduler()
    scheduler.clock.advance_to(100.0)
    train = DeliveryTrain("a", [50.0], ["b"], ["m"], [0], [46.0])
    with pytest.raises(ValueError):
        scheduler.schedule_train(train)
    assert scheduler.pending == 0
