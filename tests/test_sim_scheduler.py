"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.events import Event, EventKind
from repro.sim.scheduler import Scheduler


class CollectingNode:
    """Records events delivered to it."""

    def __init__(self):
        self.received = []

    def handle_event(self, event):
        self.received.append((event.time, event.payload))


def test_events_dispatch_in_time_order():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    scheduler.schedule_at(30.0, EventKind.TIMER, "n", payload="c")
    scheduler.schedule_at(10.0, EventKind.TIMER, "n", payload="a")
    scheduler.schedule_at(20.0, EventKind.TIMER, "n", payload="b")
    scheduler.run()
    assert [payload for _t, payload in node.received] == ["a", "b", "c"]
    assert scheduler.clock.now == 30.0


def test_simultaneous_events_dispatch_in_insertion_order():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    for payload in ("first", "second", "third"):
        scheduler.schedule_at(5.0, EventKind.TIMER, "n", payload=payload)
    scheduler.run()
    assert [payload for _t, payload in node.received] == ["first", "second", "third"]


def test_cancelled_events_are_skipped():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    event = scheduler.schedule_at(5.0, EventKind.TIMER, "n", payload="x")
    event.cancel()
    scheduler.run()
    assert node.received == []


def test_run_until_stops_before_later_events():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    scheduler.schedule_at(10.0, EventKind.TIMER, "n", payload="early")
    scheduler.schedule_at(100.0, EventKind.TIMER, "n", payload="late")
    scheduler.run(until=50.0)
    assert [payload for _t, payload in node.received] == ["early"]
    assert scheduler.clock.now == 50.0
    scheduler.run()
    assert len(node.received) == 2


def test_run_max_events_limit():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    for i in range(10):
        scheduler.schedule_at(float(i), EventKind.TIMER, "n", payload=i)
    dispatched = scheduler.run(max_events=4)
    assert dispatched == 4
    assert len(node.received) == 4


def test_stop_when_condition():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    for i in range(10):
        scheduler.schedule_at(float(i + 1), EventKind.TIMER, "n", payload=i)
    scheduler.run(stop_when=lambda: len(node.received) >= 3)
    assert len(node.received) == 3


def test_callback_events_invoke_callable():
    scheduler = Scheduler()
    fired = []
    scheduler.schedule_at(
        1.0, EventKind.INTERNAL, "nobody", callback=lambda: fired.append(True)
    )
    scheduler.run()
    assert fired == [True]


def test_cannot_schedule_in_the_past():
    scheduler = Scheduler()
    scheduler.clock.advance_to(100.0)
    with pytest.raises(ValueError):
        scheduler.schedule_at(50.0, EventKind.TIMER, "n")


def test_unknown_target_is_ignored():
    scheduler = Scheduler()
    scheduler.schedule_at(1.0, EventKind.TIMER, "ghost", payload="x")
    # No exception: the event is dropped because no node is registered.
    assert scheduler.run() == 1


def test_pending_counts_uncancelled_events():
    scheduler = Scheduler()
    event = scheduler.schedule_at(1.0, EventKind.TIMER, "n")
    scheduler.schedule_at(2.0, EventKind.TIMER, "n")
    assert scheduler.pending == 2
    event.cancel()
    assert scheduler.pending == 1


def test_nodes_view_is_read_only():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    view = scheduler.nodes
    with pytest.raises(TypeError):
        view["m"] = CollectingNode()
    with pytest.raises(TypeError):
        del view["n"]


def test_nodes_view_is_live_and_copy_free():
    scheduler = Scheduler()
    view = scheduler.nodes
    assert scheduler.nodes is view
    node = CollectingNode()
    scheduler.register("n", node)
    assert view["n"] is node
    scheduler.unregister("n")
    assert "n" not in view


def test_mixed_cancelled_and_simultaneous_events_keep_order():
    scheduler = Scheduler()
    node = CollectingNode()
    scheduler.register("n", node)
    keep = [scheduler.schedule_at(5.0, EventKind.TIMER, "n", payload=i)
            for i in range(6)]
    keep[1].cancel()
    keep[4].cancel()
    scheduler.schedule_at(1.0, EventKind.TIMER, "n", payload="early")
    scheduler.run()
    assert [payload for _t, payload in node.received] == ["early", 0, 2, 3, 5]
