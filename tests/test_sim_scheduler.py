"""Tests for the discrete-event scheduler."""

from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.events import DeliveryTrain, Event, EventKind, reserve_sequences
from repro.sim.node import Node, Timer
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


# ------------------------------------------------------------------ timers
def test_timer_is_not_running_once_it_fired():
    scheduler = Scheduler()
    fired = []
    node = Node("n", scheduler)
    node.on_timer = fired.append
    timer = node.new_timer("t", 5.0)
    assert not timer.running
    timer.start()
    assert timer.running
    scheduler.run()
    assert fired == ["t"] and not timer.running
    timer.restart_if_stopped()
    assert timer.running
    timer.stop()
    assert not timer.running and scheduler.run() == 0 and fired == ["t"]


def test_a_restarted_timer_keeps_one_heap_slot():
    scheduler = Scheduler()
    node = Node("n", scheduler)
    node.on_timer = lambda label: None
    timer = node.new_timer("t", 5.0)
    for period in (5.0, 7.0, 3.0, 9.0, 1.0):
        timer.start(period)
        timer.stop()
        timer.start(period)
    assert len(scheduler._queue) == 1 and scheduler.pending == 1
    assert scheduler.run() == 1 and scheduler.clock.now == 1.0


class EagerTimer:
    """The reference: every start cancels the previous event and schedules
    a new one, which is left in the heap until it reaches the top."""

    def __init__(self, node, label, period):
        self.node = node
        self.label = label
        self.period = period
        self._event: Optional[Event] = None

    def start(self, period=None):
        self.stop()
        self._event = self.node.scheduler.schedule_after(
            self.period if period is None else period,
            EventKind.TIMER, self.node.name, payload=self.label,
        )

    def stop(self):
        if self._event is not None:
            self._event.cancel()


class TimerNode(Node):
    """Logs every dispatch as ``(time, sequence, label)`` — ``None`` for a
    train row's sequence — and lets its harness react to each one."""

    def __init__(self, name, scheduler, harness):
        super().__init__(name, scheduler)
        self.harness = harness

    def handle_event(self, event):
        self.harness.log.append(
            (event.time, event.sequence - self.harness.base, event.payload)
        )
        super().handle_event(event)

    def on_timer(self, label):
        self.harness.fired(label)

    def on_message(self, message, arrival_time, size_bytes):
        self.harness.log.append((arrival_time, None, message))
        self.harness.react(message[1])


TIMERS = 3
#: Reactions stop after this many, so every schedule drains.
REACTION_BUDGET = 40


class TimerHarness:
    """One node with ``TIMERS`` timers of ``timer_class`` on a fresh
    scheduler; a firing timer or a delivered row plays a scripted reaction
    (start / stop other timers)."""

    def __init__(self, timer_class, reactions, under_test):
        self.scheduler = Scheduler()
        self.base = 0
        self.log: List[tuple] = []
        self.node = TimerNode("n", self.scheduler, self)
        self.timers = [timer_class(self.node, index, 1.0) for index in range(TIMERS)]
        #: What ``running`` must say: started, not stopped or fired since.
        self.armed = [False] * TIMERS
        self.reactions = reactions
        self.budget = REACTION_BUDGET
        self.rows = 0
        self.under_test = under_test

    def act(self, action):
        if action[0] == "start":
            self.timers[action[1]].start(action[2])
        else:
            self.timers[action[1]].stop()
        self.armed[action[1]] = action[0] == "start"
        self.check()

    def fired(self, index):
        self.armed[index] = False
        self.react(index)

    def react(self, index):
        if self.budget > 0:
            self.budget -= 1
            for action in self.reactions[index % TIMERS]:
                self.act(action)

    def send_train(self, delays):
        now = self.scheduler.clock.now
        first = self.rows + 1
        self.rows += len(delays)
        messages = [(f"m{row}", row) for row in range(first, self.rows + 1)]
        self.scheduler.schedule_train(DeliveryTrain(
            [now + delay for delay in delays], ["n"] * len(delays),
            messages, [0] * len(delays),
        ))
        self.check()

    def check(self):
        """At most one heap slot per timer plus the undelivered trains, and
        ``running`` as the model says."""
        if not self.under_test:
            return
        items = [item for _time, _sequence, item in self.scheduler._queue]
        events = [item for item in items if type(item) is Event]
        assert len({id(event) for event in events}) == len(events) <= TIMERS
        assert all(
            type(item) is Event or item.cursor < len(item.times) for item in items
        )
        assert [timer.running for timer in self.timers] == self.armed

    def play(self, steps):
        """Run ``steps``, then drain; returns what each step left behind."""
        self.base = reserve_sequences(0)
        scheduler = self.scheduler
        trace = []
        for step in steps + [("drain",)]:
            kind = step[0]
            ran = None
            if kind in ("start", "stop"):
                self.act(step)
            elif kind == "train":
                self.send_train(step[1])
            elif kind == "until":
                ran = scheduler.run(until=scheduler.clock.now + step[1])
            elif kind == "max_events":
                ran = scheduler.run(max_events=step[1])
            elif kind == "stop_when":
                target = len(self.log) + step[1]
                ran = scheduler.run(stop_when=lambda: len(self.log) >= target)
            else:
                ran = scheduler.run()
            self.check()
            trace.append((
                ran, scheduler.dispatched, scheduler.pending, scheduler.clock.now,
                len(self.log), list(self.armed),
            ))
        return trace


_timer = st.integers(0, TIMERS - 1)
_delay = st.integers(0, 12).map(lambda n: n / 2)
_action = st.one_of(
    st.tuples(st.just("start"), _timer, _delay),
    st.tuples(st.just("stop"), _timer),
)
_steps = st.lists(
    st.one_of(
        _action,
        st.tuples(st.just("train"), st.lists(_delay, min_size=1, max_size=4)),
        st.tuples(st.just("until"), _delay),
        st.tuples(st.just("max_events"), st.integers(0, 4)),
        st.tuples(st.just("stop_when"), st.integers(1, 4)),
    ),
    max_size=30,
)
_reactions = st.lists(st.lists(_action, max_size=2), min_size=TIMERS, max_size=TIMERS)


@settings(max_examples=300, deadline=None)
@given(steps=_steps, reactions=_reactions)
def test_lazy_timers_fire_in_the_order_of_a_fresh_event_per_start(steps, reactions):
    """A timer that keeps one heap slot and re-keys it lazily dispatches
    exactly what a fresh ``Event`` per start would: the same
    ``(time, sequence, label)`` sequence, the same ``dispatched`` and
    ``pending`` after every step, under ``until``, ``max_events`` and
    ``stop_when`` and with trains in between — while the heap never holds
    more than one slot per timer plus the undelivered trains."""
    lazy = TimerHarness(Timer, reactions, under_test=True)
    eager = TimerHarness(EagerTimer, reactions, under_test=False)
    assert lazy.play(steps) == eager.play(steps)
    assert lazy.log == eager.log
    assert lazy.scheduler._queue == []
