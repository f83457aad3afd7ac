"""The discrete-event scheduler.

The scheduler owns the virtual clock and a priority queue of events.  It
dispatches events in timestamp order to registered nodes until the queue is
empty, a time limit is reached, or a stop condition becomes true.

The queue stores ``(time, sequence, item)`` slots rather than bare
:class:`Event` objects: heap sifting then compares a float and, only for
ties, an int — never the dataclass-generated ``Event.__lt__`` — and
same-time events break ties on the global insertion sequence, keeping
dispatch deterministic.

An item is an :class:`Event` (a timer or an internal action) or a
:class:`DeliveryTrain` — every delivery of one network flush in one slot
(see :mod:`repro.sim.events` for why its block of sequence numbers orders it
exactly); every message arrives in a train.  A train is walked *in place*:
while it is the heap's minimum the run loop delivers its next row straight
to the node's ``on_message`` — no ``Event``, no ``handle_event`` hop, no
clock call — and then re-keys the slot to the following row with one
``heapreplace``.  The heap does the comparison of that row against
everything else pending, so the dispatch order is the one a heap slot per
delivery would give, and ``stop_when`` / ``max_events`` / ``until`` apply
between any two rows because every row is one turn of the same loop.

A timer holds one heap slot, however often it is restarted or stopped
(:meth:`Scheduler.reschedule`).  A restart takes a fresh sequence number,
as a new event would, but a slot that is not later than the new deadline
stays where it is: when it reaches the top of the heap the run loop sees
that the event's ``(time, sequence)`` has moved on and re-keys the slot
there — nothing is dispatched or counted and the clock does not move.  A
stopped timer's slot is dropped the same way when it reaches the top.  The
slot is therefore never later than the firing it stands for, and every
firing happens at the place in the order a fresh event per restart would
give it.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.clock import SimClock
from repro.sim.events import DeliveryTrain, Event, EventKind, reserve_sequences

#: A heap slot: (time, sequence, event or train).
_Slot = Tuple[float, int, Union[Event, DeliveryTrain]]


class Scheduler:
    """Drives the simulation.

    Nodes are registered under a unique name.  A node setting a timer or
    scheduling an internal action schedules an :class:`Event`; the scheduler
    advances the clock and hands each event to its target node's
    ``handle_event`` method, or to the event's callback when one is
    attached.  The network schedules a :class:`DeliveryTrain`, whose rows
    go to the target node's ``on_message(message, arrival_time,
    size_bytes)``.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._queue: List[_Slot] = []
        self._nodes: Dict[str, "NodeLike"] = {}
        self._nodes_view: Mapping[str, "NodeLike"] = MappingProxyType(self._nodes)
        self._dispatched = 0

    # ------------------------------------------------------------------ nodes
    def register(self, name: str, node: "NodeLike") -> None:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already registered")
        self._nodes[name] = node

    def unregister(self, name: str) -> None:
        self._nodes.pop(name, None)

    def node(self, name: str) -> "NodeLike":
        return self._nodes[name]

    @property
    def nodes(self) -> Mapping[str, "NodeLike"]:
        """A live, read-only view of the registered nodes (no copy)."""
        return self._nodes_view

    # ----------------------------------------------------------------- events
    def _in_the_past(self, when: float) -> ValueError:
        return ValueError(
            f"cannot schedule event in the past: now={self.clock.now}, "
            f"event time={when}"
        )

    def schedule(self, event: Event) -> Event:
        if event.time + 1e-9 < self.clock.now:
            raise self._in_the_past(event.time)
        heapq.heappush(self._queue, (event.time, event.sequence, event))
        event.slot_time = event.time
        return event

    def reschedule(self, event: Event, when: float) -> None:
        """Make ``event`` due at ``when`` under a fresh sequence number:
        what cancelling it and scheduling a new event would do, in the one
        heap slot the event already has (or a new one, if it has none).

        A slot not later than ``when`` is left for the run loop to move
        on; only a slot later than ``when`` is moved now.
        """
        if when + 1e-9 < self.clock.now:
            raise self._in_the_past(when)
        event.time = when
        event.sequence = sequence = reserve_sequences(1)
        event.cancelled = False
        slot_time = event.slot_time
        if slot_time is None:
            heapq.heappush(self._queue, (when, sequence, event))
            event.slot_time = when
        elif when < slot_time:
            queue = self._queue
            position = next(
                index for index, slot in enumerate(queue) if slot[2] is event
            )
            queue[position] = (when, sequence, event)
            heapq.heapify(queue)
            event.slot_time = when

    def schedule_train(self, train: DeliveryTrain) -> None:
        """Put a train's undelivered rows (at least one) in the queue."""
        when = train.times[train.cursor]
        if when + 1e-9 < self.clock.now:
            raise self._in_the_past(when)
        heapq.heappush(self._queue, (when, train.sequence, train))

    def schedule_at(
        self,
        when: float,
        kind: EventKind,
        target: str,
        payload=None,
        callback: Optional[Callable[[], None]] = None,
    ) -> Event:
        event = Event.make(when, kind, target, payload, callback)
        return self.schedule(event)

    def schedule_after(
        self,
        delay: float,
        kind: EventKind,
        target: str,
        payload=None,
        callback: Optional[Callable[[], None]] = None,
    ) -> Event:
        return self.schedule_at(self.clock.now + delay, kind, target, payload, callback)

    @property
    def pending(self) -> int:
        """Uncancelled events and undelivered train rows in the queue."""
        return sum(
            len(item.times) - item.cursor if type(item) is DeliveryTrain
            else not item.cancelled
            for _time, _sequence, item in self._queue
        )

    @property
    def dispatched(self) -> int:
        return self._dispatched

    # -------------------------------------------------------------------- run
    def step(self) -> bool:
        """Dispatch the next event.  Returns False if the queue is empty."""
        return self.run(max_events=1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the simulation.

        Stops when the event queue drains, when the clock would pass
        ``until``, after ``max_events`` dispatches, or when ``stop_when``
        returns True (checked between events).  Returns the number of events
        dispatched by this call; a train row counts as one.
        """
        dispatched = 0
        queue = self._queue
        nodes = self._nodes
        clock = self.clock
        advance_to = clock.advance_to
        pop = heapq.heappop
        replace = heapq.heapreplace
        while queue:
            if stop_when is not None and stop_when():
                break
            if max_events is not None and dispatched >= max_events:
                break
            when, sequence, item = queue[0]
            if type(item) is Event and (item.cancelled or item.sequence != sequence):
                if item.cancelled:
                    pop(queue)
                    item.slot_time = None
                else:
                    # A timer restarted after this slot was taken: move
                    # the slot to the event's real key, dispatching nothing.
                    replace(queue, (item.time, item.sequence, item))
                    item.slot_time = item.time
                continue
            if until is not None and when > until:
                advance_to(until)
                break
            if type(item) is Event:
                pop(queue)
                item.slot_time = None
                advance_to(when)
                self._dispatched += 1
                if item.callback is not None:
                    item.callback()
                else:
                    node = nodes.get(item.target)
                    if node is not None:
                        node.handle_event(item)
                dispatched += 1
                continue
            # The next row of a delivery train.  The slot moves on to the
            # following row *before* the handler runs, so whatever the
            # handler does — schedule, raise, stop the run — the queue
            # already holds exactly what is still to be delivered.
            row = item.cursor
            item.cursor = following = row + 1
            times = item.times
            if following < len(times):
                replace(queue, (times[following], sequence, item))
            else:
                pop(queue)
            # advance_to(when), written out: the call is only made for
            # its error, when the clock was moved past a pending row.
            if when < clock._now:
                advance_to(when)
            else:
                clock._now = when
            self._dispatched += 1
            node = nodes.get(item.targets[row])
            if node is not None:
                node.on_message(item.messages[row], when, item.sizes[row])
            dispatched += 1
        return dispatched


class NodeLike:
    """Structural interface the scheduler expects of registered nodes:
    ``handle_event`` for the timers and internal actions aimed at the node,
    ``on_message`` for the rows of delivery trains."""

    def handle_event(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def on_message(
        self, message: Any, arrival_time: float, size_bytes: int
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError
