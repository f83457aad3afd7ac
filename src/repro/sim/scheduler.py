"""The discrete-event scheduler.

The scheduler owns the virtual clock and a priority queue of events.  It
dispatches events in timestamp order to registered nodes until the queue is
empty, a time limit is reached, or a stop condition becomes true.

The queue stores ``(time, sequence, item)`` slots rather than bare
:class:`Event` objects: heap sifting then compares a float and, only for
ties, an int — never the dataclass-generated ``Event.__lt__`` — and
same-time events break ties on the global insertion sequence, keeping
dispatch deterministic.

An item is an :class:`Event` or a :class:`DeliveryTrain` — every delivery of
one network flush in one slot (see :mod:`repro.sim.events` for why its block
of sequence numbers orders it exactly).  A train is walked *in place*: while
it is the heap's minimum the run loop delivers its next row straight to the
node's ``on_message`` — no ``Event``, no ``Envelope``, no ``handle_event``
hop, no clock call — and then re-keys the slot to the following row with one
``heapreplace``.  The heap does the comparison of that row against
everything else pending, so the dispatch order is the one a heap slot per
delivery would give, and ``stop_when`` / ``max_events`` / ``until`` apply
between any two rows because every row is one turn of the same loop.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.clock import SimClock
from repro.sim.events import DeliveryTrain, Event, EventKind

#: A heap slot: (time, sequence, event or train).
_Slot = Tuple[float, int, Union[Event, DeliveryTrain]]


class Scheduler:
    """Drives the simulation.

    Nodes are registered under a unique name.  Anything in the system that
    wants work done later (the network delivering a message, a node setting
    a timer) schedules an :class:`Event`; the scheduler advances the clock
    and hands each event to its target node's ``handle_event`` method, or to
    the event's callback when one is attached.  Message deliveries that
    arrive as a :class:`DeliveryTrain` go to the node's
    ``on_message(message, arrival_time, size_bytes)`` directly; a node
    without that method gets the same delivery as an :class:`Event` through
    ``handle_event``.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._queue: List[_Slot] = []
        self._nodes: Dict[str, "NodeLike"] = {}
        self._nodes_view: Mapping[str, "NodeLike"] = MappingProxyType(self._nodes)
        #: The registered nodes that take train rows through ``on_message``.
        self._receivers: Dict[str, "NodeLike"] = {}
        self._dispatched = 0

    # ------------------------------------------------------------------ nodes
    def register(self, name: str, node: "NodeLike") -> None:
        if name in self._nodes:
            raise ValueError(f"node {name!r} already registered")
        self._nodes[name] = node
        if hasattr(node, "on_message"):
            self._receivers[name] = node

    def unregister(self, name: str) -> None:
        self._nodes.pop(name, None)
        self._receivers.pop(name, None)

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
        return event

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
        receivers = self._receivers
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
            if item.cancelled:
                pop(queue)
                continue
            if until is not None and when > until:
                advance_to(until)
                break
            if type(item) is Event:
                pop(queue)
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
            target = item.targets[row]
            node = receivers.get(target)
            if node is not None:
                node.on_message(item.messages[row], when, item.sizes[row])
            elif target in nodes:
                nodes[target].handle_event(item.event(row))
            dispatched += 1
        return dispatched

    def _peek(self) -> Optional[Event]:
        """The event :meth:`step` would dispatch (a train's next row as an
        :class:`Event`), without dispatching it."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        item = queue[0][2]
        return item.event(item.cursor) if type(item) is DeliveryTrain else item


class NodeLike:
    """Structural interface the scheduler expects of registered nodes.

    ``handle_event`` is required.  A node may also define
    ``on_message(message, arrival_time, size_bytes)`` — :class:`repro.sim.node.Node`
    does — to take train deliveries without the ``Event`` wrapper.
    """

    def handle_event(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError
