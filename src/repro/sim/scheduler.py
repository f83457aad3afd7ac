"""The discrete-event scheduler.

The scheduler owns the virtual clock and a priority queue of events.  It
dispatches events in timestamp order to registered nodes until the queue is
empty, a time limit is reached, or a stop condition becomes true.

The queue stores ``(time, sequence, event)`` slots rather than bare
:class:`Event` objects: heap sifting then compares a float and, only for
ties, an int — never the dataclass-generated ``Event.__lt__`` — and
same-time events break ties on the global insertion sequence, keeping
dispatch deterministic.  The run loop pops slots directly instead of
peeking and re-popping, so each dispatched event touches the heap once.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro import hotpath
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventKind

#: A heap slot: (time, sequence, event).
_Slot = Tuple[float, int, Event]


class Scheduler:
    """Drives the simulation.

    Nodes are registered under a unique name.  Anything in the system that
    wants work done later (the network delivering a message, a node setting
    a timer) schedules an :class:`Event`; the scheduler advances the clock
    and hands each event to its target node's ``handle_event`` method, or to
    the event's callback when one is attached.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._queue: List[_Slot] = []
        self._nodes: Dict[str, "NodeLike"] = {}
        self._nodes_view: Mapping[str, "NodeLike"] = MappingProxyType(self._nodes)
        self._dispatched = 0
        self._pushes = 0

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
    def schedule(self, event: Event) -> Event:
        if event.time + 1e-9 < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now}, "
                f"event time={event.time}"
            )
        heapq.heappush(self._queue, (event.time, event.sequence, event))
        self._pushes += 1
        return event

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
        """Uncancelled events currently in the heap.  Trailing members of a
        coalesced delivery train are not counted until their predecessor
        fires (each train occupies one heap slot at a time)."""
        return sum(1 for _t, _s, event in self._queue if not event.cancelled)

    @property
    def dispatched(self) -> int:
        return self._dispatched

    @property
    def push_count(self) -> int:
        """Total number of heap pushes (used by the network to decide when a
        delivery train can be extended without reordering dispatch)."""
        return self._pushes

    # -------------------------------------------------------------------- run
    def _push_successor(self, event: Event) -> None:
        """Move the next member of a delivery train into the heap.

        Called when ``event`` leaves the heap (dispatch or cancellation
        skip) — before its handler runs, so dispatch order is identical to
        scheduling every member up front."""
        successor = event.after
        if successor is not None:
            event.after = None
            heapq.heappush(
                self._queue, (successor.time, successor.sequence, successor)
            )
            self._pushes += 1

    def _dispatch(self, event: Event) -> None:
        self._dispatched += 1
        if event.callback is not None:
            event.callback()
        else:
            node = self._nodes.get(event.target)
            if node is not None:
                node.handle_event(event)

    def step(self) -> bool:
        """Dispatch the next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            when, _seq, event = heapq.heappop(queue)
            self._push_successor(event)
            if event.cancelled:
                continue
            self.clock.advance_to(when)
            self._dispatch(event)
            return True
        return False

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
        dispatched by this call.
        """
        dispatched = 0
        queue = self._queue
        nodes = self._nodes
        advance_to = self.clock.advance_to
        pop = heapq.heappop
        push = heapq.heappush
        while queue:
            if stop_when is not None and stop_when():
                break
            if max_events is not None and dispatched >= max_events:
                break
            event = queue[0][2]
            if event.cancelled:
                pop(queue)
                self._push_successor(event)
                continue
            when = queue[0][0]
            if until is not None and when > until:
                advance_to(until)
                break
            pop(queue)
            if not hotpath.BATCH_EXECUTION_ENABLED:
                self._push_successor(event)
                advance_to(when)
                self._dispatch(event)
                dispatched += 1
                continue
            # Batch-pipeline train fast path: a dispatched train member's
            # successor is dispatched directly — without a heap push/pop
            # round trip — whenever nothing in the heap precedes it.  The
            # dispatch sequence is provably the one the heap would produce:
            # the successor is compared against the current heap top under
            # the exact (time, sequence) order, and anything an event
            # handler schedules lands in the heap before the comparison.
            # Both dispatch sites below are :meth:`_dispatch` written out:
            # one Python call less on the path of every delivered message.
            successor = event.after
            event.after = None
            advance_to(when)
            self._dispatched += 1
            try:
                if event.callback is not None:
                    event.callback()
                else:
                    node = nodes.get(event.target)
                    if node is not None:
                        node.handle_event(event)
            except BaseException:
                # A raising handler must not lose the train: return the
                # pending successor to the heap (the non-fast path pushed
                # it before dispatching) so a resumed run stays complete.
                if successor is not None:
                    push(queue, (successor.time, successor.sequence, successor))
                    self._pushes += 1
                raise
            dispatched += 1
            while successor is not None:
                if successor.cancelled:
                    # A cancelled member leaves the train exactly as a
                    # cancelled heap slot would: no dispatch, no clock
                    # advance, its own successor takes its place.
                    nxt = successor.after
                    successor.after = None
                    successor = nxt
                    continue
                if (
                    (stop_when is not None and stop_when())
                    or (max_events is not None and dispatched >= max_events)
                    or (until is not None and successor.time > until)
                    or (
                        queue
                        and (
                            queue[0][0] < successor.time
                            or (
                                queue[0][0] == successor.time
                                and queue[0][1] < successor.sequence
                            )
                        )
                    )
                ):
                    # Not (or not provably) the next event: return it to
                    # the heap and let the outer loop decide.
                    push(queue, (successor.time, successor.sequence, successor))
                    self._pushes += 1
                    break
                nxt = successor.after
                successor.after = None
                advance_to(successor.time)
                self._dispatched += 1
                try:
                    if successor.callback is not None:
                        successor.callback()
                    else:
                        node = nodes.get(successor.target)
                        if node is not None:
                            node.handle_event(successor)
                except BaseException:
                    if nxt is not None:
                        push(queue, (nxt.time, nxt.sequence, nxt))
                        self._pushes += 1
                    raise
                dispatched += 1
                successor = nxt
        return dispatched

    def _peek(self) -> Optional[Event]:
        while self._queue and self._queue[0][2].cancelled:
            event = heapq.heappop(self._queue)[2]
            self._push_successor(event)
        return self._queue[0][2] if self._queue else None


class NodeLike:
    """Structural interface the scheduler expects of registered nodes."""

    def handle_event(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError
