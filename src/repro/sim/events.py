"""Simulation events.

Something happens at a node at a point in simulated time: a message is
delivered, a timer expires, or an internal action the node scheduled itself
comes due (e.g. the start of a proactive recovery).

Two things can sit in the scheduler's heap.  An :class:`Event` is one timer
or internal action.  A :class:`DeliveryTrain` is every delivery one sender
handed to the network in one flush — a lone reply as much as a multicast —
held as parallel arrays, one row per delivered copy and one heap slot for
the lot, because at n = 31 a multicast is thirty deliveries that differ
only in target and arrival time.  Trains are the only way a message reaches
a node.

Both are ordered by ``(time, sequence)``.  Sequence numbers come from one
global counter, one per :class:`Event` and one *block* per train
(:func:`reserve_sequences`): a train's rows hold consecutive numbers, so
every other event's number is below the whole block or above it, and the
block's first number orders each row against everything outside the train
exactly as the row's own number would.  Inside the train the rows are kept
sorted by time, which for numbers handed out in row order *is*
``(time, sequence)`` order.

A timer is one :class:`Event` for its whole life.  Each (re)start gives it
a new ``(time, sequence)`` — a fresh number, as a new event would get —
while its heap slot may still sit at an earlier key (``slot_time``); the
scheduler moves the slot on when it reaches it (see
:meth:`repro.sim.scheduler.Scheduler.reschedule`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


class EventKind(enum.Enum):
    """Classification of simulation events."""

    TIMER = "timer"
    INTERNAL = "internal"


_next_sequence = 0


def reserve_sequences(count: int) -> int:
    """Take ``count`` consecutive global sequence numbers; returns the first."""
    global _next_sequence
    first = _next_sequence
    _next_sequence = first + count
    return first


@dataclass(order=True, slots=True)
class Event:
    """A scheduled event.

    Events are ordered by ``(time, sequence)`` where ``sequence`` is a
    global insertion counter, so simultaneous events are dispatched in
    insertion order and the simulation is deterministic.
    """

    time: float
    sequence: int = field(compare=True)
    kind: EventKind = field(compare=False)
    target: str = field(compare=False)
    payload: Any = field(compare=False, default=None)
    callback: Optional[Callable[[], None]] = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    #: Time of the heap slot that holds the event, ``None`` while no slot
    #: does (never scheduled, or popped: dispatched or dropped as cancelled).
    #: Never later than ``time``.
    slot_time: Optional[float] = field(compare=False, default=None, repr=False)

    @classmethod
    def make(
        cls,
        time: float,
        kind: EventKind,
        target: str,
        payload: Any = None,
        callback: Optional[Callable[[], None]] = None,
    ) -> "Event":
        # reserve_sequences(1), written out: one call less per event.
        global _next_sequence
        sequence = _next_sequence
        _next_sequence = sequence + 1
        return cls(
            time=time,
            sequence=sequence,
            kind=kind,
            target=target,
            payload=payload,
            callback=callback,
        )

    def cancel(self) -> None:
        """Mark this event as cancelled; the scheduler will skip it."""
        self.cancelled = True


class DeliveryTrain:
    """The deliveries of one flush of one sender, as parallel arrays.

    Row ``i`` says: ``messages[i]`` (``sizes[i]`` bytes on the wire) arrives
    at node ``targets[i]`` at ``times[i]``.  Rows are sorted by arrival
    time, ties in creation order.  ``cursor`` is the first
    row not yet delivered; the scheduler keeps the train in its heap under
    ``(times[cursor], sequence)`` and advances the cursor as it delivers.
    A delivery cannot be cancelled, so a train never is.
    """

    __slots__ = ("times", "targets", "messages", "sizes", "sequence", "cursor")

    def __init__(
        self,
        times: List[float],
        targets: List[str],
        messages: List[Any],
        sizes: List[int],
    ) -> None:
        if len(times) > 1 and times != sorted(times):
            # A small (or less jittered) copy overtook one sent before it.
            # The sort is stable, so equal arrivals stay in creation order.
            order = sorted(range(len(times)), key=times.__getitem__)
            times, targets, messages, sizes = (
                [column[row] for row in order]
                for column in (times, targets, messages, sizes)
            )
        self.times = times
        self.targets = targets
        self.messages = messages
        self.sizes = sizes
        self.sequence = reserve_sequences(len(times))
        self.cursor = 0
