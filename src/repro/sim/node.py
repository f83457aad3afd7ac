"""Base class for simulated nodes (replicas and clients).

A node owns a name, a reference to the scheduler (for the clock and for
setting timers), and a network endpoint.  Subclasses implement
``on_message`` and ``on_timer``.  Timers and internal actions reach the
node as events, through :meth:`Node.handle_event`; messages reach it as the
rows of delivery trains, which the scheduler hands straight to
:meth:`Node.on_message`.  A :class:`Timer` keeps one event, and so one heap
slot, however often it is restarted.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.events import Event, EventKind
from repro.sim.scheduler import Scheduler


class Timer:
    """A restartable one-shot timer bound to a node.

    Mirrors the view-change and retransmission timers in the paper: timers
    can be started, stopped and restarted; when one fires the node's
    ``on_timer`` method is invoked with the timer's label.  A timer is one
    :class:`Event` and at most one heap slot for its whole life: a restart
    re-keys it (:meth:`Scheduler.reschedule`) rather than leaving a
    cancelled event behind.
    """

    def __init__(self, node: "Node", label: str, period: float) -> None:
        self.node = node
        self.label = label
        self.period = period
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """Started, and neither stopped nor fired since."""
        event = self._event
        return event is not None and not event.cancelled and event.slot_time is not None

    def start(self, period: Optional[float] = None) -> None:
        """(Re)start the timer; an already-running timer is rescheduled."""
        delay = self.period if period is None else period
        scheduler = self.node.scheduler
        when = scheduler.clock.now + delay
        if self._event is None:
            self._event = scheduler.schedule_at(
                when, EventKind.TIMER, self.node.name, payload=self.label
            )
        else:
            scheduler.reschedule(self._event, when)

    def stop(self) -> None:
        if self._event is not None:
            self._event.cancel()

    def restart_if_stopped(self, period: Optional[float] = None) -> None:
        if not self.running:
            self.start(period)


class Node:
    """A process in the simulated distributed system."""

    def __init__(self, name: str, scheduler: Scheduler) -> None:
        self.name = name
        self.scheduler = scheduler
        self.scheduler.register(name, self)
        self.crashed = False

    # ------------------------------------------------------------------ hooks
    def on_message(self, message: Any, arrival_time: float, size_bytes: int) -> None:
        """Handle a delivered message.  The scheduler calls this directly
        for each row of a delivery train — messages never pass through
        :meth:`handle_event` — so an implementation checks ``self.crashed``
        itself."""
        raise NotImplementedError

    def on_timer(self, label: str) -> None:
        raise NotImplementedError

    def on_internal(self, payload: Any) -> None:
        """Handle an internally-scheduled action (optional)."""

    # ------------------------------------------------------------- dispatcher
    def handle_event(self, event: Event) -> None:
        if self.crashed:
            return
        kind = event.kind
        if kind is EventKind.TIMER:
            self.on_timer(event.payload)
        elif kind is EventKind.INTERNAL:
            self.on_internal(event.payload)

    # -------------------------------------------------------------- utilities
    @property
    def now(self) -> float:
        return self.scheduler.clock.now

    def new_timer(self, label: str, period: float) -> Timer:
        return Timer(self, label, period)

    def crash(self) -> None:
        """Stop processing events (fail-stop)."""
        self.crashed = True

    def restart(self) -> None:
        self.crashed = False
