"""The environment interface between protocol logic and the simulator.

Replica and client protocol code is pure message handling: it reads the
clock, sends messages, and manages timers only through an :class:`Env`
implementation.  The simulator provides one backed by the scheduler and
network (:mod:`repro.library.cluster`); unit tests use
:class:`RecordingEnv`, which captures every action for inspection.

The environment is also where simulated CPU time is charged: protocol code
calls :meth:`Env.charge` with the microseconds consumed by cryptographic
operations (per the Chapter-7 cost model), and the simulator delays the
node's outgoing messages accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


class Env:
    """Abstract environment seen by protocol code."""

    def now(self) -> float:
        raise NotImplementedError

    def send(self, destination: str, message: Any) -> None:
        """Send a point-to-point message."""
        raise NotImplementedError

    def broadcast(self, destinations: Tuple[str, ...], message: Any) -> None:
        """Multicast ``message`` to ``destinations`` (excluding the sender)."""
        raise NotImplementedError

    def set_timer(self, label: str, delay: float) -> None:
        raise NotImplementedError

    def cancel_timer(self, label: str) -> None:
        raise NotImplementedError

    def timer_running(self, label: str) -> bool:
        """Whether the timer ``label`` is armed and has not fired.

        The view-change timer of Section 2.3.5 is started only *if it is
        not already running* — restarting it on every arriving request
        would let a steady stream of client retransmissions push failure
        detection out indefinitely while a mute primary sits unreplaced.
        """
        raise NotImplementedError

    def charge(self, micros: float) -> None:
        """Account ``micros`` of CPU time to the calling node."""

    def cpu_backlog(self) -> float:
        """Microseconds the node's CPU is still busy with events that
        arrived before the running one; 0 when it took this event idle.

        A handler runs when its message arrives, not when the CPU reaches
        it, so input that arrived during the backlog has not been handled
        yet (DESIGN.md, "When the primary proposes")."""
        return 0.0

    def record(self, event: str, **details: Any) -> None:
        """Record a metrics event (optional)."""


@dataclass
class SentMessage:
    """A message captured by :class:`RecordingEnv`."""

    destination: str
    message: Any


@dataclass
class RecordingEnv(Env):
    """An environment for unit tests: captures sends, timers and charges."""

    time: float = 0.0
    sent: List[SentMessage] = field(default_factory=list)
    timers: Dict[str, Optional[float]] = field(default_factory=dict)
    charged: float = 0.0
    events: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    #: What :meth:`cpu_backlog` answers: idle unless a test sets it.
    backlog: float = 0.0

    def now(self) -> float:
        return self.time

    def advance(self, delta: float) -> None:
        self.time += delta

    def send(self, destination: str, message: Any) -> None:
        self.sent.append(SentMessage(destination, message))

    def broadcast(self, destinations: Tuple[str, ...], message: Any) -> None:
        for destination in destinations:
            self.sent.append(SentMessage(destination, message))

    def set_timer(self, label: str, delay: float) -> None:
        self.timers[label] = delay

    def cancel_timer(self, label: str) -> None:
        self.timers[label] = None

    def timer_running(self, label: str) -> bool:
        return self.timers.get(label) is not None

    def charge(self, micros: float) -> None:
        self.charged += micros

    def cpu_backlog(self) -> float:
        return self.backlog

    def record(self, event: str, **details: Any) -> None:
        self.events.append((event, details))

    # ------------------------------------------------------------- inspection
    def messages_to(self, destination: str) -> List[Any]:
        return [s.message for s in self.sent if s.destination == destination]

    def messages_of_type(self, message_type: type) -> List[Any]:
        return [s.message for s in self.sent if isinstance(s.message, message_type)]

    def clear(self) -> None:
        self.sent.clear()
        self.events.clear()
