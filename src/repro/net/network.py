"""The simulated network.

Delivers messages between registered endpoints through the scheduler,
applying the configured :class:`NetworkConditions`.  The network keeps
simple counters (messages and bytes sent/dropped) that the benchmark
harness reports alongside latency and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from repro import hotpath
from repro.net.conditions import NetworkConditions
from repro.sim.events import Event, EventKind
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Scheduler


@dataclass(slots=True)
class Envelope:
    """What the network delivers to a node: a message plus its provenance."""

    source: str
    destination: str
    message: Any
    size_bytes: int
    sent_at: float


@dataclass(slots=True)
class NodeWireStats:
    """Per-sender traffic counters (one accounting definition for every
    benchmark: E13's f-scaling rows, E16's migration rows and E20's
    flat-vs-tree sweep all read these instead of ad-hoc tallies)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    auth_bytes_sent: int = 0


@dataclass
class NetworkStats:
    """Aggregate traffic counters."""

    messages_sent: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    bytes_sent: int = 0
    #: Authentication bytes (MAC fields / authenticator vectors) inside
    #: ``bytes_sent`` — the overlay benchmarks track them separately
    #: because authenticator stripping only shrinks this component.
    auth_bytes_sent: int = 0
    #: Deliveries coalesced onto an existing train instead of getting their
    #: own scheduler heap slot.
    messages_coalesced: int = 0
    per_type: Dict[str, int] = field(default_factory=dict)
    per_node: Dict[str, NodeWireStats] = field(default_factory=dict)

    def record(
        self,
        type_name: str,
        size_bytes: int,
        source: Optional[str] = None,
        auth_bytes: int = 0,
        copies: int = 1,
    ) -> None:
        """Count ``copies`` sends of one message (a multicast is ``copies``
        equal messages, counted in one update)."""
        self.messages_sent += copies
        self.bytes_sent += size_bytes * copies
        self.auth_bytes_sent += auth_bytes * copies
        self.per_type[type_name] = self.per_type.get(type_name, 0) + copies
        if source is not None:
            node = self.per_node.get(source)
            if node is None:
                node = self.per_node[source] = NodeWireStats()
            node.messages_sent += copies
            node.bytes_sent += size_bytes * copies
            node.auth_bytes_sent += auth_bytes * copies

    def wire_totals(self) -> Dict[str, Any]:
        """The wire-accounting snapshot benchmarks read: uniform totals
        plus the per-type breakdown (values, not live references)."""
        return {
            "messages_sent": self.messages_sent,
            "payload_bytes": self.bytes_sent,
            "auth_bytes": self.auth_bytes_sent,
            "per_type": dict(self.per_type),
        }


def _auth_bytes(message: Any) -> int:
    """Authentication bytes a message carries on the wire.  Duck-typed:
    protocol messages expose ``auth_size()``; anything else (raw payloads
    in unit tests) counts zero."""
    auth_size = getattr(message, "auth_size", None)
    return auth_size() if auth_size is not None else 0


class Network:
    """Unreliable point-to-point and multicast message transport.

    Consecutive deliveries from the same sender (the all-to-all
    prepare/commit storms, where one handler flushes a whole multicast
    outbox back-to-back) are coalesced into a *delivery train*: the events
    are linked through ``Event.after`` and only one of them occupies a
    scheduler heap slot at any moment — when it fires, the next is pushed.
    Every delivery keeps its own timestamp and globally-ordered sequence
    number, so dispatch order (and therefore every modeled result) is
    bit-identical to scheduling each delivery individually; only the heap
    stays much smaller.  A train is only extended while nothing else has
    been scheduled or dispatched in between, and never with a delivery
    that would sort before its tail.  Disabled together with the other
    hot-path optimizations (:mod:`repro.hotpath`) for baseline runs.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        conditions: Optional[NetworkConditions] = None,
        rng: Optional[SimRandom] = None,
    ) -> None:
        self.scheduler = scheduler
        self.conditions = conditions or NetworkConditions()
        self.rng = rng or SimRandom(0)
        self.stats = NetworkStats()
        self._endpoints: set[str] = set()
        #: Tail event of the train currently being built, plus the sender
        #: it belongs to and the scheduler activity counters at link time
        #: (any foreign push or dispatch invalidates the train).
        self._train_tail: Optional[Event] = None
        self._train_source: Optional[str] = None
        self._train_pushes = -1
        self._train_dispatched = -1

    # -------------------------------------------------------------- endpoints
    def register(self, name: str) -> None:
        self._endpoints.add(name)

    def endpoints(self) -> frozenset[str]:
        return frozenset(self._endpoints)

    # ------------------------------------------------------------------ send
    def send(
        self,
        source: str,
        destination: str,
        message: Any,
        size_bytes: int,
        not_before: Optional[float] = None,
    ) -> None:
        """Send ``message`` from ``source`` to ``destination``.

        ``not_before`` lets the caller model CPU occupancy at the sender:
        the message enters the wire no earlier than that time.
        """
        if destination not in self._endpoints:
            # Unknown destinations are silently dropped, like UDP.
            self.stats.messages_dropped += 1
            return
        now = self.scheduler.clock.now
        depart = max(now, not_before) if not_before is not None else now
        type_name = type(message).__name__
        self.stats.record(type_name, size_bytes, source, _auth_bytes(message))

        conditions = self.conditions
        if conditions.partitions and conditions.is_partitioned(source, destination):
            self.stats.messages_dropped += 1
            return
        if conditions.drop_probability and self.rng.chance(conditions.drop_probability):
            self.stats.messages_dropped += 1
            return

        copies = 1
        if conditions.duplicate_probability and self.rng.chance(
            conditions.duplicate_probability
        ):
            copies += conditions.duplicate_copies
            self.stats.messages_duplicated += copies - 1

        scheduler = self.scheduler
        for _ in range(copies):
            transit = self.conditions.transit_time(size_bytes, self.rng)
            envelope = Envelope(
                source=source,
                destination=destination,
                message=message,
                size_bytes=size_bytes,
                sent_at=depart,
            )
            event = Event.make(
                depart + transit, EventKind.DELIVER, destination, payload=envelope
            )
            tail = self._train_tail
            if (
                tail is not None
                and hotpath.CACHES_ENABLED
                and self._train_source == source
                and scheduler.push_count == self._train_pushes
                and scheduler.dispatched == self._train_dispatched
                and event.time >= tail.time
            ):
                # Same sender, nothing else scheduled or dispatched since
                # the tail, and no timestamp inversion: extend the train.
                tail.after = event
                self._train_tail = event
                self.stats.messages_coalesced += 1
            else:
                scheduler.schedule(event)
                self._train_tail = event
                self._train_source = source
                self._train_pushes = scheduler.push_count
                self._train_dispatched = scheduler.dispatched

    def send_many(
        self,
        source: str,
        deliveries: Iterable[tuple],
    ) -> None:
        """Send a batch of ``(destination, message, size_bytes, not_before)``
        deliveries from one source.

        Dispatch order is provably identical to calling :meth:`send` once
        per delivery: events are created in the same order (same global
        sequence numbers, same timestamps) and train linking never changes
        when an event leaves the scheduler heap.  The batch form extends
        the PR-2 coalescing by evaluating the train-extension conditions
        once per batch instead of once per message — one delivery train is
        built for the whole reply fan-out of a committed batch — and by
        hoisting the per-message condition checks that a loss-free,
        jitter-free network never takes.  Any configured impairment (or
        the caches-off baseline) falls back to the per-message path so
        random draws keep their exact order.
        """
        conditions = self.conditions
        if (
            not hotpath.CACHES_ENABLED
            or conditions.partitions
            or conditions.drop_probability
            or conditions.duplicate_probability
            or conditions.jitter > 0.0
        ):
            for destination, message, size_bytes, not_before in deliveries:
                self.send(source, destination, message, size_bytes, not_before)
            return
        scheduler = self.scheduler
        now = scheduler.clock.now
        endpoints = self._endpoints
        stats = self.stats
        fixed = conditions.fixed_delay
        per_byte = conditions.per_byte_delay
        make_event = Event.make
        deliver = EventKind.DELIVER
        tail = self._train_tail
        extendable = (
            tail is not None
            and self._train_source == source
            and scheduler.push_count == self._train_pushes
            and scheduler.dispatched == self._train_dispatched
        )
        touched = False
        # A multicast arrives as consecutive deliveries of one message
        # object: what depends only on the message (type name, auth bytes,
        # transit time) is worked out once per such run, and the counters
        # are updated once per run with the number of copies that left.
        run_message: Any = None
        run_size = -1
        run_copies = 0
        type_name = ""
        auth_bytes = 0
        transit = 0.0
        for destination, message, size_bytes, not_before in deliveries:
            if message is not run_message or size_bytes != run_size:
                if run_copies:
                    stats.record(type_name, run_size, source, auth_bytes, run_copies)
                    run_copies = 0
                run_message = message
                run_size = size_bytes
                type_name = type(message).__name__
                auth_bytes = _auth_bytes(message)
                transit = fixed + per_byte * max(0, size_bytes)
            if destination not in endpoints:
                stats.messages_dropped += 1
                continue
            depart = (
                not_before if not_before is not None and not_before > now else now
            )
            run_copies += 1
            event = make_event(
                depart + transit,
                deliver,
                destination,
                Envelope(source, destination, message, size_bytes, depart),
            )
            touched = True
            if extendable and event.time >= tail.time:
                tail.after = event
                tail = event
                stats.messages_coalesced += 1
            else:
                scheduler.schedule(event)
                tail = event
                extendable = True
        if run_copies:
            stats.record(type_name, run_size, source, auth_bytes, run_copies)
        if touched:
            # Equivalent to the per-send bookkeeping: extensions never
            # change the recorded counters (no push happens), and a new
            # head records the counters right after its own push.
            self._train_tail = tail
            self._train_source = source
            self._train_pushes = scheduler.push_count
            self._train_dispatched = scheduler.dispatched

    def multicast(
        self,
        source: str,
        destinations: Iterable[str],
        message: Any,
        size_bytes: int,
        not_before: Optional[float] = None,
    ) -> None:
        """Multicast to every destination (IP-multicast style: one wire send).

        Each receiver still gets an independent loss/duplication draw, which
        matches UDP-over-IP-multicast behaviour on a switched LAN.
        """
        for destination in destinations:
            if destination == source:
                continue
            self.send(source, destination, message, size_bytes, not_before)
