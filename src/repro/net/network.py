"""The simulated network.

Delivers messages between registered endpoints through the scheduler,
applying the configured :class:`NetworkConditions`.  The network keeps
simple counters (messages and bytes sent/dropped) that the benchmark
harness reports alongside latency and throughput.

One way in: :meth:`Network.send_many` takes everything a node flushes at
the end of a handler as *runs* — one message, its destinations, one
departure time per destination — and turns the whole flush into one
:class:`DeliveryTrain`, one heap slot for every delivery.  Type name,
authentication bytes and the counters are worked out once per run.  On a
loss-free, jitter-free network so is the transit time, and arrival times
come in one pass per run; otherwise each copy, in run order, is checked
against the partitions, then makes the loss draw, the duplication draw and
one jitter draw per delivered copy, a duplicate becoming the row after its
original.  Every delivery keeps its own arrival time and its place in the
global ``(time, sequence)`` order, so dispatch order (and therefore every
modeled result) is the one a heap slot per copy would give.
:meth:`Network.send` and :meth:`Network.multicast` are one-run calls into
``send_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.conditions import NetworkConditions
from repro.sim.events import DeliveryTrain
from repro.sim.rng import SimRandom
from repro.sim.scheduler import Scheduler

#: One message on its way to one or more destinations:
#: ``(destinations, message, size_bytes, departures)``, one departure time
#: (the earliest the copy may enter the wire) per destination.
Run = Tuple[Sequence[str], Any, int, Sequence[float]]


@dataclass(slots=True)
class NodeWireStats:
    """Per-sender traffic counters (one accounting definition for every
    benchmark: E16's migration rows and E20's flat-vs-tree sweep read
    these instead of ad-hoc tallies)."""

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
    #: Deliveries that never took a scheduler heap slot of their own at
    #: send time: all but one of each delivery train's.
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
    """Unreliable point-to-point and multicast message transport."""

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
        depart = self.scheduler.clock.now if not_before is None else not_before
        self.send_many(source, [((destination,), message, size_bytes, (depart,))])

    def send_many(self, source: str, runs: Iterable[Run]) -> None:
        """Send every run of one flush from ``source``; the module docstring
        says what is worked out per flush, per run and per copy.

        An unknown destination inside a run is dropped and counted; the
        other copies of the run still leave.
        """
        now = self.scheduler.clock.now
        endpoints = self._endpoints
        stats = self.stats
        conditions = self.conditions
        partitions = conditions.partitions
        drop = conditions.drop_probability
        duplicate = conditions.duplicate_probability
        impaired = partitions or drop or duplicate or conditions.jitter > 0.0
        rng = self.rng
        fixed = conditions.fixed_delay
        per_byte = conditions.per_byte_delay
        times: List[float] = []
        targets: List[str] = []
        messages: List[Any] = []
        sizes: List[int] = []
        sent_at: List[float] = []
        for destinations, message, size_bytes, departures in runs:
            if not endpoints.issuperset(destinations):
                known = [
                    (destination, depart)
                    for destination, depart in zip(destinations, departures)
                    if destination in endpoints
                ]
                stats.messages_dropped += len(destinations) - len(known)
                if not known:
                    continue
                destinations, departures = zip(*known)
            if min(departures) < now:
                departures = [max(now, depart) for depart in departures]
            copies = len(destinations)
            stats.record(
                type(message).__name__, size_bytes, source, _auth_bytes(message), copies
            )
            if impaired:
                for destination, depart in zip(destinations, departures):
                    if (partitions and conditions.is_partitioned(source, destination)) or (
                        drop and rng.chance(drop)
                    ):
                        stats.messages_dropped += 1
                        continue
                    deliveries = 1
                    if duplicate and rng.chance(duplicate):
                        deliveries += conditions.duplicate_copies
                        stats.messages_duplicated += deliveries - 1
                    for _ in range(deliveries):
                        times.append(depart + conditions.transit_time(size_bytes, rng))
                        targets.append(destination)
                        messages.append(message)
                        sizes.append(size_bytes)
                        sent_at.append(depart)
                continue
            transit = fixed + per_byte * max(0, size_bytes)
            times += [depart + transit for depart in departures]
            targets += destinations
            messages += [message] * copies
            sizes += [size_bytes] * copies
            sent_at += departures
        if times:
            stats.messages_coalesced += len(times) - 1
            self.scheduler.schedule_train(
                DeliveryTrain(source, times, targets, messages, sizes, sent_at)
            )

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
        others = [destination for destination in destinations if destination != source]
        if others:
            depart = self.scheduler.clock.now if not_before is None else not_before
            self.send_many(source, [(others, message, size_bytes, [depart] * len(others))])
