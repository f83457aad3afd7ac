"""Byzantine fault injection.

The paper assumes a strong adversary that can coordinate faulty nodes,
delay correct nodes, and corrupt replica state.  The classes here describe
the fault behaviours the test-suite and the benchmarks inject: crashes,
mute primaries, equivocation (conflicting pre-prepares), state corruption,
message tampering, and replay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class FaultType(enum.Enum):
    """Supported fault behaviours for a replica or client."""

    CRASH = "crash"
    #: Primary stops sending pre-prepares (triggers view changes).
    MUTE_PRIMARY = "mute-primary"
    #: Primary assigns the same sequence number to different requests for
    #: different backups (equivocation).
    EQUIVOCATE = "equivocate"
    #: Replica sends corrupted replies (wrong result digest).
    CORRUPT_REPLY = "corrupt-reply"
    #: Replica's service state is silently corrupted (detected by state
    #: checking during recovery).
    CORRUPT_STATE = "corrupt-state"
    #: Replica drops a fraction of protocol messages it should send.
    DROP_MESSAGES = "drop-messages"
    #: Replica delays all outgoing messages by a constant amount.
    DELAY_MESSAGES = "delay-messages"
    #: Faulty client: sends requests with corrupt authenticators.
    BAD_AUTHENTICATOR = "bad-authenticator"
    #: Replica replays old messages it has previously sent.
    REPLAY = "replay"
    #: Interior node of a dissemination tree silently drops the relay
    #: bundles it should forward (its own multicasts still go out).
    SILENT_RELAY = "silent-relay"
    #: Interior node of a dissemination tree tampers with the relayed
    #: payloads before forwarding them (detected end-to-end: the root's
    #: MACs no longer verify downstream).
    TAMPER_RELAY = "tamper-relay"


@dataclass
class FaultSpec:
    """A single fault to inject.

    ``start`` and ``end`` bound the fault in simulated time; ``end`` of
    ``None`` means the fault persists for the rest of the run.
    """

    node: str
    fault: FaultType
    start: float = 0.0
    end: Optional[float] = None
    #: Probability used by probabilistic faults such as DROP_MESSAGES.
    probability: float = 1.0
    #: Extra delay in microseconds for DELAY_MESSAGES.
    delay: float = 0.0

    def active_at(self, now: float) -> bool:
        if now < self.start:
            return False
        if self.end is not None and now > self.end:
            return False
        return True


class FaultInjector:
    """Registry of fault specifications, queried by replicas and the network.

    Replica and network code consult the injector at the points where a
    Byzantine node could deviate (sending a pre-prepare, replying to a
    client, transmitting a message) and apply the configured behaviour.
    """

    def __init__(self, specs: Optional[Iterable[FaultSpec]] = None) -> None:
        #: node -> its fault specs.  Only ever mutated in place, so callers
        #: on the per-message path hold a reference and test its truth
        #: instead of calling :meth:`empty` (falsy until a fault is added).
        self.specs: Dict[str, List[FaultSpec]] = {}
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: FaultSpec) -> None:
        self.specs.setdefault(spec.node, []).append(spec)

    def empty(self) -> bool:
        """True when no fault has ever been registered (the common case on
        the simulator's hot path)."""
        return not self.specs

    def faults_for(self, node: str, now: float) -> List[FaultSpec]:
        specs = self.specs.get(node)
        if not specs:
            return []
        return [s for s in specs if s.active_at(now)]

    def has_fault(self, node: str, fault: FaultType, now: float) -> bool:
        specs = self.specs.get(node)
        if not specs:
            return False
        return any(s.fault is fault and s.active_at(now) for s in specs)

    def get(self, node: str, fault: FaultType, now: float) -> Optional[FaultSpec]:
        specs = self.specs.get(node)
        if not specs:
            return None
        for spec in specs:
            if spec.fault is fault and spec.active_at(now):
                return spec
        return None

    def faulty_nodes(self, now: float) -> List[str]:
        """Names of all nodes with at least one active fault."""
        return [node for node in self.specs if self.faults_for(node, now)]

    def clear(self, node: Optional[str] = None) -> None:
        if node is None:
            self.specs.clear()
        else:
            self.specs.pop(node, None)
