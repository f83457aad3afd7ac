"""Replica-set configuration and protocol options.

``ReplicaSetConfig`` captures the static membership and protocol constants
(checkpoint period, log size, timer values).  ``ProtocolOptions`` captures
the switchable mechanisms: the authentication mode that distinguishes
BFT-PK from BFT, and each of the Chapter-5 optimizations, so the ablation
experiments can toggle exactly one mechanism at a time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Tuple

from repro.core.quorum import max_faulty, quorum_size, replicas_for, weak_size


class AuthMode(enum.Enum):
    """How protocol messages are authenticated."""

    #: BFT: MACs / authenticators for everything (Chapter 3).
    MAC = "mac"
    #: BFT-PK: public-key signatures on every message (Chapter 2).
    SIGNATURE = "signature"


@dataclass(frozen=True)
class ReplicaSetConfig:
    """Static configuration of a replica group.

    Replica identifiers are strings of the form ``"replica0"`` ...
    ``"replica{n-1}"``; the primary of view ``v`` is replica ``v mod n``
    (Section 2.3).  Multi-group deployments (sharded services, where
    several independent replica groups share one simulated network) give
    each group a distinct ``replica_prefix`` — e.g. ``"g1:replica"`` — so
    node names never collide across groups.
    """

    n: int
    #: Prefix of every replica identifier in this group.  Part of the node
    #: namespace, not of the protocol: replicas only ever compare ids from
    #: their own config.
    replica_prefix: str = "replica"
    checkpoint_interval: int = 128
    #: Log size in sequence numbers; the paper uses a small multiple of the
    #: checkpoint interval (Section 2.3.4).
    log_size_multiplier: int = 2
    #: Base view-change timeout in microseconds (doubles per failed view).
    view_change_timeout: float = 500_000.0
    #: Client retransmission timeout in microseconds.
    client_retransmission_timeout: float = 150_000.0
    #: Status-message (retransmission trigger) period in microseconds.
    status_interval: float = 100_000.0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("a replica group needs at least 4 replicas")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be positive")
        if self.log_size_multiplier < 2:
            raise ValueError("log size must be at least twice the checkpoint interval")

    # ------------------------------------------------------------ membership
    @classmethod
    def for_faults(cls, f: int, **overrides) -> "ReplicaSetConfig":
        """Configuration for the minimum group tolerating ``f`` faults."""
        return cls(n=replicas_for(f), **overrides)

    @property
    def f(self) -> int:
        return max_faulty(self.n)

    @property
    def quorum(self) -> int:
        return quorum_size(self.n)

    @property
    def weak(self) -> int:
        return weak_size(self.n)

    @property
    def log_size(self) -> int:
        return self.checkpoint_interval * self.log_size_multiplier

    @cached_property
    def replica_ids(self) -> Tuple[str, ...]:
        # cached_property writes straight into __dict__, which a frozen
        # dataclass permits; the config is immutable so the cache never
        # goes stale.
        return tuple(f"{self.replica_prefix}{i}" for i in range(self.n))

    @cached_property
    def replica_indexes(self) -> Mapping[str, int]:
        """Replica id -> index; the bit a replica's vote sets in a slot."""
        return {replica_id: i for i, replica_id in enumerate(self.replica_ids)}

    def replica_index(self, replica_id: str) -> int:
        index = self.replica_indexes.get(replica_id)
        if index is None:
            raise ValueError(f"not a replica id: {replica_id!r}")
        return index

    def primary_of(self, view: int) -> str:
        """The primary of ``view`` is replica ``view mod n``."""
        if view < 0:
            raise ValueError("view numbers are non-negative")
        return self.replica_ids[view % self.n]

    def is_primary(self, replica_id: str, view: int) -> bool:
        return self.primary_of(view) == replica_id

    def others(self, replica_id: str) -> Tuple[str, ...]:
        return tuple(r for r in self.replica_ids if r != replica_id)


@dataclass(frozen=True)
class ProtocolOptions:
    """Switchable protocol mechanisms.

    The defaults correspond to the fully-optimized BFT configuration the
    paper evaluates; the ablation benchmarks (experiment E4) flip one flag
    at a time.
    """

    auth_mode: AuthMode = AuthMode.MAC
    #: Tentative execution of requests once prepared (Section 5.1.2);
    #: reduces the reply path from 5 to 4 message delays.
    tentative_execution: bool = True
    #: Read-only optimization (Section 5.1.3): reads answered in one round trip.
    read_only_optimization: bool = True
    #: Request batching under load (Section 5.1.4): the most inlined
    #: requests one pre-prepare carries.  The batch's budget is this many
    #: slots of ``separate_request_threshold + 1`` bytes; an inlined request
    #: takes a slot, a separately transmitted one (Section 5.1.5) only its
    #: 16-byte digest, so a slot holds sixteen of those.  ``1`` turns
    #: batching off only with separate transmission off (DESIGN.md, "What
    #: a batch holds").
    max_batch_size: int = 16
    #: Digest replies (Section 5.1.1): for a result of at least
    #: ``digest_replies_threshold`` bytes only the request's designated
    #: replier returns it in full and the others return its digest, on
    #: the read-write and the read-only path (5.1.3) alike.
    digest_replies: bool = True
    digest_replies_threshold: int = 32
    #: Separate request transmission (Section 5.1.5): large requests are
    #: multicast by the client and only their digests ride in pre-prepares.
    separate_request_transmission: bool = True
    separate_request_threshold: int = 255
    #: Perform real (keyed-hash/SHA) cryptography on every message.  Disabling it
    #: keeps the charged costs identical but speeds up large simulations.
    real_crypto: bool = True
    #: Proactive recovery (BFT-PR, Chapter 4).
    proactive_recovery: bool = False
    #: Watchdog period between recoveries of consecutive replicas, in
    #: microseconds (only meaningful when proactive_recovery is set).
    watchdog_period: float = 80_000_000.0
    #: Simulated cost of the reboot phase of a proactive recovery and of
    #: checking the local state copy, in microseconds.
    recovery_reboot_cost: float = 250_000.0
    recovery_state_check_cost: float = 200_000.0
    #: How agreement-phase multicasts (PREPARE/COMMIT/CHECKPOINT) reach the
    #: other replicas: ``"flat"`` is the paper's all-to-all fan-out;
    #: ``"tree"`` routes them over deterministic per-(view, sender) k-ary
    #: relay trees with end-to-end authenticator vectors piggybacked on the
    #: relayed copies (``net/overlay.py``) — the optional large-n mode.
    dissemination: str = "flat"
    #: Branching factor of the relay trees (tree mode only).
    relay_fanout: int = 3
    #: Hold window in microseconds during which a relay coalesces all
    #: entries owed to the same next hop into one bundle; this aggregation
    #: is what cuts the per-round wire-message count below flat mode.
    #: Small relative to a large-group round (~2ms at n=31), and the
    #: amortized per-envelope receive cost more than pays it back.
    relay_hold_us: float = 500.0
    #: Period in microseconds of the per-node relay watchdog that detects
    #: silent interior nodes and triggers flat fallback for the round's
    #: remaining views (tree mode only).
    relay_watchdog_period: float = 50_000.0

    def transmits_separately(self, operation: bytes) -> bool:
        """Whether a request for ``operation`` goes from its client to every
        replica and rides in pre-prepares as its digest (Section 5.1.5)."""
        return (
            self.separate_request_transmission
            and len(operation) > self.separate_request_threshold
        )

    def with_tree_dissemination(self, **changes) -> "ProtocolOptions":
        """The large-n overlay configuration (``dissemination="tree"``)."""
        return replace(self, dissemination="tree", **changes)

    def without_optimizations(self) -> "ProtocolOptions":
        """The unoptimized configuration used as the ablation baseline."""
        return replace(
            self,
            tentative_execution=False,
            read_only_optimization=False,
            max_batch_size=1,
            digest_replies=False,
            separate_request_transmission=False,
        )

    def as_bft_pk(self) -> "ProtocolOptions":
        """The BFT-PK configuration (signatures everywhere)."""
        return replace(self, auth_mode=AuthMode.SIGNATURE)


DEFAULT_OPTIONS = ProtocolOptions()
