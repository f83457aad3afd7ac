"""Session-key management (Sections 3.2.1 and 4.3.1).

Each ordered pair of nodes (a, b) — two replicas, or a client and a
replica — has a directed session key k(a, b) that a uses to MAC messages
to b and b uses to check them, so a client and a replica share two keys,
one per direction.  A key is immutable, and a simulated world derives each
directed key once: the one object is a's outbound key for b and b's
inbound key from a (``SimWorld.node``).  Keys are refreshed with *new-key*
messages, which replace table entries, never a key in place; when a node
changes its inbound keys it rejects messages authenticated with the old
keys and discards log messages that are not part of a complete
certificate — that freshness rule is what lets BFT-PR bound the damage a
compromised key can do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.crypto.mac import MACKey


@dataclass
class SessionKeyTable:
    """The session keys one node uses to talk to, and hear from, its peers.

    ``outbound[j]`` is the key this node uses to MAC messages it sends to
    ``j`` (k(self, j)); ``inbound[j]`` is the key peer ``j`` must use when
    sending to this node (k(j, self)).  Inbound keys are the ones refreshed
    by this node's new-key messages; epochs count the refreshes.
    """

    owner: str
    outbound: Dict[str, MACKey] = field(default_factory=dict)
    inbound: Dict[str, MACKey] = field(default_factory=dict)
    epoch: int = 0

    # ------------------------------------------------------------------ setup
    @staticmethod
    def initial_key(a: str, b: str, epoch: int = 0) -> MACKey:
        """Deterministic initial key material for the pair (a → b)."""
        material = hashlib.sha256(f"session:{a}->{b}:{epoch}".encode()).digest()
        return MACKey(key_id=epoch, material=material)

    def install_pair(self, peer: str, epoch: Optional[int] = None) -> None:
        """Install the default outbound and inbound keys for ``peer``."""
        use_epoch = self.epoch if epoch is None else epoch
        self.outbound[peer] = self.initial_key(self.owner, peer, use_epoch)
        self.inbound[peer] = self.initial_key(peer, self.owner, use_epoch)

    # --------------------------------------------------------------- refresh
    def refresh_inbound(self, peers: Optional[Tuple[str, ...]] = None) -> Dict[str, MACKey]:
        """Generate fresh inbound keys (the body of a new-key message).

        Returns the mapping peer → new key; the caller distributes it (the
        paper encrypts each entry under the peer's public key, which the
        simulation does not need to model).  When ``peers`` is given, only
        keys shared with those peers are refreshed — the recovery manager
        uses this to refresh replica-to-replica keys, while client keys are
        refreshed by the clients themselves.
        """
        self.epoch += 1
        fresh: Dict[str, MACKey] = {}
        for peer in list(self.inbound):
            if peers is not None and peer not in peers:
                continue
            fresh[peer] = self.initial_key(peer, self.owner, self.epoch)
            self.inbound[peer] = fresh[peer]
        return fresh

    def accept_new_key(self, peer: str, key: MACKey) -> None:
        """Install the key ``peer`` asks us to use when sending to it."""
        self.outbound[peer] = key

    # ---------------------------------------------------------------- lookup
    def key_for_sending_to(self, peer: str) -> MACKey:
        try:
            return self.outbound[peer]
        except KeyError as exc:
            raise KeyError(f"{self.owner} has no outbound key for {peer}") from exc

    def key_for_receiving_from(self, peer: str) -> MACKey:
        try:
            return self.inbound[peer]
        except KeyError as exc:
            raise KeyError(f"{self.owner} has no inbound key for {peer}") from exc

    def peers(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.outbound) | set(self.inbound)))
