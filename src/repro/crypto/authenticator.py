"""Authenticators (Section 3.2.1).

An authenticator is a vector of MACs, one per replica, appended to messages
that are multicast to the replica group.  Each receiver checks only its own
entry.  Unlike a signature, an authenticator does not let a receiver prove
to a third party that the message is authentic — that weakness is what
forces the redesigned view-change protocol of Chapter 3.

An authenticator is held the way it travels: one ``bytes`` of back-to-back
8-byte entries, plus a receiver -> position table that says whose entry
sits where.  The table is shared — the protocol layer builds one per
receiver set a node multicasts to and every message to that set refers to
it — so a multicast costs one byte string, not one object per receiver.

The helpers here are agnostic about what bytes they MAC.  The protocol
layer (:class:`repro.core.auth.Authentication`) computes its entries over
the 16-byte *message digest*, per Section 3.2.1; mixing these helpers with
``Authentication``-produced messages only verifies if the same bytes (the
digest) are passed as ``data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.crypto.mac import MACKey, compute_mac, verify_mac

#: Size in bytes of one authenticator entry (nonce amortised; 8 bytes per
#: replica as stated in Section 3.2.1: "it is equal to 8n bytes").
ENTRY_SIZE = 8


def positions_of(receivers: Iterable[str]) -> Mapping[str, int]:
    """The receiver -> position table of a vector laid out in this order."""
    return {receiver: position for position, receiver in enumerate(receivers)}


@dataclass(slots=True)
class Authenticator:
    """A vector of MAC entries, one per receiver in ``positions``.

    It names no sender: the receiver checks its entry under the key it
    shares with the node the message says sent it.  ``vector`` is empty
    when the entries were never computed (simulations with ``real_crypto``
    off); the size on the wire is that of the full vector either way.
    ``corrupt_for`` lists receivers whose entries were deliberately
    corrupted — used by the fault injector to model faulty clients that
    send requests with partially-correct authenticators (Section 3.2.2).
    """

    vector: bytes = b""
    positions: Mapping[str, int] = field(default_factory=dict)
    corrupt_for: frozenset = frozenset()

    def size_bytes(self) -> int:
        return ENTRY_SIZE * len(self.positions)

    def entry(self, receiver: str) -> Optional[bytes]:
        """The entry for ``receiver``, or ``None`` when it has none."""
        position = self.positions.get(receiver)
        if position is None:
            return None
        return self.vector[position * ENTRY_SIZE:(position + 1) * ENTRY_SIZE]

    def restricted_to(self, positions: Mapping[str, int]) -> "Authenticator":
        """The sub-vector for ``positions`` (a table over receivers this
        vector has entries for).  Entries are sliced out, never recomputed."""
        entries = [self.entry(receiver) for receiver in positions] if self.vector else ()
        return Authenticator(b"".join(entries), positions, self.corrupt_for)

    def verify_entry(self, receiver: str, key: MACKey, data: bytes) -> bool:
        """Check the entry for ``receiver``; missing or corrupted entries fail."""
        if receiver in self.corrupt_for:
            return False
        tag = self.entry(receiver)
        if tag is None:
            return False
        return verify_mac(key, data, tag)


def make_authenticator(
    keys: Mapping[str, MACKey],
    data: bytes,
    corrupt_for: Iterable[str] = (),
) -> Authenticator:
    """Build an authenticator over ``data`` for every receiver in ``keys``."""
    vector = b"".join([compute_mac(key, data) for key in keys.values()])
    return Authenticator(vector, positions_of(keys), frozenset(corrupt_for))
